"""The committed byte-parity script prints the same digests run after run."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

from benchmarks.parity import main

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"^[0-9a-f]{64}  \S+$")


def test_two_limited_runs_print_the_same_digests(capsys):
    source = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source, env.get("PYTHONPATH")]))
    command = [sys.executable, "-m", "benchmarks.parity", "quick", "--limit", "2"]
    first = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert main(["quick", "--limit", "2"]) == 0
    second = capsys.readouterr().out.splitlines()
    assert first == second
    assert len(first) == 3
    assert all(LINE.match(line) for line in first)
    assert [line.split("  ")[1] for line in first] == [
        "v0/same-category/singletons/selfish",
        "v0/same-category/singletons/altruistic",
        "total",
    ]
