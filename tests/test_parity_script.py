"""The committed byte-parity script: stable digests, dumps and field diffs."""

from __future__ import annotations

import hashlib
import json
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


def test_dump_holds_the_digested_payloads(tmp_path, capsys):
    dump = tmp_path / "runs.json"
    assert main(["quick", "--limit", "2", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = json.loads(dump.read_text(encoding="utf-8"))
    digests = {label: digest for digest, label in (line.split("  ") for line in lines[:-1])}
    assert sorted(results) == sorted(digests)
    for label, result in results.items():
        data = (json.dumps(result, sort_keys=True) + "\n").encode("utf-8")
        assert hashlib.sha256(data).hexdigest() == digests[label]


def test_the_traffic_set_serves_after_a_discovery(tmp_path, capsys):
    dump = tmp_path / "traffic.json"
    assert main(["traffic", "--limit", "2", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(LINE.match(line) for line in lines)
    assert [line.split("  ")[1] for line in lines] == [
        "same-category/broadcast/uniform",
        "same-category/broadcast/zipf",
        "total",
    ]
    results = json.loads(dump.read_text(encoding="utf-8"))
    assert {result["kind"] for result in results.values()} == {"traffic"}
    assert {result["queries_routed"] for result in results.values()} == {5000}


def test_the_maintain_set_runs_ten_paper_scale_periods(tmp_path, capsys):
    dump = tmp_path / "maintain.json"
    assert main(["maintain", "--limit", "1", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(LINE.match(line) for line in lines)
    assert [line.split("  ")[1] for line in lines] == ["7/selfish/exact", "total"]
    (result,) = json.loads(dump.read_text(encoding="utf-8")).values()
    assert result["kind"] == "maintenance"
    assert len(result["periods"]) == 10
    assert result["config"]["scenario_overrides"] == {"seed": 7, "uniform_workload": True}


def test_the_serve_set_serves_after_each_maintenance_period(tmp_path, capsys):
    dump = tmp_path / "serve.json"
    assert main(["serve", "--limit", "1", "--dump", str(dump)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(LINE.match(line) for line in lines)
    assert [line.split("  ")[1] for line in lines] == ["7/period-0", "total"]
    (result,) = json.loads(dump.read_text(encoding="utf-8")).values()
    assert result["kind"] == "traffic"
    assert result["queries_routed"] == 100_000
    assert result["extras"]["traffic"]["workload"] == "zipf"
    assert result["config"]["strategy_mode"] == "observed"
    assert result["config"]["scenario_overrides"] == {"seed": 7, "uniform_workload": True}


def test_diff_prints_each_differing_field_path(tmp_path, capsys):
    old = {
        "a": {
            "final_workload_cost": 0.5,
            "workload_cost_trace": [1.0, 0.75, 0.5],
            "periods": [{"workload_cost_after": 2.0, "model": "drift"}],
            "moves": 3,
        },
        "b": {"final_workload_cost": float("nan"), "moves": 1},
        "gone": {"moves": 0},
    }
    new = json.loads(json.dumps(old))
    new["a"]["final_workload_cost"] = 0.5 * (1 + 2**-50)
    new["a"]["workload_cost_trace"][1:] = [0.75 * (1 - 2**-51), 0.5 * (1 + 2**-50)]
    new["a"]["periods"][0]["model"] = "churn"
    new["added"] = new.pop("gone")
    paths = []
    for name, dump in (("old", old), ("new", new)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(dump), encoding="utf-8")

    assert main(["diff", str(paths[0]), str(paths[0])]) == 0
    assert capsys.readouterr().out.splitlines() == ["0 of 3 runs differ"]
    assert main(["diff", *map(str, paths)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "(run)  2  inf",
        "final_workload_cost  1  8.88e-16",
        "periods[].model  1  inf",
        "workload_cost_trace[]  2  8.88e-16",
        "3 of 4 runs differ",
    ]
