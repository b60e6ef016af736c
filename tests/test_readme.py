"""The README's Python snippets run as written, in order, in one namespace."""

from __future__ import annotations

import re
from pathlib import Path

from repro.registry import strategy_registry

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def python_blocks():
    return BLOCK.findall(README.read_text(encoding="utf-8"))


def test_the_session_snippets_run(tmp_path, monkeypatch):
    blocks = python_blocks()
    # The sweep snippets run a benchmark-scale grid on 8 workers; the sweep
    # engine has its own suite.
    sweeps = [block for block in blocks if "run_sweep(" in block]
    assert len(sweeps) == 3
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "readme"}
    try:
        for number, block in enumerate(blocks):
            if block not in sweeps:
                exec(compile(block, f"README.md python block {number}", "exec"), namespace)
    finally:
        if "lazy" in strategy_registry:
            strategy_registry.unregister("lazy")
