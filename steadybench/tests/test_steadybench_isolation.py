"""The yardstick must not depend on the program it measures."""

import ast
import gc
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_calibration_module_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "calibration.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert imported, "the calibration module should import numpy and the standard library"
    assert not any(name == "repro" or name.startswith("repro.") for name in imported)
    assert not any(name == "steadybench" or name.startswith("steadybench.") for name in imported)


def test_running_a_slice_loads_no_repro_module():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "from steadybench.calibration import CalibrationSlice;"
        "assert CalibrationSlice().run() > 0;"
        "print(sorted(m for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT)], capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == "[]"


def test_a_slice_runs_with_the_collector_off():
    sys.path.insert(0, str(ROOT))
    from steadybench.calibration import CalibrationSlice

    calibration = CalibrationSlice()
    seen = []
    parts = ("_interpreter", "_small_arrays", "_stream_pass")
    for name in parts:
        part = getattr(calibration, name)
        setattr(calibration, name, lambda part=part: seen.append(gc.isenabled()) or part())
    assert gc.isenabled()
    assert calibration.run() > 0
    assert seen == [False] * len(parts)
    assert gc.isenabled()


def test_tree_hash_matches_git_for_a_clean_src():
    git = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD:src"], capture_output=True, text=True, check=False
    )
    dirty = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"], capture_output=True, text=True, check=False
    )
    if git.returncode != 0 or dirty.returncode != 0 or dirty.stdout.strip():
        pytest.skip("needs a git checkout whose src/ is committed and clean")
    sys.path.insert(0, str(ROOT))
    from steadybench.envinfo import git_tree_hash

    assert git_tree_hash(ROOT / "src") == git.stdout.strip()
