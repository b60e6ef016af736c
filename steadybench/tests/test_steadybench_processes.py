"""A benchmark run must leave no process behind it."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

CHILD = """
import subprocess, sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import resource_tracker, shared_memory
from steadybench.processes import stop_children_at_exit
stop_children_at_exit()
segment = shared_memory.SharedMemory(create=True, size=16)  # launches the resource tracker
segment.close()
segment.unlink()
sleeper = subprocess.Popen(
    [sys.executable, "-c", "import time; time.sleep(120)"], stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
)
print(resource_tracker._resource_tracker._pid, sleeper.pid, flush=True)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_the_resource_tracker_and_stray_children_end_before_the_process_does():
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(ROOT)], capture_output=True, text=True, timeout=60, check=True
    )
    tracker, sleeper = (int(pid) for pid in out.stdout.split())
    for pid in (tracker, sleeper):
        assert not Path(f"/proc/{pid}").exists(), f"process {pid} outlived the run"
    assert f"stopped leftover child processes: [{sleeper}]" in out.stderr
