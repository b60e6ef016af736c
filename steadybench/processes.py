"""Stop and reap every process a benchmark run started, before it exits.

A run must leave no process behind, or a later run could be served by it.
The ``multiprocessing`` resource tracker outlives the calls that start it:
the first ``SharedMemory(create=True)`` launches it (the sweep's
shared-memory tier does, on sweep-store), and left alone it exits only
after this process has, when it reads the end of its pipe.

:func:`stop_children` closes the tracker's pipe and waits for it, then
terminates, kills if it must, and reaps any other process still parented
to this one.  :func:`stop_children_at_exit` registers it with
:mod:`atexit` before the program loads, so it runs after the program's own
exit handlers (``multiprocessing`` joins its children in one), on every way
out of Python.
"""

from __future__ import annotations

import atexit
import os
import signal
import sys
import time
from pathlib import Path
from typing import List

#: How long a child gets to end after each request to stop.
GRACE_S = 5.0


def _child_pids() -> List[int]:
    """Pids of this process's children, zombies included; empty without ``/proc``."""
    me = os.getpid()
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    pids = []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="utf-8", errors="replace")
        except OSError:
            continue
        # The command name may hold spaces or parentheses; the fields after
        # the last ")" are state, ppid, ...
        fields = stat[stat.rindex(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return sorted(pids)


def _reaped(pid: int, deadline: float) -> bool:
    """Wait for child *pid* until *deadline*; ``True`` once it has ended and been reaped."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def _stop_resource_tracker() -> None:
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    tracker = getattr(tracker_module, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None and getattr(tracker, "_pid", None) is not None:
        # Closing its pipe makes the tracker release what is still
        # registered and exit; _stop waits for it.
        stop()


def stop_children() -> None:
    """Stop every child of this process and wait for each to end."""
    _stop_resource_tracker()
    leftovers = _child_pids()
    for pid in leftovers:
        for stop_signal in (signal.SIGTERM, signal.SIGKILL):
            try:
                os.kill(pid, stop_signal)
            except ProcessLookupError:
                break
            if _reaped(pid, time.monotonic() + GRACE_S):
                break
    if leftovers:
        print(f"stopped leftover child processes: {leftovers}", file=sys.stderr)


def stop_children_at_exit() -> None:
    """Run :func:`stop_children` at exit, in this process only, not in its forks."""
    owner = os.getpid()

    def stop() -> None:
        if os.getpid() == owner:
            stop_children()

    atexit.register(stop)
