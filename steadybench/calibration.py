"""The calibration slice: a fixed piece of work whose duration tracks host speed.

The benchmark host is a shared 2-vCPU virtual machine whose speed drifts by
up to 2x within minutes and swings by 1.0-1.6x within a fraction of a second.
A slice is run between (and inside) the benchmark's own calls; its duration
samples the host's speed at that moment, and every end-to-end timing is
rescaled to what it would have read at :data:`REFERENCE_SLICE_S`.

The work mixes the three kinds of work the program does:

* building, sorting and grouping small frozen records (protocol
  bookkeeping: proposals, requests and messages are such records),
* arithmetic on small numpy arrays (the best-response kernel at 200 peers),
* a streaming pass over an array larger than the L2 cache (recall matrices).

This module deliberately imports nothing from ``repro``: a change to the
program under test must never change the yardstick it is measured with.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

__all__ = ["REFERENCE_SLICE_S", "STREAM_BYTES", "CalibrationSlice"]

#: Median duration of one slice on the reference host (2 vCPU Firecracker
#: guest, Python 3.11, numpy 2.4, one BLAS thread) while otherwise idle.
#: Normalised timings read as seconds at this slice speed.
REFERENCE_SLICE_S = 0.0021

#: Bytes streamed per slice: twice the 4 MiB of L2 the two vCPUs share, so
#: the pass runs from L3/DRAM as the recall-matrix products do.
STREAM_BYTES = 8 << 20

_NAMES = 200
_RECORDS = 240
_SMALL_SIZE = 24
_SMALL_STEPS = 48


@dataclass(frozen=True)
class _Record:
    peer: str
    source: int
    target: int
    gain: float


class CalibrationSlice:
    """One fixed slice of work; :meth:`run` returns its duration in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20080407)
        self._stream = rng.random(STREAM_BYTES // 8)
        self._small = rng.random((_SMALL_SIZE, _SMALL_SIZE)) / _SMALL_SIZE
        self._names: List[str] = [f"peer{index:03d}" for index in range(_NAMES)]

    def _interpreter(self) -> float:
        names = self._names
        records = [
            _Record(names[step % _NAMES], step % 17, (step * 7) % 13, (step * 0.618) % 1.0)
            for step in range(_RECORDS)
        ]
        records.sort(key=lambda record: (-record.gain, record.peer))
        groups: Dict[int, List[_Record]] = {}
        for record in records:
            groups.setdefault(record.source, []).append(record)
        return sum(group[0].gain for group in groups.values())

    def _small_arrays(self) -> float:
        block = self._small
        total = 0.0
        for _ in range(_SMALL_STEPS):
            block = block @ self._small + 0.5 * self._small
            total += float(block.max(axis=0).sum())
        return total

    def _stream_pass(self) -> float:
        return float(self._stream.sum())

    def run(self) -> float:
        """Run the slice once and return its wall duration in seconds.

        The garbage collector is off while the slice runs: a collection its
        allocations set off would scan the program's heap, and the yardstick
        would then grow with the program it measures.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter()
            self._interpreter()
            self._small_arrays()
            self._stream_pass()
            return time.perf_counter() - started
        finally:
            if enabled:
                gc.enable()
