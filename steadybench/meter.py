"""A phase timeline interleaved with calibration points, and its arithmetic.

A run is a sequence of *segments*, each attributed to a phase (``setup``,
``wall``, ``serve``, ...) or to no phase, separated by *calibration points*:

    point 0 | segment 1 | point 1 | segment 2 | point 2 | ... | point n

A point runs a short burst of calibration slices and keeps the burst's
mean duration: the host's slowness includes brief interruptions, and the
program suffers them in proportion to its running time, so the mean, not
the median, is the slice time that tracks it.  Segment ``i`` is normalised
by the points on either side of it, so each stretch of program time is
rescaled by the host speed measured just before and just after it:

    normalised_i = raw_i * (reference / trimmed_mean(point_{i-window} .. point_{i+window-1})) ** exponent

One point samples the speed of a moment; the speed swings by up to 1.6x
within a fifth of a second, so a window of several points estimates the
speed over a long call better than the two that bracket it.  The window's
highest and lowest quarter are dropped: the points right after a call
that freed a gigabyte read the program's own aftermath, not the host.

The exponent is the workload's own: when the host slows, interpreter-bound
work (protocol bookkeeping, store loads, hashing) slows by more than the
slice, numpy-bound work by less, and a point is a noisy reading of the
speed the program saw.  Each workload's exponent is the one that left the
least run-to-run spread on fresh-process A/A runs.

Points are taken at every phase switch and, through :meth:`Meter.tick`,
from inside long calls (``round_end``/``task_loaded`` subscribers), but
never closer together than ``min_gap`` seconds, which bounds their share
of the run.  Their own time lies between segments, so it is never
counted.

Entering a phase from outside it also runs a full garbage collection, off
the clock: where the interpreter's next full collection falls would
otherwise depend on everything allocated before, harness included, and
one landing inside a short phase moves it by a tenth.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["PhaseTotal", "Meter", "normalise_segments", "trimmed_mean"]

#: A segment: ``(phase or None, raw seconds)``.
Segment = Tuple[Optional[str], float]


@dataclass(frozen=True)
class PhaseTotal:
    """One phase's totals over a run."""

    raw_s: float
    normalised_s: float
    segments: int


#: Points on each side of a segment that estimate the speed during it.
WINDOW = 4



def trimmed_mean(values: Sequence[float]) -> float:
    """Mean of *values* without their highest and lowest quarter."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut : len(ordered) - cut]
    return sum(kept) / len(kept)


def normalise_segments(
    points: Sequence[float],
    segments: Sequence[Segment],
    reference: float,
    *,
    exponent: float,
    window: int = WINDOW,
) -> Dict[str, PhaseTotal]:
    """Per-phase raw and normalised totals of a timeline.

    ``segments[i]`` must lie between ``points[i]`` and ``points[i + 1]``, so
    there is exactly one more point than segments.  Segments without a phase
    are skipped.  Near the ends of the timeline the window is cut short.
    """
    if len(points) != len(segments) + 1:
        raise ValueError(
            f"a timeline of {len(segments)} segments needs {len(segments) + 1} "
            f"calibration points, got {len(points)}"
        )
    if reference <= 0 or any(point <= 0 for point in points):
        raise ValueError("calibration point durations and the reference must be positive")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    raw: Dict[str, float] = {}
    normalised: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for index, (phase, seconds) in enumerate(segments):
        if phase is None:
            continue
        local = trimmed_mean(points[max(0, index + 1 - window) : index + 1 + window])
        raw[phase] = raw.get(phase, 0.0) + seconds
        normalised[phase] = normalised.get(phase, 0.0) + seconds * (reference / local) ** exponent
        counts[phase] = counts.get(phase, 0) + 1
    return {
        phase: PhaseTotal(raw_s=raw[phase], normalised_s=normalised[phase], segments=counts[phase])
        for phase in raw
    }


class Meter:
    """Records a phase timeline with calibration points between segments.

    Parameters
    ----------
    slice_fn:
        Runs one calibration slice and returns its duration in seconds.
    min_gap:
        :meth:`tick` takes a point only when at least this many seconds have
        passed since the previous point ended.
    burst:
        Slices per point; the point keeps their mean.
    on_point:
        Optional ``(start, end)`` callback for each point, garbage collection
        included (the tracer records it as a harness span, so layer self
        times exclude it).
    on_phase:
        Optional callback receiving each newly opened segment's phase (the
        tracer records only while a phase is open).
    """

    def __init__(
        self,
        slice_fn: Callable[[], float],
        *,
        min_gap: float = 0.1,
        burst: int = 3,
        on_point: Optional[Callable[[float, float], None]] = None,
        on_phase: Optional[Callable[[Optional[str]], None]] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if burst < 1:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self._slice = slice_fn
        self._clock = clock
        self.min_gap = float(min_gap)
        self.burst = int(burst)
        self.on_point = on_point
        self.on_phase = on_phase
        self.points: List[float] = []
        self.segments: List[Segment] = []
        self.calibration_s = 0.0
        self._phase: Optional[str] = None
        self._started = clock()
        self._last_point_end = self._started
        self._segment_start = self._started
        self._point()
        self._segment_start = self._last_point_end

    def _point(self, collect: bool = False) -> None:
        start = self._clock()
        if collect:
            gc.collect()
        sliced = self._clock()
        durations = [self._slice() for _ in range(self.burst)]
        end = self._clock()
        self.points.append(sum(durations) / len(durations))
        self.calibration_s += end - sliced
        self._last_point_end = end
        if self.on_point is not None:
            self.on_point(start, end)

    def switch(self, phase: Optional[str]) -> None:
        """Close the current segment, take a point, and open a segment for *phase*."""
        self.segments.append((self._phase, self._clock() - self._segment_start))
        self._point(collect=phase is not None and phase != self._phase)
        self._phase = phase
        if self.on_phase is not None:
            self.on_phase(phase)
        self._segment_start = self._last_point_end

    def tick(self) -> None:
        """Take a point inside the current phase if ``min_gap`` has passed."""
        if self._clock() - self._last_point_end >= self.min_gap:
            self.switch(self._phase)

    def totals(self, reference: float, exponent: float) -> Dict[str, PhaseTotal]:
        """Per-phase totals so far (the open segment is not included)."""
        return normalise_segments(self.points, self.segments, reference, exponent=exponent)

    def elapsed(self) -> float:
        """Seconds since the meter started."""
        return self._clock() - self._started

    def median_point(self) -> float:
        """The median calibration point duration of the run."""
        return statistics.median(self.points)
