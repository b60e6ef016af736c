"""Plain-text reporting helpers for tables, series and distributions.

The benchmark harness prints the rows and series the paper reports (Table 1
and Figures 1-4).  These helpers render them as aligned plain-text tables /
two-column series so the output is readable both on a terminal and in
``EXPERIMENTS.md``.  :class:`DistributionSummary` condenses a large sample
(e.g. the per-query latencies of a :class:`repro.traffic` run) into
percentiles plus a fixed-bin histogram, all JSON-safe.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

__all__ = [
    "format_table",
    "format_series",
    "format_markdown_table",
    "SummaryStats",
    "summary_statistics",
    "DistributionSummary",
    "distribution_summary",
    "weighted_distribution_summary",
]


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    string_rows: List[List[str]] = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in string_rows:
        for column, cell in enumerate(row):
            if column < len(widths):
                widths[column] = max(widths[column], len(cell))
            else:
                widths.append(len(cell))
    lines = []
    header_line = "  ".join(header.ljust(widths[column]) for column, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[column] for column in range(len(headers))))
    for row in string_rows:
        lines.append(
            "  ".join(cell.ljust(widths[column]) for column, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a GitHub-flavoured markdown table (used to build EXPERIMENTS.md)."""
    lines = ["| " + " | ".join(str(header) for header in headers) + " |"]
    lines.append("|" + "|".join("---" for _header in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_stringify(cell) for cell in row) + " |")
    return "\n".join(lines)


def format_series(name: str, series: Mapping[object, object]) -> str:
    """Render an x/y series (one figure curve) as two aligned columns."""
    rows = [(x, y) for x, y in series.items()]
    return f"{name}\n" + format_table(["x", "y"], rows)


@dataclass(frozen=True)
class SummaryStats:
    """Mean / spread summary of one metric over sweep replications."""

    count: int
    mean: float
    stddev: float
    ci_low: float
    ci_high: float

    @property
    def ci_half_width(self) -> float:
        """Half-width of the confidence interval around the mean."""
        return (self.ci_high - self.ci_low) / 2.0

    def as_sequence(self) -> Sequence[object]:
        """``(n, mean, stddev, ci_low, ci_high)`` for tabular rendering."""
        return (self.count, self.mean, self.stddev, self.ci_low, self.ci_high)


@dataclass(frozen=True)
class DistributionSummary:
    """Percentile/histogram condensation of one metric over many observations.

    Built by :func:`distribution_summary` from a sample, or by
    :func:`weighted_distribution_summary` from its values and their counts,
    as a traffic run summarises its per-event metrics; only scalars and
    plain lists, so it serialises as-is.
    """

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    #: ``len(bin_counts) + 1`` bin edges spanning ``[minimum, maximum]``
    #: (``[minimum - 0.5, maximum + 0.5]`` for a range too narrow to split).
    bin_edges: Tuple[float, ...] = ()
    bin_counts: Tuple[int, ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable mapping mirroring the dataclass fields."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "bin_edges": list(self.bin_edges),
            "bin_counts": list(self.bin_counts),
        }

    @classmethod
    def from_dict(cls, mapping: Mapping[str, Any]) -> "DistributionSummary":
        """Rebuild a summary from its :meth:`to_dict` form."""
        return cls(
            count=int(mapping["count"]),
            mean=float(mapping["mean"]),
            minimum=float(mapping["min"]),
            maximum=float(mapping["max"]),
            p50=float(mapping["p50"]),
            p95=float(mapping["p95"]),
            p99=float(mapping["p99"]),
            bin_edges=tuple(float(edge) for edge in mapping.get("bin_edges", ())),
            bin_counts=tuple(int(count) for count in mapping.get("bin_counts", ())),
        )

    def as_row(self) -> Sequence[object]:
        """``(n, mean, p50, p95, p99, max)`` for tabular rendering."""
        return (self.count, self.mean, self.p50, self.p95, self.p99, self.maximum)


#: The percentiles a summary reports, and the quantiles numpy reads them as.
_PERCENTILES = (50.0, 95.0, 99.0)
_QUANTILES = np.true_divide(_PERCENTILES, 100)


def distribution_summary(values: Iterable[float], *, bins: int = 20) -> DistributionSummary:
    """Summarise a sample as mean, p50/p95/p99 percentiles and a histogram.

    Percentiles use numpy's default linear interpolation; the histogram has
    *bins* equal-width bins over ``[min, max]``, widened to ``[min - 0.5,
    max + 0.5]`` when the values coincide or lie a few ulps apart.  Raises
    :class:`ValueError` on an empty sample or when *bins* is below 1.
    """
    data = np.asarray(
        values if isinstance(values, np.ndarray) else list(values), dtype=float
    ).ravel()
    if data.size == 0:
        raise ValueError("distribution_summary requires at least one value")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    lowest, highest = float(data.min()), float(data.max())
    return _summary(
        count=int(data.size),
        mean=float(data.mean()),
        lowest=lowest,
        highest=highest,
        percentiles=np.percentile(data, _PERCENTILES),
        histogram=_histogram(data, bins, lowest, highest),
    )


def weighted_distribution_summary(
    support: Sequence[float], counts: Sequence[int], *, mean: float, bins: int = 20
) -> DistributionSummary:
    """Summarise the sample that holds each *support* value ``counts`` times.

    Equals :func:`distribution_summary` of ``np.repeat(support, counts)``
    field by field, bit for bit, without expanding the sample: count,
    minimum and maximum come off the values with a positive count, the
    percentiles are the order statistics numpy's ``linear`` method reads,
    found through the cumulative counts and interpolated with numpy's
    arithmetic, and the histogram weighs each value by its count.  The
    *mean* is taken as given: the caller has it as the pairwise mean of the
    expanded sample, which a count-weighted mean would miss in the last
    bits.  Raises :class:`ValueError` when the counts hold no event.
    """
    values = np.asarray(support, dtype=float).ravel()
    weights = np.asarray(counts, dtype=np.int64).ravel()
    if values.shape != weights.shape:
        raise ValueError(
            f"support and counts must have the same length, got {values.size} and {weights.size}"
        )
    if weights.size and weights.min() < 0:
        raise ValueError("counts must be non-negative")
    total = int(weights.sum())
    if total == 0:
        raise ValueError("weighted_distribution_summary requires at least one event")
    if bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")
    held = weights > 0
    order = np.argsort(values[held], kind="stable")
    values, weights = values[held][order], weights[held][order]
    ranks = np.cumsum(weights)  # ranks[k]: sample positions up to values[k]

    # numpy's linear method: the order statistics at floor(v) and floor(v) + 1
    # around the virtual index v = (n - 1) * q; from v >= n - 1 on numpy reads
    # both at index -1, the maximum, and measures the weight from that -1.
    virtual = (total - 1) * _QUANTILES
    floor = np.floor(virtual)
    top = virtual >= total - 1
    gamma = virtual - np.where(top, -1.0, floor)
    lower_rank = np.where(top, total - 1, floor).astype(np.int64)
    upper_rank = np.where(top, total - 1, floor + 1).astype(np.int64)
    lower = values[np.searchsorted(ranks, lower_rank, side="right")]
    upper = values[np.searchsorted(ranks, upper_rank, side="right")]
    # numpy's two-sided _lerp.
    step = upper - lower
    percentiles = np.where(gamma >= 0.5, upper - step * (1 - gamma), lower + step * gamma)
    lowest, highest = float(values[0]), float(values[-1])
    return _summary(
        count=total,
        mean=float(mean),
        lowest=lowest,
        highest=highest,
        percentiles=percentiles,
        histogram=_histogram(values, bins, lowest, highest, weights=weights),
    )


def _histogram(
    values: Any, bins: int, lowest: float, highest: float, weights: Any = None
) -> Tuple[Any, Any]:
    """``np.histogram`` of *values* over ``[lowest, highest]`` in *bins* equal bins.

    Numpy widens an exactly constant sample to ``[x - 0.5, x + 0.5]``.  A
    range a few float ulps wide makes the equal bin width underflow the
    float spacing, and numpy refuses it; widen it by ±0.5 the same way.
    """
    try:
        return np.histogram(values, bins=bins, range=(lowest, highest), weights=weights)
    except ValueError:
        return np.histogram(
            values, bins=bins, range=(lowest - 0.5, highest + 0.5), weights=weights
        )


def _summary(
    *,
    count: int,
    mean: float,
    lowest: float,
    highest: float,
    percentiles: Any,
    histogram: Tuple[Any, Any],
) -> DistributionSummary:
    p50, p95, p99 = percentiles
    bin_counts, bin_edges = histogram
    return DistributionSummary(
        count=count,
        mean=mean,
        minimum=lowest,
        maximum=highest,
        p50=float(p50),
        p95=float(p95),
        p99=float(p99),
        bin_edges=tuple(float(edge) for edge in bin_edges),
        bin_counts=tuple(int(tally) for tally in bin_counts),
    )


#: z quantile for a two-sided 95% normal confidence interval.
_Z_95 = 1.959963984540054


def summary_statistics(values: Iterable[float], *, confidence: float = 0.95) -> SummaryStats:
    """Mean, sample stddev and a normal-approximation confidence interval.

    The CI is ``mean ± z * stddev / sqrt(n)`` with the normal quantile (the
    sweeps this summarises run tens of replications, where the difference to
    the t-distribution is negligible and no SciPy dependency is needed).
    Only ``confidence=0.95`` is supported.
    """
    data = [float(value) for value in values]
    if not data:
        raise ValueError("summary_statistics requires at least one value")
    if confidence != 0.95:
        raise ValueError(f"only confidence=0.95 is supported, got {confidence}")
    count = len(data)
    mean = math.fsum(data) / count
    if count == 1:
        return SummaryStats(count=1, mean=mean, stddev=0.0, ci_low=mean, ci_high=mean)
    variance = math.fsum((value - mean) ** 2 for value in data) / (count - 1)
    stddev = math.sqrt(variance)
    half_width = _Z_95 * stddev / math.sqrt(count)
    return SummaryStats(
        count=count,
        mean=mean,
        stddev=stddev,
        ci_low=mean - half_width,
        ci_high=mean + half_width,
    )
