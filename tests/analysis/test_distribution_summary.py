"""Distribution summaries of a sample and of its weighted support.

:func:`distribution_summary` is the reference: numpy's ``linear``
percentiles and ``np.histogram`` over the sample's range, widened by ±0.5
when numpy refuses a range a few ulps wide.  :func:`weighted_distribution_summary`
summarises the same sample from its distinct values and their counts, and
must equal the reference on the expanded sample field by field with ``==``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis.reporting import distribution_summary, weighted_distribution_summary

BINS = st.integers(min_value=1, max_value=50)


@st.composite
def weighted_supports(draw):
    """``(support, counts)``: non-negative finite values, at least one event.

    Values are mantissas in ``[0, 10]`` scaled by ``10**-9`` to ``10**11``,
    so magnitudes run from 1e-9 to 1e12, in any order and possibly
    repeated, as a traffic run's per-cell values are.  The support is spread
    out, one value, or two values one ulp apart.  Counts are small, zeros
    included, except one that is positive and reaches 10**6.
    """
    scale = draw(st.sampled_from([10.0**exponent for exponent in range(-9, 12)]))
    mantissas = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
            min_size=1,
            max_size=12,
        )
    )
    support = [mantissa * scale for mantissa in mantissas]
    shape = draw(st.sampled_from(("spread", "one value", "one ulp")))
    if shape == "one value":
        support = support[:1]
    elif shape == "one ulp":
        support = [support[0], float(np.nextafter(support[0], np.inf))]
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=20),
            min_size=len(support),
            max_size=len(support),
        )
    )
    heavy = draw(st.integers(min_value=0, max_value=len(support) - 1))
    counts[heavy] = draw(st.integers(min_value=1, max_value=10**6))
    return np.array(support, dtype=float), np.array(counts, dtype=np.int64)


def numpy_reference(sample, bins):
    """Today's rule spelled out: percentiles, auto-range histogram, ±0.5 fallback."""
    try:
        histogram = np.histogram(sample, bins=bins)
    except ValueError:
        histogram = np.histogram(
            sample, bins=bins, range=(sample.min() - 0.5, sample.max() + 0.5)
        )
    return np.percentile(sample, (50.0, 95.0, 99.0)), histogram


class TestWeightedSummaryProperty:
    @settings(max_examples=150, deadline=None)
    @given(weighted=weighted_supports(), bins=BINS)
    @example(weighted=(np.array([3.5]), np.array([1])), bins=20)  # one event
    @example(weighted=(np.array([2.0, 7.0]), np.array([0, 5])), bins=1)  # one value held
    @example(weighted=(np.array([1e12, np.nextafter(1e12, np.inf)]), np.array([3, 4])), bins=50)
    @example(weighted=(np.array([1e-9, 5.0, 1e12]), np.array([10**6, 1, 10**6])), bins=7)
    @example(weighted=(np.array([-0.0]), np.array([1])), bins=20)  # numpy keeps the sign
    @example(weighted=(np.array([4.0, 1.0, 4.0, 2.5, 1.0]), np.array([2, 3, 1, 0, 4])), bins=3)
    def test_equals_the_summary_of_the_expanded_sample(self, weighted, bins):
        support, counts = weighted
        sample = np.repeat(support, counts)
        expected = distribution_summary(sample, bins=bins)
        summary = weighted_distribution_summary(
            support, counts, mean=float(sample.mean()), bins=bins
        )
        assert summary == expected
        assert repr(summary) == repr(expected)  # bit for bit, signed zeros too

    @pytest.mark.parametrize(
        "support, counts, bins, message",
        [
            ([1.0, 2.0], [0, 0], 5, "at least one event"),
            ([], [], 5, "at least one event"),
            ([1.0], [1], 0, "bins"),
            ([1.0, 2.0], [1], 5, "same length"),
            ([1.0, 2.0], [2, -1], 5, "non-negative"),
        ],
    )
    def test_invalid_input_raises(self, support, counts, bins, message):
        with pytest.raises(ValueError, match=message):
            weighted_distribution_summary(support, counts, mean=0.0, bins=bins)


class TestDistributionSummary:
    @settings(max_examples=100, deadline=None)
    @given(weighted=weighted_supports(), bins=BINS, seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_percentiles_and_histogram(self, weighted, bins, seed):
        support, counts = weighted
        sample = np.random.default_rng(seed).permutation(np.repeat(support, counts))
        percentiles, (bin_counts, bin_edges) = numpy_reference(sample, bins)
        summary = distribution_summary(sample, bins=bins)
        assert summary.count == sample.size
        assert summary.mean == float(sample.mean())
        assert (summary.minimum, summary.maximum) == (sample.min(), sample.max())
        assert (summary.p50, summary.p95, summary.p99) == tuple(percentiles)
        assert summary.bin_edges == tuple(bin_edges)
        assert summary.bin_counts == tuple(bin_counts)

    def test_near_constant_sample_widens_by_half(self):
        low = 1e12
        sample = np.array([low, np.nextafter(low, np.inf)])
        with pytest.raises(ValueError):
            np.histogram(sample, bins=20)
        summary = distribution_summary(sample, bins=20)
        assert summary.bin_edges[0] == low - 0.5
        assert summary.bin_edges[-1] == float(np.nextafter(low, np.inf)) + 0.5
        assert sum(summary.bin_counts) == 2

    def test_accepts_any_iterable(self):
        assert distribution_summary(iter([3.0, 1.0, 2.0]), bins=2) == distribution_summary(
            np.array([3.0, 1.0, 2.0]), bins=2
        )

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="at least one value"):
            distribution_summary([])

    @pytest.mark.parametrize("bins", [0, -3])
    def test_bins_below_one_raise(self, bins):
        with pytest.raises(ValueError, match="bins must be at least 1"):
            distribution_summary([1.0, 2.0], bins=bins)
