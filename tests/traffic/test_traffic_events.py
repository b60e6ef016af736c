"""Tests for query event streams and the one rule that merges them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traffic.events import QueryEventStream, merge_streams
from tests import traffic_oracle


def make_stream(times, issuers, queries, label="events"):
    return QueryEventStream(
        np.asarray(times, dtype=float),
        np.asarray(issuers, dtype=np.int64),
        np.asarray(queries, dtype=np.int64),
        label=label,
    )


class TestQueryEventStream:
    def test_length_and_dtypes(self):
        stream = make_stream([0.1, 0.2, 0.3], [0, 1, 0], [2, 0, 1])
        assert len(stream) == 3
        assert stream.times.dtype == np.float64
        assert stream.issuers.dtype == np.int64
        assert stream.queries.dtype == np.int64

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="identical shapes"):
            make_stream([0.1, 0.2], [0], [1, 2])

    def test_multidimensional_arrays_rejected(self):
        square = np.zeros((2, 2))
        with pytest.raises(ValueError, match="one-dimensional"):
            QueryEventStream(square, square.astype(np.int64), square.astype(np.int64))

    def test_unsorted_times_rejected(self):
        with pytest.raises(ValueError, match="not sorted"):
            make_stream([0.2, 0.1], [0, 1], [0, 1], label="bad")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_rejected(self, bad):
        # A NaN compares false either way, so it would pass the order check.
        with pytest.raises(ValueError, match="'bad'.*NaN or infinite"):
            make_stream([0.3, bad, 0.1], [0, 1, 2], [0, 0, 0], label="bad")

    def test_equal_timestamps_are_allowed(self):
        stream = make_stream([0.1, 0.1, 0.1], [0, 1, 2], [0, 0, 0])
        assert len(stream) == 3


class TestMergeStreams:
    def test_merge_is_globally_time_sorted(self):
        first = make_stream([0.1, 0.4], [0, 0], [0, 0])
        second = make_stream([0.2, 0.3], [1, 1], [1, 1])
        merged = merge_streams([first, second])
        assert merged.times.tolist() == [0.1, 0.2, 0.3, 0.4]
        assert merged.issuers.tolist() == [0, 1, 1, 0]

    def test_ties_resolve_by_stream_order(self):
        # Both streams fire at t=0.5; stream 0's event must come first.
        first = make_stream([0.5], [7], [0])
        second = make_stream([0.5], [9], [0])
        merged = merge_streams([first, second])
        assert merged.issuers.tolist() == [7, 9]

    def test_empty_streams_are_skipped(self):
        empty = make_stream([], [], [])
        events = make_stream([0.2], [3], [1])
        merged = merge_streams([empty, events])
        # A lone non-empty stream is served as is, without a copy.
        assert merged is events

    def test_merging_nothing_yields_an_empty_stream(self):
        merged = merge_streams([])
        assert len(merged) == 0
        assert merged.label == "merged"

    def test_merge_of_two_streams_leaves_both_untouched(self):
        first = make_stream([0.1, 0.4], [0, 0], [0, 1], label="base")
        second = make_stream([0.2, 0.3], [1, 1], [2, 3], label="burst")
        merged = merge_streams([first, second])
        assert merged is not first and merged is not second
        assert merged.label == "merged"
        assert first.times.tolist() == [0.1, 0.4] and first.queries.tolist() == [0, 1]
        assert second.times.tolist() == [0.2, 0.3] and second.queries.tolist() == [2, 3]

    #: A handful of times, so that ties fall within and across streams.
    TIMES = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), max_size=8).map(sorted)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TIMES, max_size=4))
    def test_merge_equals_the_reference_order(self, stream_times):
        # Issuer = stream index and query = position tag every event uniquely.
        streams = [
            make_stream(times, [index] * len(times), range(len(times)), label=f"s{index}")
            for index, times in enumerate(stream_times)
        ]
        merged = merge_streams(streams)
        times, issuers, queries = traffic_oracle.reference_merge(streams)
        assert merged.times.tolist() == times.tolist()
        assert merged.issuers.tolist() == issuers.tolist()
        assert merged.queries.tolist() == queries.tolist()
        live = [stream for stream in streams if len(stream)]
        if len(live) == 1:
            assert merged is live[0]
