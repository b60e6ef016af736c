"""Tests for queries and query workloads (the num(Q)/num(q, Q) bookkeeping)."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.queries import Query, QueryWorkload


class TestQuery:
    def test_value_semantics(self):
        assert Query(["a", "b"]) == Query(["b", "a"])
        assert hash(Query(["a"])) == hash(Query(["a"]))

    def test_single_term_constructor(self):
        assert Query.single_term("music") == Query(["music"])


class TestQueryWorkload:
    def test_counts_and_frequencies(self):
        workload = QueryWorkload()
        workload.add(Query(["a"]), 3)
        workload.add(Query(["b"]), 1)
        assert workload.total() == 4
        assert workload.count(Query(["a"])) == 3
        assert workload.frequency(Query(["a"])) == pytest.approx(0.75)
        assert workload.frequency(Query(["missing"])) == 0.0

    def test_empty_workload_frequency_is_zero(self):
        assert QueryWorkload().frequency(Query(["a"])) == 0.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            QueryWorkload().add(Query(["a"]), -1)

    def test_merge_adds_counts(self):
        left = QueryWorkload([Query(["a"])])
        right = QueryWorkload([Query(["a"]), Query(["b"])])
        merged = left.merge(right)
        assert merged.count(Query(["a"])) == 2
        assert merged.count(Query(["b"])) == 1
        # The inputs are untouched.
        assert left.total() == 1

    @given(
        st.lists(
            st.dictionaries(st.sampled_from("abcde"), st.integers(0, 3), max_size=4),
            max_size=6,
        )
    )
    def test_merge_all_adds_every_workload(self, counts):
        workloads = []
        for per_query in counts:
            workload = QueryWorkload()
            for term, count in per_query.items():
                workload.add(Query([term]), count)
            workloads.append(workload)
        totals = Counter()
        for per_query in counts:
            totals.update(per_query)
        expected = [(Query([term]), totals[term]) for term in sorted(totals) if totals[term]]
        total_before = [workload.total() for workload in workloads]
        merged = QueryWorkload.merge_all(workloads)
        assert list(merged.items()) == expected
        assert merged.distinct() == [query for query, _ in expected]
        assert total_before == [workload.total() for workload in workloads]

    def test_copy_is_independent(self):
        original = QueryWorkload([Query(["a"])])
        duplicate = original.copy()
        duplicate.add(Query(["b"]))
        assert Query(["b"]) not in original

    def test_remove_fraction_preserves_volume(self):
        workload = QueryWorkload()
        workload.add(Query(["a"]), 6)
        workload.add(Query(["b"]), 4)
        removed = workload.remove_fraction(0.5)
        assert removed.total() == 5
        assert workload.total() == 5

    def test_remove_fraction_all_and_none(self):
        workload = QueryWorkload([Query(["a"]), Query(["b"])])
        assert workload.remove_fraction(0.0).total() == 0
        assert workload.total() == 2
        removed = workload.remove_fraction(1.0)
        assert removed.total() == 2
        assert workload.total() == 0

    def test_as_frequency_dict_sums_to_one(self):
        workload = QueryWorkload()
        workload.add(Query(["a"]), 2)
        workload.add(Query(["b"]), 3)
        assert sum(workload.as_frequency_dict().values()) == pytest.approx(1.0)

    def test_distinct_is_deterministic(self):
        workload = QueryWorkload([Query(["b"]), Query(["a"])])
        assert workload.distinct() == [Query(["a"]), Query(["b"])]

    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(min_value=1, max_value=5)),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_remove_fraction_conserves_total_volume(self, entries, fraction):
        workload = QueryWorkload()
        for term, count in entries:
            workload.add(Query([term]), count)
        total_before = workload.total()
        removed = workload.remove_fraction(fraction)
        assert removed.total() + workload.total() == total_before
        assert removed.total() == int(round(fraction * total_before))
