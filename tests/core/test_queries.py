"""Tests for queries and query workloads (the num(Q)/num(q, Q) bookkeeping)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.core.queries import Query, QueryWorkload
from repro.peers.peer import Peer

#: Every query the cached-order property draws from.
UNIVERSE = [Query([term]) for term in "abcdef"] + [Query(["a", "b"]), Query(["c", "e"])]

queries = st.sampled_from(UNIVERSE)
mutations = st.one_of(
    st.tuples(st.just("add"), queries, st.integers(0, 4)),
    st.tuples(st.just("extend"), st.lists(queries, max_size=4)),
    st.tuples(st.just("remove_fraction"), st.floats(0.0, 1.0)),
    st.tuples(
        st.just("replace_workload_fraction"), st.floats(0.0, 1.0), st.lists(queries, max_size=3)
    ),
    st.tuples(st.just("copy")),
)


def assert_order_is_fresh(workload):
    """``distinct()``, ``items()`` and iteration equal a fresh sort of the held queries."""
    held = sorted(
        (query for query in UNIVERSE if query in workload), key=lambda q: tuple(q.attributes)
    )
    assert workload.distinct() == held
    assert list(workload.items()) == [(query, workload.count(query)) for query in held]
    assert list(workload) == held


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

    @given(st.lists(queries, max_size=6), st.lists(mutations, max_size=12))
    def test_cached_order_follows_every_mutator(self, initial, steps):
        peer = Peer("p", workload=QueryWorkload(initial))
        assert_order_is_fresh(peer.workload)
        for step in steps:
            workload = peer.workload
            if step[0] == "add":
                workload.add(step[1], step[2])
            elif step[0] == "extend":
                workload.extend(step[1])
            elif step[0] == "remove_fraction":
                removed = workload.remove_fraction(step[1])
                assert_order_is_fresh(removed)
            elif step[0] == "replace_workload_fraction":
                peer.replace_workload_fraction(step[1], QueryWorkload(step[2]))
            else:
                # The copy shares the sorted order; mutating it leaves the original's alone.
                peer.replace_workload(workload)
                peer.workload.add(Query(["f"]))
                assert_order_is_fresh(workload)
            assert_order_is_fresh(peer.workload)

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
