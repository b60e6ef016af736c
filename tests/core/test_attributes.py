"""Tests for the attribute model (normalisation, AttributeSet, Vocabulary)."""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core.attributes import AttributeSet, Vocabulary, normalize_attribute
from repro.errors import DatasetError


class TestNormalizeAttribute:
    def test_lowercases_and_strips(self):
        assert normalize_attribute("  Databases ") == "databases"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            normalize_attribute("   ")

    def test_rejects_non_string(self):
        with pytest.raises(TypeError):
            normalize_attribute(42)  # type: ignore[arg-type]


class TestAttributeSet:
    def test_equality_is_order_insensitive(self):
        assert AttributeSet(["p2p", "Clustering"]) == AttributeSet(["clustering", "p2p"])

    def test_hashable_and_usable_as_dict_key(self):
        counts = {AttributeSet(["a", "b"]): 1}
        counts[AttributeSet(["b", "a"])] = counts.get(AttributeSet(["b", "a"]), 0) + 1
        assert counts[AttributeSet(["a", "b"])] == 2

    def test_subset_semantics(self):
        small = AttributeSet(["p2p"])
        large = AttributeSet(["p2p", "overlay"])
        assert small.issubset(large)
        assert not large.issubset(small)

    def test_contains_normalises(self):
        attributes = AttributeSet(["Music"])
        assert "music" in attributes
        assert " MUSIC " in attributes

    def test_intersection_and_union(self):
        left = AttributeSet(["a", "b"])
        right = AttributeSet(["b", "c"])
        assert set(left.intersection(right)) == {"b"}
        assert set(left.union(right)) == {"a", "b", "c"}

    def test_iteration_is_sorted(self):
        assert list(AttributeSet(["b", "a", "c"])) == ["a", "b", "c"]

    def test_duplicates_collapse(self):
        assert len(AttributeSet(["x", "X", " x "])) == 1

    @given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=4), min_size=1, max_size=8))
    def test_subset_of_union_property(self, terms):
        base = AttributeSet(terms)
        extended = base.union(AttributeSet(["extra"]))
        assert base.issubset(extended)
        assert base.intersection(extended) == base

    def test_intersection_and_union_return_attribute_sets(self):
        left = AttributeSet(["a", "b"])
        right = AttributeSet(["b", "c"])
        assert type(left.intersection(right)) is AttributeSet
        assert type(left.union(right)) is AttributeSet
        assert repr(left.union(right)) == "AttributeSet({'a', 'b', 'c'})"

    def test_attributes_is_the_set_itself(self):
        attributes = AttributeSet(["Music", "rock"])
        assert attributes.attributes is attributes

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        attributes = AttributeSet(["p2p", "Clustering", "overlay"])
        restored = pickle.loads(pickle.dumps(attributes, protocol=protocol))
        assert type(restored) is AttributeSet
        assert restored == attributes and hash(restored) == hash(attributes)
        assert list(restored) == ["clustering", "overlay", "p2p"]

    def test_deepcopy_round_trip(self):
        attributes = AttributeSet(["b", "a"])
        holder = {"attributes": attributes}
        copied = copy.deepcopy(holder)["attributes"]
        assert type(copied) is AttributeSet
        assert copied == attributes and list(copied) == ["a", "b"]

    def test_equals_a_plain_frozenset_of_canonical_strings(self):
        # The documented widening: an AttributeSet is the frozenset of its
        # canonical attributes, so it equals a plain set of the same strings.
        attributes = AttributeSet(["P2P", " Overlay"])
        assert attributes == frozenset({"p2p", "overlay"})
        assert attributes == {"p2p", "overlay"}
        assert hash(attributes) == hash(frozenset({"p2p", "overlay"}))
        assert attributes != frozenset({"P2P", " Overlay"})


class TestVocabulary:
    def test_add_is_idempotent(self):
        vocabulary = Vocabulary()
        first = vocabulary.add("term")
        second = vocabulary.add("Term")
        assert first == second
        assert len(vocabulary) == 1

    def test_id_roundtrip(self):
        vocabulary = Vocabulary(["alpha", "beta"])
        assert vocabulary.term_of(vocabulary.id_of("beta")) == "beta"

    def test_unknown_term_raises(self):
        vocabulary = Vocabulary(["alpha"])
        with pytest.raises(DatasetError):
            vocabulary.id_of("missing")
        with pytest.raises(DatasetError):
            vocabulary.term_of(99)

    def test_preserves_insertion_order(self):
        vocabulary = Vocabulary(["zeta", "alpha"])
        assert vocabulary.terms() == ("zeta", "alpha")

    def test_from_frequency_table_orders_by_frequency(self):
        vocabulary = Vocabulary.from_frequency_table({"rare": 1, "common": 10, "mid": 5})
        assert vocabulary.terms() == ("common", "mid", "rare")

    def test_merge_keeps_both(self):
        left = Vocabulary(["a"], name="left")
        right = Vocabulary(["b"], name="right")
        merged = left.merge(right)
        assert "a" in merged and "b" in merged
        assert len(merged) == 2
