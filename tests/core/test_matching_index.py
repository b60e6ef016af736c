"""Matching semantics and inverted-index equivalence with the reference scan."""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.documents import Document
from repro.core.index import InvertedIndex
from repro.core.matching import matches, matching_documents, result_count
from repro.core.queries import Query
from repro.peers.peer import Peer


def _documents():
    return [
        Document(["music", "rock"], doc_id="1"),
        Document(["music", "jazz"], doc_id="2"),
        Document(["movies", "drama", "music"], doc_id="3"),
        Document(["sports"], doc_id="4"),
    ]


class TestReferenceMatching:
    def test_matches_subset_rule(self):
        document = Document(["music", "rock"])
        assert matches(Query(["music"]), document)
        assert matches(Query(["music", "rock"]), document)
        assert not matches(Query(["music", "jazz"]), document)

    def test_result_count(self):
        assert result_count(Query(["music"]), _documents()) == 3
        assert result_count(Query(["music", "jazz"]), _documents()) == 1
        assert result_count(Query(["unknown"]), _documents()) == 0

    def test_matching_documents_preserve_order(self):
        found = matching_documents(Query(["music"]), _documents())
        assert [doc.doc_id for doc in found] == ["1", "2", "3"]

    def test_empty_query_matches_everything(self):
        assert result_count(Query([]), _documents()) == 4


class TestInvertedIndex:
    def test_counts_match_reference(self):
        index = InvertedIndex(_documents())
        for attributes in (["music"], ["music", "jazz"], ["movies"], ["unknown"], []):
            query = Query(attributes)
            assert index.result_count(query) == result_count(query, _documents())

    def test_matching_documents_match_reference(self):
        index = InvertedIndex(_documents())
        query = Query(["music"])
        assert index.matching_documents(query) == matching_documents(query, _documents())

    def test_add_updates_counts(self):
        index = InvertedIndex(_documents())
        index.add(Document(["music", "metal"], doc_id="5"))
        assert index.result_count(Query(["music"])) == 4
        assert len(index) == 5

    def test_rebuild_replaces_content(self):
        index = InvertedIndex(_documents())
        index.rebuild([Document(["fresh"])])
        assert index.result_count(Query(["music"])) == 0
        assert index.result_count(Query(["fresh"])) == 1
        assert len(index) == 1

    def test_vocabulary_lists_attributes(self):
        index = InvertedIndex([Document(["b", "a"])])
        assert index.vocabulary() == ["a", "b"]


# Strategy: documents over a small alphabet so that collisions are frequent.
_terms = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_document_lists = st.lists(
    st.lists(_terms, min_size=1, max_size=4).map(lambda terms: Document(terms)),
    min_size=0,
    max_size=12,
)
_queries = st.lists(_terms, min_size=0, max_size=3).map(Query)


class TestIndexEquivalenceProperty:
    @settings(max_examples=60, deadline=None)
    @given(documents=_document_lists, query=_queries)
    def test_index_equals_reference_scan(self, documents, query):
        index = InvertedIndex(documents)
        assert index.result_count(query) == result_count(query, documents)


# Documents over five terms; queries may also name terms no document holds.
_indexed_terms = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"])
_many_documents = st.lists(
    st.lists(_indexed_terms, min_size=1, max_size=4).map(Document), max_size=150
)
_probe_terms = st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "omega"])
_probe_queries = st.lists(
    st.lists(_probe_terms, max_size=3).map(Query), min_size=1, max_size=6
)
#: 130 documents: the posting masks grow past 64 bits.
_LONG = [Document([term, "alpha"]) for term in ["beta", "gamma", "delta", "epsilon", "alpha"] * 26]


def assert_index_equals_reference(index, documents, queries):
    """Every index answer equals the reference scan over *documents*."""
    assert len(index) == len(documents)
    for query in queries:
        assert index.result_count(query) == result_count(query, documents)
        matched = index.matching_documents(query)
        assert [id(document) for document in matched] == [
            id(document) for document in matching_documents(query, documents)
        ]
    attributes = {attribute for document in documents for attribute in document.attributes}
    assert index.vocabulary() == sorted(attributes)
    assert index.posting_sizes() == {
        attribute: result_count(Query([attribute]), documents) for attribute in attributes
    }


class TestBitmaskIndexProperty:
    @settings(max_examples=40, deadline=None)
    @given(first=_many_documents, second=_many_documents, queries=_probe_queries)
    @example(first=_LONG, second=_LONG[:70], queries=[Query([]), Query(["alpha", "epsilon"])])
    def test_add_and_rebuild_equal_reference_scan(self, first, second, queries):
        index = InvertedIndex()
        for document in first:
            index.add(document)
        assert_index_equals_reference(index, first, queries)
        index.rebuild(second)
        assert_index_equals_reference(index, second, queries)

    @settings(max_examples=40, deadline=None)
    @given(
        documents=_many_documents,
        replacements=_many_documents,
        fraction=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
        queries=_probe_queries,
    )
    @example(documents=_LONG, replacements=_LONG[:40], fraction=0.5, queries=[Query(["beta"])])
    def test_replace_document_fraction_equals_reference_scan(
        self, documents, replacements, fraction, queries
    ):
        peer = Peer("p", documents=documents)
        peer.replace_document_fraction(fraction, replacements)
        kept = documents[int(round(fraction * len(documents))):]
        assert list(peer.documents) == kept + replacements
        assert_index_equals_reference(peer.index, kept + replacements, queries)
