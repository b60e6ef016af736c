"""Inverted index over a peer's documents.

``result(q, p)`` has to be evaluated for every (query, peer) pair when
building recall matrices, so a linear scan over every document for every
query is the dominant cost at experiment scale (200 peers x thousands of
query occurrences).  :class:`InvertedIndex` maps each attribute to a posting
*bitmask*: bit ``i`` of an attribute's ``int`` is set when the ``i``-th
indexed document contains the attribute.  A query's matches are the AND of
the masks of its attributes, and ``result(q, p)`` is that mask's popcount.

A mask costs one bit per indexed document, and the whole index is one dict of
``str`` to ``int``, which the cyclic garbage collector does not track (a
``set`` of positions per attribute would be one tracked container per
posting).  Masks stay short: a peer holds a handful of documents at every
experiment scale, and content updates rebuild the index over the new
documents instead of appending to it.

The index returns exactly the same counts as the reference scan in
:mod:`repro.core.matching`; the property-based tests assert this equivalence.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import Dict, List, Optional

from repro.core.documents import Document
from repro.core.queries import Query

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Attribute -> posting-bitmask index over a collection of documents."""

    def __init__(self, documents: Optional[Iterable[Document]] = None) -> None:
        self._postings: Dict[str, int] = {}
        self._documents: List[Document] = []
        if documents is not None:
            for document in documents:
                self.add(document)

    def add(self, document: Document) -> None:
        """Index *document*: OR its bit into the mask of each of its attributes."""
        bit = 1 << len(self._documents)
        self._documents.append(document)
        postings = self._postings
        # The frozenset's own order: the masks do not depend on it, and
        # ``AttributeSet`` iteration would sort.
        for attribute in frozenset.__iter__(document.attributes):
            postings[attribute] = postings.get(attribute, 0) | bit

    def rebuild(self, documents: Iterable[Document]) -> None:
        """Discard the current contents and index *documents* from scratch.

        Content updates replace a peer's documents wholesale, so rebuilding is
        the natural maintenance operation.
        """
        self._postings = {}
        self._documents = []
        for document in documents:
            self.add(document)

    def result_count(self, query: Query) -> int:
        """``result(q, p)`` evaluated against the indexed documents."""
        return self._matching_mask(query).bit_count()

    def matching_documents(self, query: Query) -> List[Document]:
        """Return the matched documents in indexing order."""
        mask = self._matching_mask(query)
        documents = self._documents
        matched = []
        while mask:
            lowest = mask & -mask
            matched.append(documents[lowest.bit_length() - 1])
            mask ^= lowest
        return matched

    def _matching_mask(self, query: Query) -> int:
        # An empty query matches every document (the empty set is a subset of
        # any attribute set), mirroring the reference scan; an attribute no
        # document holds matches none.
        mask = (1 << len(self._documents)) - 1
        postings = self._postings
        for attribute in frozenset.__iter__(query.attributes):
            mask &= postings.get(attribute, 0)
            if not mask:
                break
        return mask

    def posting_sizes(self) -> Dict[str, int]:
        """Mapping of every indexed attribute to its posting-list length.

        For a single-attribute query ``result(q, p)`` *is* the posting size,
        so bulk recall-table construction (the factored recall path) reads
        this dict once per peer instead of intersecting postings per
        (query, peer) pair.
        """
        return {attribute: mask.bit_count() for attribute, mask in self._postings.items()}

    def vocabulary(self) -> List[str]:
        """All indexed attributes, sorted."""
        return sorted(self._postings)

    def __len__(self) -> int:
        """Number of indexed documents."""
        return len(self._documents)

    def __repr__(self) -> str:
        return f"InvertedIndex(documents={len(self._documents)}, attributes={len(self._postings)})"
