"""Attribute model.

The paper adopts a generic data model: every data item is described by a set
of *attributes* (e.g. keywords for text documents) and queries are themselves
sets of attributes.  This module provides the small amount of machinery needed
to work with attributes consistently across the library:

* :func:`normalize_attribute` — canonical form of a single attribute,
* :class:`AttributeSet` — an immutable, hashable set of attributes,
* :class:`Vocabulary` — a named universe of attributes with stable integer
  identifiers, used by the synthetic dataset generators and by the inverted
  index for compact storage.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from typing import Dict, List, Optional, Tuple

from repro.errors import DatasetError

__all__ = ["normalize_attribute", "AttributeSet", "Vocabulary"]


def normalize_attribute(attribute: str) -> str:
    """Return the canonical form of a single attribute.

    Attributes are case-insensitive keywords with surrounding whitespace
    stripped.  An empty attribute is rejected because subset matching against
    the empty string is never meaningful.

    >>> normalize_attribute("  Databases ")
    'databases'
    """
    if not isinstance(attribute, str):
        raise TypeError(f"attribute must be a string, got {type(attribute).__name__}")
    normalized = attribute.strip().lower()
    if not normalized:
        raise ValueError("attribute must not be empty or whitespace")
    return normalized


class AttributeSet(frozenset):
    """An immutable, canonicalised set of attributes.

    ``AttributeSet`` is the shared representation for both document
    descriptions and queries.  It *is* the ``frozenset`` of its canonical
    attributes (a subclass with no per-instance storage of its own), so a
    document holds one object for its keywords, and the inverted index and
    the subset test run on the set directly.  Instances are hashable so they
    can be used as dictionary keys (e.g. to count query occurrences in a
    workload).

    On top of ``frozenset`` it normalises: the constructor and ``in``
    canonicalise through :func:`normalize_attribute`, iteration is sorted,
    and :meth:`intersection` and :meth:`union` return an ``AttributeSet``.
    Equality is ``frozenset`` equality, so an ``AttributeSet`` also equals a
    plain ``set`` or ``frozenset`` of the same canonical strings.

    >>> a = AttributeSet(["p2p", "Clustering"])
    >>> b = AttributeSet(["clustering", "p2p"])
    >>> a == b
    True
    >>> a == frozenset({"clustering", "p2p"})
    True
    >>> AttributeSet(["p2p"]).issubset(a)
    True
    """

    __slots__ = ()

    def __new__(cls, attributes: Iterable[str]) -> "AttributeSet":
        return super().__new__(cls, (normalize_attribute(attribute) for attribute in attributes))

    @property
    def attributes(self) -> "AttributeSet":
        """The canonical attributes: the set itself."""
        return self

    def intersection(self, other: Iterable[str]) -> "AttributeSet":
        """Return the attributes shared with *other*."""
        return frozenset.__new__(AttributeSet, frozenset.intersection(self, other))

    def union(self, other: Iterable[str]) -> "AttributeSet":
        """Return the attributes of either set."""
        return frozenset.__new__(AttributeSet, frozenset.union(self, other))

    def __contains__(self, attribute: str) -> bool:
        return frozenset.__contains__(self, normalize_attribute(attribute))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(frozenset.__iter__(self)))

    def __deepcopy__(self, memo: Dict[int, object]) -> "AttributeSet":
        # Immutable and made of strings: a deep copy is the set itself.
        return self

    def __repr__(self) -> str:
        inner = ", ".join(repr(attribute) for attribute in self)
        return f"AttributeSet({{{inner}}})"


class Vocabulary:
    """A universe of attributes with stable integer identifiers.

    The synthetic corpus generators draw document terms from per-category
    vocabularies; the inverted index and the recall matrices use the integer
    identifiers for compact, deterministic storage.

    Terms keep the order in which they were added, which the generators use to
    encode Zipfian rank (rank 0 is the most frequent term).
    """

    def __init__(self, terms: Optional[Iterable[str]] = None, *, name: str = "vocabulary") -> None:
        self.name = name
        self._term_to_id: Dict[str, int] = {}
        self._terms: List[str] = []
        if terms is not None:
            for term in terms:
                self.add(term)

    def add(self, term: str) -> int:
        """Add *term* (idempotently) and return its integer identifier."""
        canonical = normalize_attribute(term)
        existing = self._term_to_id.get(canonical)
        if existing is not None:
            return existing
        term_id = len(self._terms)
        self._term_to_id[canonical] = term_id
        self._terms.append(canonical)
        return term_id

    def id_of(self, term: str) -> int:
        """Return the identifier of *term*, raising :class:`DatasetError` if absent."""
        canonical = normalize_attribute(term)
        try:
            return self._term_to_id[canonical]
        except KeyError:
            raise DatasetError(f"term {term!r} is not in vocabulary {self.name!r}") from None

    def term_of(self, term_id: int) -> str:
        """Return the term with identifier *term_id*."""
        try:
            return self._terms[term_id]
        except IndexError:
            raise DatasetError(
                f"term id {term_id} is out of range for vocabulary {self.name!r}"
            ) from None

    def __contains__(self, term: str) -> bool:
        return normalize_attribute(term) in self._term_to_id

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[str]:
        return iter(self._terms)

    def terms(self) -> Tuple[str, ...]:
        """All terms in insertion (rank) order."""
        return tuple(self._terms)

    def merge(self, other: "Vocabulary") -> "Vocabulary":
        """Return a new vocabulary containing the terms of both vocabularies."""
        merged = Vocabulary(name=f"{self.name}+{other.name}")
        for term in self._terms:
            merged.add(term)
        for term in other._terms:
            merged.add(term)
        return merged

    @classmethod
    def from_frequency_table(cls, frequencies: Mapping[str, int], *, name: str = "vocabulary") -> "Vocabulary":
        """Build a vocabulary ordered by decreasing frequency.

        This mirrors the paper's preprocessing step where the corpus words are
        "sorted by frequency of appearance".
        """
        ordered = sorted(frequencies.items(), key=lambda item: (-item[1], item[0]))
        return cls((term for term, _count in ordered), name=name)

    def __repr__(self) -> str:
        return f"Vocabulary(name={self.name!r}, size={len(self)})"
