"""Synthetic category vocabularies with Zipfian term frequencies.

The paper's corpus is a set of Newsgroup articles in 10 categories,
preprocessed (stop words removed, lemmatised) and with the remaining words
sorted by frequency.  The only properties of that corpus the experiments rely
on are:

* documents are bags of keywords,
* documents of the same category share vocabulary, documents of different
  categories (mostly) do not,
* term frequencies are heavily skewed (Zipf-like).

This module generates per-category vocabularies with exactly those
properties: each category gets ``category_size`` exclusive terms; an optional
shared pool of ``common_size`` terms models stop-word-like overlap between
categories.  Term *ranks* determine their Zipf sampling weight.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Dict, List, Optional, Sequence

from repro.core.attributes import Vocabulary
from repro.errors import DatasetError

__all__ = ["zipf_weights", "CategoryVocabularies"]


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Normalised Zipf weights for ranks ``1..count`` with the given exponent.

    ``weight(rank) ∝ 1 / rank ** exponent``; the returned weights sum to 1.
    """
    if count <= 0:
        raise DatasetError(f"count must be positive, got {count}")
    if exponent < 0:
        raise DatasetError(f"exponent must be non-negative, got {exponent}")
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [value / total for value in raw]


class CategoryVocabularies:
    """Per-category term universes with Zipfian sampling.

    Parameters
    ----------
    categories:
        Category names (e.g. ``["cat00", ..., "cat09"]``).
    category_size:
        Number of category-exclusive terms per category.
    common_size:
        Number of terms shared by every category (0 disables overlap, which
        is what the paper's scenario 1 needs for a zero recall loss at the
        ideal clustering).
    zipf_exponent:
        Skew of the term frequency distribution.
    """

    def __init__(
        self,
        categories: Sequence[str],
        *,
        category_size: int = 60,
        common_size: int = 0,
        zipf_exponent: float = 1.0,
    ) -> None:
        if not categories:
            raise DatasetError("at least one category is required")
        if len(set(categories)) != len(categories):
            raise DatasetError("category names must be unique")
        if category_size <= 0:
            raise DatasetError(f"category_size must be positive, got {category_size}")
        if common_size < 0:
            raise DatasetError(f"common_size must be non-negative, got {common_size}")
        self.categories = list(categories)
        self.category_size = category_size
        self.common_size = common_size
        self.zipf_exponent = zipf_exponent

        self._category_terms: Dict[str, List[str]] = {
            category: [f"{category}_term{rank:04d}" for rank in range(category_size)]
            for category in self.categories
        }
        self._common_terms: List[str] = [f"common_term{rank:04d}" for rank in range(common_size)]
        self._category_weights = zipf_weights(category_size, zipf_exponent)
        self._common_weights = (
            zipf_weights(common_size, zipf_exponent) if common_size else []
        )
        # Cumulative weights, accumulated once per pool exactly as
        # ``random.choices`` would on every call (scenario builds draw
        # hundreds of thousands of terms).
        self._category_cumulative = list(accumulate(self._category_weights))
        self._common_cumulative = list(accumulate(self._common_weights))

    # -- accessors -----------------------------------------------------------

    def category_terms(self, category: str) -> List[str]:
        """The category-exclusive terms of *category*, in rank order."""
        try:
            return list(self._category_terms[category])
        except KeyError:
            raise DatasetError(f"unknown category {category!r}") from None

    def common_terms(self) -> List[str]:
        """The shared (category-independent) terms, in rank order."""
        return list(self._common_terms)

    def vocabulary(self, category: str) -> Vocabulary:
        """A :class:`Vocabulary` with the category terms followed by the common terms."""
        return Vocabulary(
            self.category_terms(category) + self._common_terms, name=category
        )

    def full_vocabulary(self) -> Vocabulary:
        """A :class:`Vocabulary` over every term of every category plus the common pool."""
        terms: List[str] = []
        for category in self.categories:
            terms.extend(self._category_terms[category])
        terms.extend(self._common_terms)
        return Vocabulary(terms, name="full")

    def category_of_term(self, term: str) -> Optional[str]:
        """The category a term belongs to, or ``None`` for common terms / unknown terms."""
        for category in self.categories:
            if term in self._category_terms[category]:
                return category
        return None

    # -- sampling --------------------------------------------------------------

    @staticmethod
    def _draw(terms: List[str], cumulative: List[float], rng: random.Random) -> str:
        """``rng.choices(terms, cum_weights=cumulative)[0]``, step for step.

        The same single ``rng.random()`` call and the same bisection, so the
        draws and the generator's state match ``random.choices`` exactly.
        """
        total = cumulative[-1] + 0.0
        return terms[bisect(cumulative, rng.random() * total, 0, len(terms) - 1)]

    def sample_category_term(self, category: str, rng: random.Random) -> str:
        """Sample one category-exclusive term of *category* with Zipf weights."""
        terms = self._category_terms.get(category)
        if terms is None:
            raise DatasetError(f"unknown category {category!r}")
        return self._draw(terms, self._category_cumulative, rng)

    def sample_common_term(self, rng: random.Random) -> str:
        """Sample one shared term with Zipf weights (requires ``common_size > 0``)."""
        if not self._common_terms:
            raise DatasetError("no common terms were configured")
        return self._draw(self._common_terms, self._common_cumulative, rng)

    def __repr__(self) -> str:
        return (
            f"CategoryVocabularies(categories={len(self.categories)}, "
            f"category_size={self.category_size}, common_size={self.common_size})"
        )
