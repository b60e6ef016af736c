"""Synthetic categorised corpus generator.

Substitutes for the paper's preprocessed Newsgroup articles (see DESIGN.md):
documents are bags of keywords drawn from their category's Zipfian
vocabulary, optionally mixed with a few terms from a shared pool, and queries
are single random terms drawn "from the texts" of a target category — the
same construction the paper uses, applied to the synthetic vocabularies.
All randomness flows through an explicit seed so datasets are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.documents import Document
from repro.core.queries import Query, QueryWorkload
from repro.datasets.vocabulary import CategoryVocabularies
from repro.errors import DatasetError

__all__ = ["CorpusConfig", "CorpusGenerator"]


@dataclass(frozen=True)
class CorpusConfig:
    """Parameters of the synthetic corpus.

    Attributes
    ----------
    num_categories:
        Number of document categories (the paper uses 10).
    category_vocabulary_size:
        Category-exclusive terms per category.
    common_vocabulary_size:
        Terms shared across categories (0 keeps categories disjoint).
    terms_per_document:
        Distinct category terms per document.
    common_terms_per_document:
        Shared-pool terms per document (ignored when the shared pool is empty).
    zipf_exponent:
        Skew of the term frequency distribution.
    """

    num_categories: int = 10
    category_vocabulary_size: int = 60
    common_vocabulary_size: int = 0
    terms_per_document: int = 5
    common_terms_per_document: int = 0
    zipf_exponent: float = 1.0

    def category_names(self) -> List[str]:
        """The generated category names, ``cat00`` ... ``cat{n-1}``."""
        return [f"cat{index:02d}" for index in range(self.num_categories)]


class CorpusGenerator:
    """Generates documents, queries and workloads for the synthetic corpus."""

    def __init__(self, config: Optional[CorpusConfig] = None, *, seed: int = 0) -> None:
        self.config = config if config is not None else CorpusConfig()
        if self.config.num_categories <= 0:
            raise DatasetError("num_categories must be positive")
        if self.config.terms_per_document <= 0:
            raise DatasetError("terms_per_document must be positive")
        if self.config.terms_per_document > self.config.category_vocabulary_size:
            raise DatasetError(
                "terms_per_document cannot exceed category_vocabulary_size"
            )
        self.rng = random.Random(seed)
        self.vocabularies = CategoryVocabularies(
            self.config.category_names(),
            category_size=self.config.category_vocabulary_size,
            common_size=self.config.common_vocabulary_size,
            zipf_exponent=self.config.zipf_exponent,
        )
        self._doc_counter = 0
        self._queries: Dict[str, Query] = {}

    # -- categories ------------------------------------------------------------

    @property
    def categories(self) -> List[str]:
        """The category names."""
        return list(self.vocabularies.categories)

    def random_category(self, rng: Optional[random.Random] = None) -> str:
        """A uniformly random category (used by the paper's third scenario)."""
        rng = rng if rng is not None else self.rng
        return rng.choice(self.categories)

    # -- documents --------------------------------------------------------------

    def generate_document(
        self, category: str, *, rng: Optional[random.Random] = None
    ) -> Document:
        """Generate one document of *category*.

        The document's terms are ``terms_per_document`` distinct Zipf-sampled
        category terms plus (optionally) a few shared-pool terms.
        """
        rng = rng if rng is not None else self.rng
        terms = set()
        while len(terms) < self.config.terms_per_document:
            terms.add(self.vocabularies.sample_category_term(category, rng))
        if self.config.common_vocabulary_size and self.config.common_terms_per_document:
            added = 0
            while added < self.config.common_terms_per_document:
                term = self.vocabularies.sample_common_term(rng)
                if term not in terms:
                    terms.add(term)
                    added += 1
        self._doc_counter += 1
        return Document(sorted(terms), doc_id=f"doc{self._doc_counter:06d}", category=category)

    def generate_documents(
        self, category: str, count: int, *, rng: Optional[random.Random] = None
    ) -> List[Document]:
        """Generate *count* documents of *category*."""
        if count < 0:
            raise DatasetError(f"count must be non-negative, got {count}")
        return [self.generate_document(category, rng=rng) for _index in range(count)]

    def generate_mixed_documents(
        self, count: int, *, rng: Optional[random.Random] = None
    ) -> List[Document]:
        """Generate *count* documents whose categories are chosen uniformly at random."""
        rng = rng if rng is not None else self.rng
        return [
            self.generate_document(self.random_category(rng), rng=rng) for _index in range(count)
        ]

    # -- queries -------------------------------------------------------------------

    def generate_query(
        self, category: str, *, rng: Optional[random.Random] = None
    ) -> Query:
        """Generate one query: a single random word from *category*'s texts.

        Mirrors the paper's query generation ("choosing a random word from the
        texts"): the term is Zipf-sampled from the category vocabulary, i.e.
        with the same skew with which it appears in documents.

        Queries are value objects, so every draw of a term returns the same
        :class:`Query`, kept per term on the generator: the workloads of a
        scenario and of the drift applied to it share one object per distinct
        query instead of holding one per occurrence.
        """
        rng = rng if rng is not None else self.rng
        term = self.vocabularies.sample_category_term(category, rng)
        query = self._queries.get(term)
        if query is None:
            query = self._queries[term] = Query.single_term(term)
        return query

    def generate_workload(
        self,
        category: str,
        num_queries: int,
        *,
        rng: Optional[random.Random] = None,
    ) -> QueryWorkload:
        """Generate a local workload of *num_queries* single-term queries about *category*."""
        if num_queries < 0:
            raise DatasetError(f"num_queries must be non-negative, got {num_queries}")
        rng = rng if rng is not None else self.rng
        workload = QueryWorkload()
        for _index in range(num_queries):
            workload.add(self.generate_query(category, rng=rng))
        return workload

    def generate_mixed_workload(
        self, num_queries: int, *, rng: Optional[random.Random] = None
    ) -> QueryWorkload:
        """A workload whose queries target uniformly random categories (scenario 3)."""
        rng = rng if rng is not None else self.rng
        workload = QueryWorkload()
        for _index in range(num_queries):
            workload.add(self.generate_query(self.random_category(rng), rng=rng))
        return workload

    def __repr__(self) -> str:
        return f"CorpusGenerator(categories={self.config.num_categories})"
