"""Tests for Zipf weights and the synthetic category vocabularies."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.datasets.vocabulary import CategoryVocabularies, zipf_weights
from repro.errors import DatasetError


class TestZipfWeights:
    def test_weights_sum_to_one(self):
        assert sum(zipf_weights(50, 1.0)) == pytest.approx(1.0)

    def test_weights_are_decreasing(self):
        weights = zipf_weights(20, 1.2)
        assert all(earlier >= later for earlier, later in zip(weights, weights[1:]))

    def test_zero_exponent_is_uniform(self):
        weights = zipf_weights(10, 0.0)
        assert all(weight == pytest.approx(0.1) for weight in weights)

    def test_validation(self):
        with pytest.raises(DatasetError):
            zipf_weights(0)
        with pytest.raises(DatasetError):
            zipf_weights(10, -1.0)

    @given(st.integers(min_value=1, max_value=200), st.floats(min_value=0.0, max_value=3.0))
    def test_normalisation_property(self, count, exponent):
        weights = zipf_weights(count, exponent)
        assert len(weights) == count
        assert sum(weights) == pytest.approx(1.0)


class TestCategoryVocabularies:
    def _vocabularies(self, **kwargs):
        defaults = dict(category_size=10, common_size=3, zipf_exponent=1.0)
        defaults.update(kwargs)
        return CategoryVocabularies(["music", "movies"], **defaults)

    def test_categories_have_disjoint_exclusive_terms(self):
        vocabularies = self._vocabularies()
        music = set(vocabularies.category_terms("music"))
        movies = set(vocabularies.category_terms("movies"))
        assert not music & movies

    def test_vocabulary_includes_common_pool(self):
        vocabularies = self._vocabularies()
        vocabulary = vocabularies.vocabulary("music")
        assert len(vocabulary) == 13

    def test_full_vocabulary_size(self):
        vocabularies = self._vocabularies()
        assert len(vocabularies.full_vocabulary()) == 2 * 10 + 3

    def test_category_of_term(self):
        vocabularies = self._vocabularies()
        term = vocabularies.category_terms("music")[0]
        assert vocabularies.category_of_term(term) == "music"
        assert vocabularies.category_of_term(vocabularies.common_terms()[0]) is None
        assert vocabularies.category_of_term("unknown") is None

    def test_sampling_respects_category(self):
        vocabularies = self._vocabularies()
        rng = random.Random(1)
        for _attempt in range(20):
            term = vocabularies.sample_category_term("music", rng)
            assert vocabularies.category_of_term(term) == "music"

    def test_sampling_common_requires_pool(self):
        vocabularies = self._vocabularies(common_size=0)
        with pytest.raises(DatasetError):
            vocabularies.sample_common_term(random.Random(1))

    def test_zipf_sampling_is_skewed(self):
        vocabularies = self._vocabularies(category_size=50, zipf_exponent=1.5)
        rng = random.Random(3)
        samples = [vocabularies.sample_category_term("music", rng) for _ in range(500)]
        top_term = vocabularies.category_terms("music")[0]
        bottom_term = vocabularies.category_terms("music")[-1]
        assert samples.count(top_term) > samples.count(bottom_term)

    @pytest.mark.parametrize("seed", [0, 1, 7, 11, 2024])
    @pytest.mark.parametrize("pool", ["category", "common"])
    def test_draws_match_random_choices(self, seed, pool):
        """Draw for draw, and generator state for generator state."""
        vocabularies = self._vocabularies(category_size=60, common_size=7, zipf_exponent=1.1)
        if pool == "category":
            terms = vocabularies.category_terms("movies")
            weights = zipf_weights(60, 1.1)
            draw = lambda rng: vocabularies.sample_category_term("movies", rng)  # noqa: E731
        else:
            terms = vocabularies.common_terms()
            weights = zipf_weights(7, 1.1)
            draw = vocabularies.sample_common_term
        sampler, reference = random.Random(seed), random.Random(seed)
        for _draw in range(300):
            assert draw(sampler) == reference.choices(terms, weights=weights, k=1)[0]
        assert sampler.getstate() == reference.getstate()

    def test_validation(self):
        with pytest.raises(DatasetError):
            CategoryVocabularies([])
        with pytest.raises(DatasetError):
            CategoryVocabularies(["a", "a"])
        with pytest.raises(DatasetError):
            CategoryVocabularies(["a"], category_size=0)
        with pytest.raises(DatasetError):
            CategoryVocabularies(["a"], common_size=-1)
        with pytest.raises(DatasetError):
            self._vocabularies().category_terms("sports")
        with pytest.raises(DatasetError):
            self._vocabularies().sample_category_term("sports", random.Random(1))
