"""Tests for the multi-query optimisation engine (Section 4.3)."""

import numpy as np
import pytest

from repro import LazyLSH, MultiQueryEngine
from repro.errors import DimensionalityMismatchError, InvalidParameterError

P_VALUES = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@pytest.fixture(scope="module")
def engine(built_index) -> MultiQueryEngine:
    return MultiQueryEngine(built_index)


class TestConstruction:
    def test_requires_built_index(self, small_config):
        with pytest.raises(InvalidParameterError):
            MultiQueryEngine(LazyLSH(small_config))


class TestBatchedKnn:
    def test_all_metrics_answered(self, engine, small_split):
        batch = engine.knn(small_split.queries[0], 5, metrics=P_VALUES)
        assert sorted(batch.metrics) == sorted(P_VALUES)
        for p in P_VALUES:
            result = batch[p]
            assert result.ids.shape == (5,)
            assert result.p == p

    def test_results_match_individual_queries(self, engine, built_index, small_split):
        # Sharing I/O must not change the answers.
        query = small_split.queries[1]
        batch = engine.knn(query, 5, metrics=P_VALUES)
        for p in P_VALUES:
            individual = built_index.knn(query, 5, p=p)
            np.testing.assert_array_equal(batch[p].ids, individual.ids)
            np.testing.assert_allclose(batch[p].distances, individual.distances)

    def test_batch_io_close_to_single_smallest_p(self, engine, built_index, small_split):
        # Figure 12: the batch's total I/O is close to the single l0.5
        # query's I/O — nowhere near six separate queries.
        query = small_split.queries[2]
        batch = engine.knn(query, 5, metrics=P_VALUES)
        single = built_index.knn(query, 5, p=0.5)
        separate = sum(built_index.knn(query, 5, p=p).io.total for p in P_VALUES)
        assert batch.io.total < separate
        assert batch.io.total <= single.io.total * 2.0

    def test_total_is_sum_of_marginals(self, engine, small_split):
        batch = engine.knn(small_split.queries[0], 5, metrics=P_VALUES)
        assert batch.io.sequential == sum(
            batch[p].io.sequential for p in P_VALUES
        )
        assert batch.io.random == sum(batch[p].io.random for p in P_VALUES)

    def test_first_metric_bears_most_io(self, engine, small_split):
        batch = engine.knn(small_split.queries[3], 5, metrics=P_VALUES)
        first = batch[0.5].io.sequential
        rest = sum(batch[p].io.sequential for p in P_VALUES[1:])
        assert first > rest

    def test_duplicate_and_unsorted_metrics_normalised(self, engine, small_split):
        batch = engine.knn(
            small_split.queries[0], 5, metrics=[1.0, 0.5, 1.0, 0.5]
        )
        assert batch.metrics == [0.5, 1.0]

    def test_empty_metrics_rejected(self, engine, small_split):
        with pytest.raises(InvalidParameterError):
            engine.knn(small_split.queries[0], 5, metrics=[])

    @pytest.mark.parametrize("mode", ["flat", "scalar"])
    def test_query_validated(self, engine, small_split, mode):
        query = small_split.queries[0]
        for bad in (
            np.where(np.arange(query.size) == 3, np.nan, query),
            np.where(np.arange(query.size) == 3, np.inf, query),
            small_split.queries[:2],
        ):
            with pytest.raises(InvalidParameterError):
                engine.knn(bad, 5, metrics=P_VALUES, engine=mode)
        with pytest.raises(DimensionalityMismatchError):
            engine.knn(query[:-1], 5, metrics=P_VALUES, engine=mode)

    def test_unsupported_metric_rejected_upfront(self, engine, small_split):
        from repro.errors import UnsupportedMetricError

        with pytest.raises(UnsupportedMetricError):
            engine.knn(small_split.queries[0], 5, metrics=[0.5, 0.2])

    def test_random_io_not_double_charged(self, engine, built_index, small_split):
        # Candidates shared across metrics are fetched once.
        query = small_split.queries[1]
        batch = engine.knn(query, 5, metrics=P_VALUES)
        separate_random = sum(
            built_index.knn(query, 5, p=p).io.random for p in P_VALUES
        )
        assert batch.io.random < separate_random
