"""Tests for the unified search API surface (repro.api).

Covers the shared ``SearchRequest``/``SearchResult`` core: request
dispatch on every query path, the versioned wire codec, the deprecation
of legacy positional tuning arguments (which escalate to errors under
``REPRO_STRICT_API=1`` — these tests pass in either mode), the common
result protocol, and the streaming ``IOStats.merge``/``aggregate_io``
aggregation.
"""

import contextlib
import functools
import warnings

import numpy as np
import pytest

from repro import (
    BatchKnnResult,
    IOStats,
    KnnResult,
    MultiQueryEngine,
    MultiQueryResult,
    SearchRequest,
    SearchResult,
    aggregate_io,
    knn_batch,
)
from repro.api import WIRE_VERSION, SearchResultLike, strict_api_enabled
from repro.errors import InvalidParameterError, WireFormatError


@contextlib.contextmanager
def _no_deprecations():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        yield


@contextlib.contextmanager
def _expect_deprecated(match: str):
    """The legacy form warns — or raises when REPRO_STRICT_API=1."""
    if strict_api_enabled():
        with pytest.raises(InvalidParameterError, match=match):
            yield
    else:
        with pytest.warns(DeprecationWarning, match=match):
            yield


class TestSearchRequestValidation:
    def test_rejects_bad_fields(self):
        q = np.zeros(4)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, cap=2)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, radius=0.0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, metrics=())
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, metrics=(0.5,), radius=1.0)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=q, k=5, engine="gpu")

    def test_normalises_metrics_to_floats(self):
        request = SearchRequest(query=np.zeros(4), k=5, metrics=[1, 0.5])
        assert request.metrics == (1.0, 0.5)

    def test_rejects_non_finite_queries(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=[1.0, np.nan, 3.0], k=1)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=[1.0, np.inf], k=1)
        with pytest.raises(InvalidParameterError, match="non-finite"):
            SearchRequest(query=np.array([[-np.inf, 0.0]]), k=1)

    def test_rejects_malformed_queries(self):
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=[], k=1)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=np.zeros((2, 2, 2)), k=1)
        with pytest.raises(InvalidParameterError):
            SearchRequest(query=["a", "b"], k=1)

    def test_rejects_bad_deadline(self):
        q = np.zeros(4)
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            SearchRequest(query=q, k=1, deadline_ms=0)
        with pytest.raises(InvalidParameterError, match="deadline_ms"):
            SearchRequest(query=q, k=1, deadline_ms=-10.0)
        assert SearchRequest(query=q, k=1, deadline_ms=5.0).deadline_ms == 5.0

    def test_rejects_non_hex_request_id(self):
        q = np.zeros(4)
        for bad in ("", "xyz", "dead-beef", "r1"):
            with pytest.raises(InvalidParameterError, match="hex"):
                SearchRequest(query=q, k=1, request_id=bad)
        assert SearchRequest(query=q, k=1, request_id="aB12").request_id


class TestWireCodec:
    def test_round_trip_preserves_every_field(self):
        request = SearchRequest(
            query=[1.0, 2.0, 3.0], k=4, p=0.7, cap=9.0,
            engine="scalar", request_id="c0ffee", deadline_ms=25.0,
        )
        record = request.to_dict()
        assert record["v"] == WIRE_VERSION
        decoded = SearchRequest.from_dict(record)
        np.testing.assert_array_equal(decoded.query, request.query)
        assert decoded.k == 4
        assert decoded.p == 0.7
        assert decoded.cap == 9.0
        assert decoded.engine == "scalar"
        assert decoded.request_id == "c0ffee"
        assert decoded.deadline_ms == 25.0
        assert decoded.to_dict() == record

    def test_round_trip_metrics_and_trace_context(self):
        from repro.obs.trace_context import TraceContext

        ctx = TraceContext.new(sampled=True)
        request = SearchRequest(
            query=np.arange(3.0), k=2, metrics=(1.0, 0.5),
            trace_context=ctx,
        )
        record = request.to_dict()
        assert record["metrics"] == [1.0, 0.5]
        assert "p" not in record  # metrics wins; only one is emitted
        decoded = SearchRequest.from_dict(record)
        assert decoded.metrics == (1.0, 0.5)
        assert decoded.trace_context.trace_id == ctx.trace_id
        assert decoded.trace_context.sampled

    def test_rejects_unknown_keys(self):
        record = {"v": 1, "query": [1.0], "k": 1, "K": 2, "qyery": [1.0]}
        with pytest.raises(WireFormatError, match="unknown request field"):
            SearchRequest.from_dict(record)

    def test_rejects_missing_required_keys(self):
        with pytest.raises(WireFormatError, match="version field"):
            SearchRequest.from_dict({"query": [1.0], "k": 1})
        with pytest.raises(WireFormatError, match="missing required"):
            SearchRequest.from_dict({"v": 1, "k": 1})
        with pytest.raises(WireFormatError, match="missing required"):
            SearchRequest.from_dict({"v": 1, "query": [1.0]})

    def test_rejects_wrong_version_and_shape(self):
        with pytest.raises(WireFormatError, match="unsupported wire version"):
            SearchRequest.from_dict({"v": 2, "query": [1.0], "k": 1})
        with pytest.raises(WireFormatError, match="JSON object"):
            SearchRequest.from_dict([1, 2, 3])
        with pytest.raises(WireFormatError, match="k must be an integer"):
            SearchRequest.from_dict({"v": 1, "query": [1.0], "k": "ten"})
        with pytest.raises(WireFormatError, match="metrics"):
            SearchRequest.from_dict(
                {"v": 1, "query": [1.0], "k": 1, "metrics": "l2"}
            )

    def test_decoded_requests_still_validate_domains(self):
        # Structural codec passes; the constructor's domain checks fire.
        with pytest.raises(InvalidParameterError):
            SearchRequest.from_dict({"v": 1, "query": [np.nan], "k": 1})
        with pytest.raises(InvalidParameterError):
            SearchRequest.from_dict({"v": 1, "query": [1.0], "k": 0})

    def test_wire_format_error_is_a_value_error(self):
        # Client code catching ValueError keeps working.
        with pytest.raises(ValueError):
            SearchRequest.from_dict("not a dict")

    def test_search_result_wire_form_is_versioned(self):
        result = SearchResult(
            ids=np.array([3, 1]), distances=np.array([0.5, 1.5]),
            p=1.0, k=2,
        )
        record = result.to_dict()
        assert record["v"] == WIRE_VERSION
        assert record["ids"] == [3, 1]
        assert record["distances"] == [0.5, 1.5]


class TestRequestDispatch:
    def test_knn_accepts_request(self, built_index, small_split):
        query = small_split.queries[0]
        keyword = built_index.knn(query, 5, p=0.8)
        request = built_index.knn(SearchRequest(query=query, k=5, p=0.8))
        np.testing.assert_array_equal(keyword.ids, request.ids)
        np.testing.assert_array_equal(keyword.distances, request.distances)
        assert keyword.io == request.io

    def test_knn_rejects_request_plus_args(self, built_index, small_split):
        request = SearchRequest(query=small_split.queries[0], k=5)
        with pytest.raises(InvalidParameterError):
            built_index.knn(request, 5)

    def test_multiquery_accepts_request(self, built_index, small_split):
        engine = MultiQueryEngine(built_index)
        query = small_split.queries[0]
        keyword = engine.knn(query, 5, metrics=(0.5, 1.0))
        request = engine.knn(
            SearchRequest(query=query, k=5, metrics=(0.5, 1.0))
        )
        assert keyword.metrics == request.metrics
        for p in keyword.metrics:
            np.testing.assert_array_equal(
                keyword.results[p].ids, request.results[p].ids
            )
        assert keyword.io == request.io

    def test_knn_batch_accepts_matrix_request(self, built_index, small_split):
        queries = small_split.queries[:2]
        keyword = knn_batch(built_index, queries, 5, p=0.8)
        request = knn_batch(
            built_index, SearchRequest(query=queries, k=5, p=0.8)
        )
        for a, b in zip(keyword.results, request.results):
            np.testing.assert_array_equal(a.ids, b.ids)
        assert keyword.io == request.io


def _multiquery(index, request, telemetry):
    result = MultiQueryEngine(index).knn(request, telemetry=telemetry)
    return list(result.results.values())


def _batch(index, request, telemetry):
    return knn_batch(index, request, telemetry=telemetry).results


def _batch_multi(index, request, telemetry):
    rows = knn_batch(index, request, telemetry=telemetry).results
    return [part for row in rows for part in row.results.values()]


_STAMPED_HOSTS = {
    "multiquery.knn": (_multiquery, False, {"metrics": (0.5, 1.0)}),
    "knn_batch": (_batch, True, {"p": 0.8}),
    "knn_batch/metrics": (_batch_multi, True, {"metrics": (0.5, 1.0)}),
}


class TestRequestStamping:
    """Every host honours a request's ``request_id`` and ``deadline_ms``."""

    @staticmethod
    def _request(small_split, batch, knobs, **fields):
        query = small_split.queries[:2] if batch else small_split.queries[0]
        return SearchRequest(query=query, k=5, **fields, **knobs)

    @pytest.mark.parametrize("host", sorted(_STAMPED_HOSTS))
    @pytest.mark.parametrize("engine", ["flat", "scalar"])
    def test_overrun_flags_every_part_and_counts_once(
        self, built_index, small_split, host, engine
    ):
        from repro.obs import Telemetry

        call, batch, knobs = _STAMPED_HOSTS[host]
        telemetry = Telemetry()
        request = self._request(
            small_split, batch, knobs,
            engine=engine, request_id="00ab", deadline_ms=1e-9,
        )
        parts = call(built_index, request, telemetry)
        assert len(parts) >= 2
        assert all(r.request_id == "00ab" for r in parts)
        assert all(r.deadline_exceeded for r in parts)
        where = host.split("/")[0]
        overruns = telemetry.registry.get("lazylsh_deadline_overruns_total")
        assert overruns.value(where=where) == 1
        assert overruns.total() == 1

    @pytest.mark.parametrize("host", sorted(_STAMPED_HOSTS))
    def test_met_deadline_stamps_id_only(self, built_index, small_split, host):
        from repro.obs import Telemetry

        call, batch, knobs = _STAMPED_HOSTS[host]
        telemetry = Telemetry()
        request = self._request(
            small_split, batch, knobs, request_id="beef", deadline_ms=1e9
        )
        parts = call(built_index, request, telemetry)
        assert all(r.request_id == "beef" for r in parts)
        assert not any(r.deadline_exceeded for r in parts)
        overruns = telemetry.registry.get("lazylsh_deadline_overruns_total")
        assert overruns.total() == 0

    @pytest.mark.parametrize("host", sorted(_STAMPED_HOSTS))
    def test_stamping_leaves_answers_unchanged(
        self, built_index, small_split, host
    ):
        call, batch, knobs = _STAMPED_HOSTS[host]
        plain = call(built_index, self._request(small_split, batch, knobs), None)
        stamped = call(
            built_index,
            self._request(
                small_split, batch, knobs, request_id="0f", deadline_ms=1e-9
            ),
            None,
        )
        for a, b in zip(plain, stamped):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)
            assert a.io == b.io
            assert a.request_id is None and not a.deadline_exceeded


class TestDeprecatedPositionals:
    def test_knn_positional_p_warns_and_matches(
        self, built_index, small_split
    ):
        query = small_split.queries[0]
        with _no_deprecations():
            keyword = built_index.knn(query, 5, p=0.8)
        with _expect_deprecated("positionally"):
            legacy = built_index.knn(query, 5, 0.8)
            np.testing.assert_array_equal(legacy.ids, keyword.ids)

    def test_knn_batch_positional_p_warns_and_matches(
        self, built_index, small_split
    ):
        queries = small_split.queries[:2]
        with _no_deprecations():
            keyword = knn_batch(built_index, queries, 5, p=0.8)
        with _expect_deprecated("positionally"):
            legacy = knn_batch(built_index, queries, 5, 0.8)
            for a, b in zip(legacy.results, keyword.results):
                np.testing.assert_array_equal(a.ids, b.ids)

    def test_multiquery_positional_metrics_warns_and_matches(
        self, built_index, small_split
    ):
        engine = MultiQueryEngine(built_index)
        query = small_split.queries[0]
        with _no_deprecations():
            keyword = engine.knn(query, 5, metrics=(0.5, 1.0))
        with _expect_deprecated("positionally"):
            legacy = engine.knn(query, 5, (0.5, 1.0))
            assert legacy.metrics == keyword.metrics

    def test_multiquery_p_values_keyword_warns(
        self, built_index, small_split
    ):
        engine = MultiQueryEngine(built_index)
        with _expect_deprecated("p_values"):
            engine.knn(small_split.queries[0], 5, p_values=(0.5, 1.0))

    def test_strict_mode_escalates_to_error(
        self, built_index, small_split, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STRICT_API", "1")
        assert strict_api_enabled()
        query = small_split.queries[0]
        with pytest.raises(InvalidParameterError, match="REPRO_STRICT_API"):
            built_index.knn(query, 5, 0.8)
        with pytest.raises(InvalidParameterError, match="REPRO_STRICT_API"):
            MultiQueryEngine(built_index).knn(
                query, 5, p_values=(0.5, 1.0)
            )
        # The keyword forms stay valid under strict mode.
        with _no_deprecations():
            built_index.knn(query, 5, p=0.8)

    def test_strict_mode_off_by_default_values(self, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_API", "0")
        assert not strict_api_enabled()
        monkeypatch.delenv("REPRO_STRICT_API")
        assert not strict_api_enabled()

    def test_extra_positionals_are_type_errors(
        self, built_index, small_split
    ):
        query = small_split.queries[0]
        with pytest.raises(TypeError, match="keyword-only"):
            built_index.knn(query, 5, 0.8, "flat")
        with pytest.raises(TypeError, match="keyword-only"):
            knn_batch(built_index, small_split.queries, 5, 0.8, "flat")


#: The five search entry points: how to reach each from the shared
#: index, the knobs it takes as keywords, and the knobs its explicit form
#: needs.  A knob an entry point does not take as a keyword can only
#: reach it inside a SearchRequest.
_ENTRY_POINTS = {
    "LazyLSH.knn": (
        lambda index, svc: index.knn,
        {"p", "engine", "cap", "radius"},
        {},
    ),
    "MultiQueryEngine.knn": (
        lambda index, svc: MultiQueryEngine(index).knn,
        {"metrics", "engine", "cap"},
        {"metrics": (0.5, 1.0)},
    ),
    "knn_batch": (
        lambda index, svc: functools.partial(knn_batch, index),
        {"p", "metrics", "engine", "cap", "radius"},
        {},
    ),
    "ShardedSearchService.search": (
        lambda index, svc: svc.search,
        {"p", "cap", "radius"},
        {},
    ),
    "ShardedSearchService.search_batch": (
        lambda index, svc: svc.search_batch,
        {"p", "cap", "radius"},
        {},
    ),
}

#: Invalid knobs, each rejected the same way by every entry point.
_BAD_KNOBS = {
    "k=0": {"k": 0},
    "cap<k": {"cap": 2.0},
    "radius=0": {"radius": 0.0},
    "radius<0": {"radius": -1.0},
    "unknown engine": {"engine": "gpu"},
    "empty metrics": {"metrics": ()},
}


@pytest.fixture(scope="module")
def one_shard(built_index):
    from repro.serve import ShardedSearchService

    with ShardedSearchService(built_index, n_shards=1) as svc:
        yield svc


class TestEntryPointContract:
    """All five entry points resolve their arguments one way."""

    @pytest.fixture(params=sorted(_ENTRY_POINTS))
    def entry(self, request, built_index, one_shard, small_split):
        make, keywords, required = _ENTRY_POINTS[request.param]
        query = small_split.queries[0]
        if request.param.endswith(("search_batch", "knn_batch")):
            query = small_split.queries[:2]

        fn = make(built_index, one_shard)

        def call(k=3, **knobs):
            knobs = {**required, **knobs}
            if set(knobs) <= keywords:
                return fn(query, k, **knobs)
            return fn(SearchRequest(query=query, k=k, **knobs))

        call.fn = fn
        call.query = query
        call.required = required
        return call

    @pytest.mark.parametrize("case", sorted(_BAD_KNOBS))
    def test_bad_knobs_raise_invalid_parameter(self, entry, case):
        with pytest.raises(InvalidParameterError):
            entry(**_BAD_KNOBS[case])

    def test_missing_k_raises(self, entry):
        with pytest.raises(InvalidParameterError, match="k is required"):
            entry.fn(entry.query, **entry.required)

    def test_request_plus_explicit_k_raises(self, entry):
        request = SearchRequest(query=entry.query, k=3, **entry.required)
        with pytest.raises(InvalidParameterError, match="not both"):
            entry.fn(request, 3)

    def test_request_plus_explicit_knob_raises(self, entry):
        request = SearchRequest(query=entry.query, k=3, **entry.required)
        with pytest.raises(InvalidParameterError, match="not both"):
            entry.fn(request, cap=10.0)

    def test_valid_call_answers(self, entry):
        assert entry() is not None


#: Each legacy form: its entry point, positional tail and keywords.
_LEGACY_FORMS = {
    "LazyLSH.knn positional p": ("LazyLSH.knn", (0.8,), {}),
    "knn_batch positional p": ("knn_batch", (0.8,), {}),
    "MultiQueryEngine.knn positional metrics": (
        "MultiQueryEngine.knn", ((0.5, 1.0),), {},
    ),
    "MultiQueryEngine.knn p_values": (
        "MultiQueryEngine.knn", (), {"p_values": (0.5, 1.0)},
    ),
}


class TestLegacyFormContract:
    @pytest.fixture(params=sorted(_LEGACY_FORMS))
    def legacy_call(self, request, built_index, small_split):
        name, tail, knobs = _LEGACY_FORMS[request.param]
        fn = _ENTRY_POINTS[name][0](built_index, None)
        query = small_split.queries[:2] if name == "knn_batch" else (
            small_split.queries[0]
        )
        return lambda: fn(query, 5, *tail, **knobs)

    def test_warning_points_at_the_caller(self, legacy_call, monkeypatch):
        monkeypatch.delenv("REPRO_STRICT_API", raising=False)
        with pytest.warns(DeprecationWarning) as record:
            legacy_call()
        assert [w.filename for w in record] == [__file__]

    def test_strict_mode_raises(self, legacy_call, monkeypatch):
        monkeypatch.setenv("REPRO_STRICT_API", "1")
        with pytest.raises(InvalidParameterError, match="REPRO_STRICT_API"):
            legacy_call()


class TestMetricsArrays:
    def test_numpy_metrics_accepted(self, built_index, small_split):
        metrics = np.array([0.5, 1.0])
        query = small_split.queries[0]
        engine = MultiQueryEngine(built_index)
        expected = engine.knn(query, 5, metrics=(0.5, 1.0))
        multi = engine.knn(query, 5, metrics=metrics)
        assert multi.metrics == expected.metrics
        assert multi.io == expected.io
        for p in expected.metrics:
            np.testing.assert_array_equal(multi[p].ids, expected[p].ids)
        batch = knn_batch(built_index, small_split.queries[:2], 5, metrics=metrics)
        expected = knn_batch(
            built_index, small_split.queries[:2], 5, metrics=(0.5, 1.0)
        )
        assert batch.io == expected.io
        for got, want in zip(batch.results, expected.results):
            assert got.metrics == want.metrics
            for p in want.metrics:
                np.testing.assert_array_equal(got[p].ids, want[p].ids)


class TestResultProtocol:
    def test_every_result_type_satisfies_protocol(
        self, built_index, small_split
    ):
        query = small_split.queries[0]
        knn_result = built_index.knn(query, 5, p=0.8)
        multi = MultiQueryEngine(built_index).knn(
            query, 5, metrics=(0.5, 1.0)
        )
        batch = knn_batch(built_index, small_split.queries[:2], 5, p=0.8)
        for result in (knn_result, multi, batch):
            assert isinstance(result, SearchResultLike)
            assert set(result.to_dict()) >= {"io"}

    def test_multi_result_parts_keyed_by_metric(
        self, built_index, small_split
    ):
        multi = MultiQueryEngine(built_index).knn(
            small_split.queries[0], 5, metrics=(0.5, 1.0)
        )
        assert isinstance(multi, MultiQueryResult)
        assert set(multi.ids) == {0.5, 1.0}
        assert set(multi.termination) == {0.5, 1.0}

    def test_batch_result_parts_in_query_order(
        self, built_index, small_split
    ):
        batch = knn_batch(built_index, small_split.queries[:3], 5, p=0.8)
        assert isinstance(batch, BatchKnnResult)
        assert len(batch.ids) == 3
        for result in batch.results:
            assert isinstance(result, KnnResult)


class TestIOAggregation:
    def test_merge_is_streaming_and_chains(self):
        total = IOStats()
        assert total.merge(IOStats(sequential=2, random=3)) is total
        total.merge(IOStats(sequential=5)).merge(IOStats(random=7))
        assert (total.sequential, total.random) == (7, 10)

    def test_merge_rejects_negative(self):
        with pytest.raises(ValueError):
            IOStats().merge(IOStats(sequential=-1))

    def test_aggregate_io_accepts_results_and_raw_stats(self):
        parts = [IOStats(sequential=1), IOStats(random=2)]
        assert aggregate_io(parts).total == 3
        wrapped = [
            SimpleResult(IOStats(sequential=4)),
            SimpleResult(IOStats(random=6)),
        ]
        total = aggregate_io(wrapped)
        assert (total.sequential, total.random) == (4, 6)

    def test_batch_io_equals_fold_of_parts(self, built_index, small_split):
        batch = knn_batch(built_index, small_split.queries, 5, p=0.8)
        assert batch.io == aggregate_io(batch.results)


class SimpleResult:
    def __init__(self, io: IOStats) -> None:
        self.io = io
