"""Round-synchronised batched kNN over many query points.

``knn_batch`` is a thin host: it resolves its arguments into one
:class:`~repro.api.SearchRequest` and hands the whole ``(m, d)`` query
matrix to the flat runner, ``LazyLSH._knn_flat`` — the same runner
behind ``LazyLSH.knn`` (one row, one metric) and
``MultiQueryEngine.knn`` (one row, many metrics).  Over the batch:

* every query point is hashed with a single :class:`StableHashBank`
  matmul instead of one GEMV per query;
* the per-round window scans of *all* queries are answered together by
  two vectorised ``searchsorted`` calls over the store's flat layout
  (queries are level-synchronised — each advances one Algorithm-4 round
  per engine round and drops out when it terminates);
* each query then consumes its slice of the shared scan independently,
  so per-query results, rounds and I/O accounting stay bit-identical to
  looping :meth:`LazyLSH.knn` — the batch changes the execution plan,
  not the simulated cost model.

``engine="scalar"`` instead loops the reference oracles row by row.

``share_pages=True`` additionally models one buffer pool shared by the
whole batch: a page read by any query stays cached for the others, and
each query's sequential count becomes its *marginal* page reads in batch
order (the batch total is then what one disk arm would really fetch).
This intentionally diverges from the looped-scalar accounting, which
gives every query a private pool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro._typing import PointMatrix
from repro.api import SearchRequest, aggregate_io, resolve_request
from repro.core.lazylsh import LazyLSH, request_span, stamp_request
from repro.core.multiquery import MultiQueryEngine, MultiQueryResult
from repro.errors import InvalidParameterError
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageTracker


@dataclass
class BatchKnnResult:
    """Results of a batched kNN call, in query order.

    ``results`` holds one :class:`KnnResult` per query (or one
    :class:`MultiQueryResult` per query when ``metrics`` was given);
    ``io`` aggregates the whole batch's simulated I/O.  Satisfies the
    :class:`~repro.api.SearchResultLike` protocol: ``ids``,
    ``distances`` and ``termination`` expose the per-query parts as
    lists in query order.
    """

    results: list
    io: IOStats = field(default_factory=IOStats)

    @property
    def ids(self) -> list:
        """Per-query neighbour ids, in query order."""
        return [r.ids for r in self.results]

    @property
    def distances(self) -> list:
        """Per-query neighbour distances, in query order."""
        return [r.distances for r in self.results]

    @property
    def termination(self) -> list:
        """Per-query Algorithm-4 termination reasons, in query order."""
        return [r.termination for r in self.results]

    def to_dict(self) -> dict:
        """JSON-serialisable form: per-query records plus the batch I/O."""
        return {
            "io": self.io.to_dict(),
            "results": [r.to_dict() for r in self.results],
        }

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, item: int):
        return self.results[item]

    def __iter__(self) -> Iterator:
        return iter(self.results)


def knn_batch(
    index: LazyLSH,
    queries: PointMatrix | SearchRequest,
    k: int | None = None,
    *args,
    p: float | None = None,
    metrics: Sequence[float] | None = None,
    engine: str = "flat",
    share_pages: bool = False,
    telemetry=None,
    cap: float | None = None,
    radius: float | None = None,
) -> BatchKnnResult:
    """Answer ``Np(q, k, c)`` for every row of ``queries`` in one pass.

    Exactly one of ``p`` (one metric per query, default ``1.0``) or
    ``metrics`` (every query answered under all listed metrics, like
    :class:`MultiQueryEngine`) may be given.  ``engine="scalar"`` loops
    the reference path query by query — useful for verification — while
    the default ``"flat"`` plan runs all queries round-synchronised.

    ``queries`` may instead be a :class:`~repro.api.SearchRequest` whose
    ``query`` holds the ``(m, d)`` query matrix; every other argument
    but ``share_pages`` and ``telemetry`` must then be left at its
    default.  Tuning knobs are keyword-only and shared with
    ``LazyLSH.knn``/``MultiQueryEngine.knn``: ``p`` (passing it
    positionally is deprecated), ``metrics``, ``engine``, ``cap``
    (candidate-budget override) and ``radius`` (starting-radius
    override, single-metric only).

    ``telemetry`` (a :class:`repro.obs.Telemetry`) captures one
    :class:`~repro.obs.QueryTrace` per ``(query, metric)`` pair with
    ``query_id`` set to the query's row; ``None`` (the default) runs the
    no-op fast path.  A request's ``request_id`` is stamped on every
    contained result, and an overrun ``deadline_ms`` (advisory, timed
    over the whole batch) flags each ``deadline_exceeded``.
    """
    request = resolve_request(
        "knn_batch", queries, k, args,
        p=p, metrics=metrics, engine=engine, cap=cap, radius=radius,
    )
    if not index.is_built:
        raise InvalidParameterError("knn_batch needs a built LazyLSH index")
    queries = index._check_query(request.query, batch=True)
    if share_pages and request.engine == "scalar":
        raise InvalidParameterError(
            "share_pages models a batch-wide buffer pool; the scalar loop "
            "runs queries independently and cannot share one"
        )
    if request.metrics is not None and index.rehashing != "query_centric":
        raise InvalidParameterError(
            "the multi-query engine requires query-centric rehashing"
        )
    start = time.perf_counter()
    with request_span(
        telemetry, request, "knn_batch", queries=int(queries.shape[0])
    ):
        results: list
        if request.engine == "scalar":
            oracle: LazyLSH | MultiQueryEngine = (
                index if request.metrics is None else MultiQueryEngine(index)
            )
            results = [
                oracle._knn_impl(q, request, telemetry=telemetry, query_id=j)
                for j, q in enumerate(queries)
            ]
        else:
            rows = index._knn_flat(
                queries,
                request,
                shared_pages=PageTracker() if share_pages else None,
                telemetry=telemetry,
                query_ids=True,
            )
            results = [
                row[0] if request.metrics is None
                else MultiQueryResult.from_parts(row)
                for row in rows
            ]
    parts = results if request.metrics is None else [
        part for row in results for part in row.results.values()
    ]
    stamp_request(parts, request, start, telemetry, "knn_batch")
    return BatchKnnResult(results=results, io=aggregate_io(results))
