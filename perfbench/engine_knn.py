"""``engine-knn``: one closed-loop caller of ``LazyLSH.knn`` in-process.

All of its query time is spent in ``core``, ``storage`` and ``metrics``;
it bypasses ``serve``, ``durability`` and ``persistence``, so engine
kernel changes show here and serving-only changes should not.  After the
measured queries a short write tail applies 8-point records with
``LazyLSH.insert`` (the in-process host's write path) for the ingest
metrics; an in-process index has no durable state, so its recovery is a
rebuild from the raw points, timed by the set-up repetitions.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from common import (
    K,
    P_VALUES,
    QUALITY_SAMPLE,
    SETUP_REPS,
    Context,
    Outcome,
    Quality,
    QueryStream,
    RecordStream,
    build_and_warm,
    clear_parameter_cache,
    enter_phase,
    make_dataset,
    measured_phases,
    median,
    pct,
    provenance,
    same_answer,
    vm_hwm_mb,
    warmup_queries,
)
from layers import layer_metrics
from repro.errors import ReproError

#: Queries per metric re-run on the scalar reference engine.
SCALAR_CHECKS_PER_P = 2
#: Write records in the tail after the measured queries.
TAIL_RECORDS = 48


def run(ctx: Context) -> Outcome:
    data = make_dataset(ctx.seed)
    setups = []
    index = None
    for rep in range(SETUP_REPS):
        index = None
        gc.collect()
        clear_parameter_cache()
        enter_phase(ctx, f"setup{rep}", ctx.trace)
        timings: dict = {}
        t0 = time.perf_counter()
        index = build_and_warm(data.points, timings)
        warmup_queries(data, lambda q, p: index.knn(q, K, p=p))
        timings["setup_s"] = time.perf_counter() - t0
        setups.append(timings)
    index_bytes = index.storage_info()["resident_bytes"]

    stream = QueryStream(data)
    asked = []  # (query, p, result) of every measured query
    latency: dict[str, list[float]] = {}
    answers_b = []
    failed = 0
    for phase, seconds, traced in measured_phases(ctx):
        enter_phase(ctx, phase, traced)
        lat = latency.setdefault(phase, [])
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            i, query, p = stream.take()
            ctx.tracer.set_request(f"q{i}")
            t0 = time.perf_counter()
            try:
                result = index.knn(query, K, p=p)
            except ReproError:
                failed += 1
                continue
            lat.append(time.perf_counter() - t0)
            asked.append((query, p, result))
            if phase == "B":
                answers_b.append((result.rounds, result.candidates,
                                  result.io.sequential, result.io.random))
    ctx.tracer.set_request(None)

    # Scalar reference check before the tail mutates the index (untraced).
    enter_phase(ctx, "verify", False)
    rng = np.random.default_rng((ctx.seed, 3))
    mismatches = 0
    for p in P_VALUES:
        rows = [j for j, (_q, qp, _r) in enumerate(asked) if qp == p]
        pick = rng.choice(rows, size=min(SCALAR_CHECKS_PER_P, len(rows)),
                          replace=False) if rows else []
        for j in pick:
            query, _p, res = asked[int(j)]
            ref = index.knn(query, K, p=p, engine="scalar")
            if not same_answer(res.ids, res.distances, res.io.sequential,
                               res.io.random, ref):
                mismatches += 1
    # Write tail: the in-process host's insert/remove path.
    enter_phase(ctx, "write", ctx.trace)
    records = RecordStream(data)
    write_lat = []
    for _ in range(TAIL_RECORDS):
        op, arg = records.take()
        t0 = time.perf_counter()
        try:
            if op == "insert":
                index.insert(arg)
            else:
                index.remove(arg)
        except ReproError:
            failed += 1
            continue
        write_lat.append(time.perf_counter() - t0)

    quality = Quality()
    for query, p, res in asked[:QUALITY_SAMPLE]:
        quality.score(data.points, None, query, p, res.ids, res.distances)

    main = "B" if ctx.trace else "run"
    lat_ms = [x * 1e3 for x in latency[main]]
    all_results = [r for _q, _p, r in asked]
    attempted = len(asked) + failed + len(write_lat)
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "query_qps": len(latency[main]) / sum(latency[main]),
        "query_p50_ms": pct(lat_ms, 50),
        "query_p90_ms": pct(lat_ms, 90),
        "recall_at_k": quality.recall,
        "overall_ratio": quality.ratio,
        "sim_io_per_query": float(np.mean(
            [r.io.sequential + r.io.random for r in all_results])),
        "success_rate": 1.0 - failed / attempted,
        "ingest_records_per_s": len(write_lat) / sum(write_lat),
        "ingest_p50_ms": pct([x * 1e3 for x in write_lat], 50),
        "ingest_p90_ms": pct([x * 1e3 for x in write_lat], 90),
        "recovery_s": median(
            [s["build_s"] + s["params_warm_s"] for s in setups]),
        "peak_rss_mb": vm_hwm_mb(),
        "bytes_per_user_byte": index_bytes / data.raw_bytes,
    }
    layer = {}
    if ctx.trace:
        overhead = median(latency["B"]) / median(latency["A"]) - 1.0
        layer = layer_metrics(
            ctx.tracer, queries=len(latency["B"]), answers=answers_b,
            records=len(write_lat),
            extra={"bench.trace_overhead_frac": overhead},
        )
    report = provenance(
        data, ctx.seconds,
        workload="engine-knn",
        loop="closed, 1 caller, in-process LazyLSH.knn",
        wal_fsync="none (no WAL on this host)",
        offered_rate="closed loop",
        samples={"query": len(lat_ms), "write": len(write_lat),
                 "setup": len(setups), "scalar_checks": SCALAR_CHECKS_PER_P
                 * len(P_VALUES), "quality": len(quality.recalls)},
        setups=setups,
        gates={"scalar_mismatches": mismatches},
    )
    return Outcome(
        correct=mismatches == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        layer=layer,
        report=report,
    )
