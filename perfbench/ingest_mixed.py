"""``ingest-mixed``: one fsynced WAL writer with a read after every write.

The writer opens a fresh durable home (``durability.create``, fsync on
every commit) and appends 8-point ``DurableIndex.insert`` records, with a
small remove one step in 8.  After each commit a ``WalFeed`` poll feeds
``ShardedSearchService.ingest``; that service holds its own index, loaded
from the LSN-0 checkpoint (the ``repro serve --wal`` and follower path).
One ``service.search`` follows each write, so reads hit a mutated store.
The loop is closed and runs a fixed number of these steps, so every run's
WAL has the same length and the closing ``recover()``, which replays the
whole WAL, stays comparable when the write path gets faster.
"""

from __future__ import annotations

import gc
import shutil
import time

import numpy as np

import repro.durability as durability
import repro.persistence as persistence
from common import (
    K,
    P_VALUES,
    QUALITY_SAMPLE,
    SETUP_REPS,
    SHARDS,
    Context,
    Outcome,
    Quality,
    QueryStream,
    RecordStream,
    build_and_warm,
    children_hwm_mb,
    clear_parameter_cache,
    enter_phase,
    fresh_dir,
    make_dataset,
    measured_phases,
    median,
    pct,
    provenance,
    same_answer,
    tree_bytes,
    vm_hwm_mb,
    warmup_queries,
)
from layers import layer_metrics, wave_metrics
from repro import ShardedSearchService, WalFeed
from repro.durability.checkpoint import states_identical
from repro.errors import ReproError
from tracing import query_digest

#: Steps (one write, then one read) per measured second.  A step costs
#: about 0.65 s on a 2-CPU host (commit-to-visible write ~520 ms, read
#: ~80 ms, the reference ``knn`` ~20 ms), so the fixed step count fills
#: roughly the measured time there.
STEPS_PER_SECOND = 1.5


class Home:
    """One durable home: the writer, the WAL feed and the fed service."""

    def __init__(self, data, path, timings: dict) -> None:
        self.path = fresh_dir(path)
        t0 = time.perf_counter()
        writer = build_and_warm(data.points, timings)
        t1 = time.perf_counter()
        self.durable = durability.create(writer, path, sync=True)
        t2 = time.perf_counter()
        lsn, ckpt = durability.latest_checkpoint(
            path / durability.CHECKPOINT_SUBDIR)
        index = persistence.load_index(ckpt)
        for p in P_VALUES:
            index.metric_params(p)
        t3 = time.perf_counter()
        self.service = ShardedSearchService(index, n_shards=SHARDS,
                                            base_lsn=lsn)
        self.feed = WalFeed(path / durability.WAL_SUBDIR, start_lsn=lsn)
        t4 = time.perf_counter()
        warmup_queries(data, lambda q, p: self.service.search(q, K, p=p))
        timings.update(create_s=t2 - t1, checkpoint_load_s=t3 - t2,
                       fleet_start_s=t4 - t3,
                       setup_s=time.perf_counter() - t0)

    def write(self, op: str, arg) -> None:
        """Commit one record, then make it visible to the service."""
        if op == "insert":
            self.durable.insert(arg)
        else:
            self.durable.remove(arg)
        self.service.ingest(self.feed.poll())

    def close(self) -> None:
        self.durable.close()
        self.service.close()


def run(ctx: Context) -> Outcome:
    data = make_dataset(ctx.seed)
    setups = []
    home = None
    try:
        for rep in range(SETUP_REPS):
            if home is not None:
                home.close()
                shutil.rmtree(home.path)
                home = None
            gc.collect()
            clear_parameter_cache()
            enter_phase(ctx, f"setup{rep}", ctx.trace)
            timings: dict = {}
            home = Home(data, ctx.work / f"home{rep}", timings)
            setups.append(timings)

        records = RecordStream(data)
        stream = QueryStream(data)
        writer = home.durable.index
        quality = Quality()
        write_lat: dict[str, list[float]] = {}
        read_lat: dict[str, list[float]] = {}
        answers: dict[str, list] = {}
        knn_ms: dict[str, float] = {}
        inserted = 0
        failed = mismatches = 0

        def alive() -> np.ndarray:
            """The writer's live rows: ground truth skips removed points."""
            mask = np.ones(writer.num_rows, dtype=bool)
            mask[list(records.removed)] = False
            return mask

        for phase, seconds, traced in measured_phases(ctx):
            enter_phase(ctx, phase, traced)
            writes = write_lat.setdefault(phase, [])
            reads = read_lat.setdefault(phase, [])
            answered = answers.setdefault(phase, [])
            for _step in range(int(round(STEPS_PER_SECOND * seconds))):
                op, arg = records.take()
                # Write-side spans get their own phase, so the query-path
                # layer metrics of phase B count only the reads' work.
                ctx.tracer.phase = "write"
                ctx.tracer.set_request(f"w{records.step}")
                t0 = time.perf_counter()
                try:
                    home.write(op, arg)
                except ReproError:
                    failed += 1
                    continue
                finally:
                    ctx.tracer.phase = phase
                writes.append(time.perf_counter() - t0)
                inserted += arg.shape[0] if op == "insert" else 0
                i, query, p = stream.take()
                ctx.tracer.set_request(f"q{i}")
                t0 = time.perf_counter()
                try:
                    result = home.service.search(query, K, p=p)
                except ReproError:
                    failed += 1
                    continue
                reads.append(time.perf_counter() - t0)
                answered.append((result.rounds, result.candidates,
                                 result.io.sequential, result.io.random))
                # Every read must equal the writer's single-process index;
                # the reference is timed untraced.
                enter_phase(ctx, "verify", False)
                t0 = time.perf_counter()
                ref = writer.knn(query, K, p=p)
                knn_ms[query_digest(query)] = (time.perf_counter() - t0) * 1e3
                if not same_answer(result.ids, result.distances,
                                   result.io.sequential, result.io.random,
                                   ref):
                    mismatches += 1
                if len(quality.recalls) < QUALITY_SAMPLE:
                    quality.score(writer.data, alive(), query, p,
                                  result.ids, result.distances)
                enter_phase(ctx, phase, traced)

        ctx.tracer.set_request(None)

        # Top the quality sample up with untimed queries to the writer's
        # index after the last write; every read above matched it exactly.
        enter_phase(ctx, "verify", False)
        while len(quality.recalls) < QUALITY_SAMPLE:
            _i, query, p = stream.take()
            ref = writer.knn(query, K, p=p)
            quality.score(writer.data, alive(), query, p, ref.ids,
                          ref.distances)

        wal_bytes = tree_bytes(home.path / durability.WAL_SUBDIR)
        ckpt_bytes = tree_bytes(home.path / durability.CHECKPOINT_SUBDIR)
        workers_rss = children_hwm_mb()
        path = home.path
        home.close()
        home = None
        enter_phase(ctx, "recover", ctx.trace)
        t0 = time.perf_counter()
        recovered, recovery = durability.recover(path)
        recovery_s = time.perf_counter() - t0
        enter_phase(ctx, "verify", False)
        probes = np.stack([stream.take()[1] for _ in range(3)])
        identical = states_identical(recovered.index, writer, queries=probes,
                                     k=K)
        recovered.close()
        peak_rss = vm_hwm_mb() + workers_rss
    finally:
        if home is not None:
            home.close()

    main = "B" if ctx.trace else "run"
    writes_ms = [x * 1e3 for x in write_lat[main]]
    reads_ms = [x * 1e3 for x in read_lat[main]]
    n_writes = sum(len(v) for v in write_lat.values())
    n_reads = sum(len(v) for v in read_lat.values())
    raw_bytes = (data.points.shape[0] * data.d + inserted * data.d) * 8
    metrics = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "query_qps": len(reads_ms) / (sum(reads_ms) / 1e3),
        "query_p50_ms": pct(reads_ms, 50),
        "query_p90_ms": pct(reads_ms, 90),
        "recall_at_k": quality.recall,
        "overall_ratio": quality.ratio,
        "sim_io_per_query": float(np.mean([a[2] + a[3] for a in answers[main]])),
        "success_rate": 1.0 - failed / (n_writes + n_reads + failed),
        "ingest_records_per_s": len(writes_ms) / (sum(writes_ms) / 1e3),
        "ingest_p50_ms": pct(writes_ms, 50),
        "ingest_p90_ms": pct(writes_ms, 90),
        "recovery_s": recovery_s,
        "peak_rss_mb": peak_rss,
        "bytes_per_user_byte": (wal_bytes + ckpt_bytes) / raw_bytes,
    }
    layer = {}
    if ctx.trace:
        extra = wave_metrics(ctx.tracer, "B", len(read_lat["B"]), knn_ms)
        extra.update({
            "durability.wal_bytes_per_user_byte":
                wal_bytes / max(inserted * data.d * 8, 1),
            "bench.trace_overhead_frac":
                median(read_lat["B"]) / median(read_lat["A"]) - 1.0,
        })
        layer = layer_metrics(
            ctx.tracer, queries=len(read_lat["B"]), answers=answers["B"],
            records=len(write_lat["B"]), extra=extra,
        )
    report = provenance(
        data, ctx.seconds,
        workload="ingest-mixed",
        loop=(f"1 writer, closed loop of {STEPS_PER_SECOND:g} steps per "
              "measured second; a step commits one record, polls the "
              "WalFeed into service.ingest, then makes one service.search; "
              f"{SHARDS} shards"),
        wal_fsync="fsync on every record (WriteAheadLog sync=True)",
        offered_rate="closed loop (1 read per write)",
        samples={"write": len(writes_ms), "read": len(reads_ms),
                 "setup": len(setups), "verified": n_reads,
                 "quality": len(quality.recalls),
                 "quality_from_reads": min(n_reads, QUALITY_SAMPLE),
                 "wal_records": recovery["replayed_records"]},
        setups=setups,
        recovery=recovery,
        gates={"read_mismatches": mismatches, "recovered_identical": identical},
    )
    return Outcome(
        correct=mismatches == 0 and identical,
        attempted=n_writes + n_reads + failed,
        failed=failed,
        metrics=metrics,
        layer=layer,
        report=report,
    )
