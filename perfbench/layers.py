"""Per-layer metrics of a traced run, from its spans.

Query-path totals are taken over the traced phase ``B`` and divided by
the queries answered in it; write-path metrics come from the ``write``
phase, which holds every traced update record; set-up metrics are medians
over the set-up repetitions; recovery metrics come from the ``recover``
phase.  A layer a workload does not exercise reports 0.
"""

from __future__ import annotations

import numpy as np

from common import K, SETUP_REPS, median


def _per_rep(tracer, name: str, *, roots_only: bool = False) -> float:
    values = []
    for rep in range(SETUP_REPS):
        spans = tracer.select(name, f"setup{rep}")
        if roots_only:
            spans = [s for s in spans if s.parent is None]
        values.append(sum(s.seconds for s in spans))
    return median(values)


def wave_metrics(tracer, phase: str, queries: int,
                 knn_ms: dict[str, float]) -> dict:
    """Sharded-service metrics from the ``serve.search_batch`` spans.

    ``knn_ms`` maps a query digest to the in-process ``LazyLSH.knn`` time
    of the same query, so a wave's service overhead is its duration minus
    the single-process engine time of its rows.
    """
    waves = [s for s in tracer.select("serve.search_batch", phase) if s.info]
    if not waves:
        return {}
    busy = np.array([w.info["busy"] for w in waves], dtype=np.float64)
    wall = np.array([w.seconds for w in waves])
    per_shard = busy.sum(axis=0)
    overhead = [
        (w.seconds - sum(knn_ms[d] for d in w.info["digests"]) / 1e3) * 1e3
        for w in waves
        if all(d in knn_ms for d in w.info["digests"])
    ]
    return {
        "serve.service_overhead_ms_p50": median(overhead),
        "serve.worker_busy_ms_per_query": busy.sum() * 1e3 / max(queries, 1),
        "serve.coordinator_wait_frac": 1.0 - busy.max(axis=1).sum() / wall.sum(),
        "serve.shard_skew": float(per_shard.max() / per_shard.mean())
        if per_shard.mean() > 0 else 0.0,
    }


def layer_metrics(tracer, *, queries: int, answers: list, records: int,
                  extra: dict) -> dict:
    """All per-layer metrics; ``extra`` supplies workload-specific ones.

    ``answers`` holds ``(rounds, candidates, sequential, random)`` of the
    queries answered in phase ``B``; ``records`` counts the write records
    applied in phase ``write``.
    """
    q = max(queries, 1)

    def per_query_ms(name: str) -> float:
        return tracer.total(name, "B") * 1e3 / q

    def write_spans(name: str):
        return tracer.select(name, "write")

    selfs = tracer.self_times()
    knn_self = sum(selfs[s.sid] for s in tracer.select("core.knn", "B"))
    gathered = sum(s.info or 0 for s in tracer.select("storage.gather", "B"))
    lp = tracer.select("metrics.lp", "B")
    arr = np.array(answers, dtype=np.float64).reshape(-1, 4)
    recovers = {s.sid for s in tracer.select("durability.recover")}
    inserts = write_spans("storage.insert")
    # Where a service holds the index, count its copy of each record only:
    # ingest-mixed's writer applies every record to its own index too.
    inserts = tracer.within(inserts, "serve.ingest") or inserts
    ingests = write_spans("serve.ingest")
    values = {
        "core.build_s": _per_rep(tracer, "core.build"),
        "core.params_warm_s": _per_rep(tracer, "core.metric_params",
                                       roots_only=True),
        "core.hash_ms_per_query": per_query_ms("core.hash"),
        "core.charge_ms_per_query": per_query_ms("core.charge"),
        "core.knn_self_ms_per_query": knn_self * 1e3 / q,
        "core.rounds_per_query": float(arr[:, 0].mean()) if len(arr) else 0.0,
        "core.candidates_per_result":
            float(arr[:, 1].mean() / K) if len(arr) else 0.0,
        "storage.entry_search_ms_per_query":
            per_query_ms("storage.entry_search"),
        "storage.gather_ms_per_query": per_query_ms("storage.gather"),
        "storage.entries_gathered_per_query": gathered / q,
        "storage.sim_io_seq_per_query":
            float(arr[:, 2].mean()) if len(arr) else 0.0,
        "storage.sim_io_rand_per_query":
            float(arr[:, 3].mean()) if len(arr) else 0.0,
        "storage.insert_ms_per_record":
            sum(s.seconds for s in inserts) * 1e3 / records if records else 0.0,
        "metrics.lp_ms_per_query": sum(s.seconds for s in lp) * 1e3 / q,
        "metrics.lp_rows_per_query": sum(s.info or 0 for s in lp) / q,
        "serve.service_overhead_ms_p50": 0.0,
        "serve.worker_busy_ms_per_query": 0.0,
        "serve.coordinator_wait_frac": 0.0,
        "serve.shard_skew": 0.0,
        "serve.fleet_start_s": _per_rep(tracer, "serve.fleet_start"),
        "serve.ingest_ms_per_record":
            sum(s.seconds for s in ingests) * 1e3 / records if records else 0.0,
        "durability.wal_append_ms_p50": median(
            [s.seconds * 1e3 for s in write_spans("durability.wal_append")]
        ) if write_spans("durability.wal_append") else 0.0,
        "durability.feed_poll_ms_p50": median(
            [s.seconds * 1e3 for s in write_spans("durability.feed_poll")]
        ) if write_spans("durability.feed_poll") else 0.0,
        "durability.wal_bytes_per_user_byte": 0.0,
        "durability.checkpoint_create_s":
            _per_rep(tracer, "durability.checkpoint_write"),
        "durability.recover_load_s": sum(
            s.seconds for s in tracer.select("persistence.load", "recover")
            if s.parent in recovers),
        "durability.recover_replay_s": sum(
            s.seconds for s in tracer.select("durability.replay_record",
                                             "recover")
            if s.parent in recovers),
        "persistence.save_s": _per_rep(tracer, "persistence.save"),
        # The checkpoint load in set-up (ingest-mixed).
        "persistence.load_s": _per_rep(tracer, "persistence.load"),
        "bench.trace_overhead_frac": 0.0,
    }
    values.update(extra)
    return values
