"""Shard worker: the per-process half of the sharded query service.

Each worker owns one contiguous id-range shard of the inverted index
(a packed shared-memory copy, or a filter over a memory-mapped v3 file)
and answers *round* requests: given one rehashing round's window bounds
it scans its shard's share of the ring runs speculatively in full and
reports

* every collision-threshold crossing in its shard — point id, the hash
  function where the count crossed ``theta``, the crossing entry's
  position in the **full** run, and the true ``lp`` distance (computed
  from the shard's own data rows), and
* per-function scan extents (min/max full-run positions of the left and
  right ring runs), from which the coordinator reconstructs the exact
  full-run page intervals for sequential-I/O charging.

The worker is a thin host of the engine's round kernel
(:mod:`repro.core.engine`): the ring split is the engine's
:class:`~repro.core.engine.RingSplit` and the crossing step its
:func:`~repro.core.engine.crossings`.  A worker adds only the *gather*
(which entries of each ring segment the shard owns: a packed sub-run
read whole, or a full run filtered to ``lo <= id < hi``) and the
per-segment *extents* (first and last owned entry).

The worker never decides termination: the coordinator merges the
per-shard crossings in the engine's promotion order, finds the global
stop function, and discards crossings past it.  Speculative over-scan
past the stop function only ever happens in a query's final round, so
the worker's per-point collision state never diverges from the
single-process engine's on any round that continues.

The wire protocol is one ``(op_id, op, payload)`` tuple per request with
one ``(op_id, "ok", payload)`` or ``(op_id, "err", traceback)`` reply.
The coordinator's ``op_id`` is a monotonically increasing sequence
number: after a worker death it lets the coordinator discard stale
replies still queued in surviving workers' pipes before replaying the
wave.  Ops:

=============  ======================================================
``ping``       liveness / warm-up check, returns the shard id
``begin``      register a wave of queries (id, vector, metric params)
``round``      scan one round for a list of active queries
``end``        drop the listed queries' state
``reset``      drop *all* query state (coordinator repair/replay)
``update``     apply one WAL record's delta to the shard (epoch/LSN
               sequenced, idempotent by LSN — see DESIGN §11)
``crash``      ``os._exit(1)`` — test hook for worker-death recovery;
               an int payload ``n`` arms a deferred crash during the
               n-th subsequent ``round`` op instead (mid-wave death),
               ``{"after_updates": n}`` the same for ``update`` ops
               (death mid-catch-up)
``shutdown``   clean exit
=============  ======================================================

Live updates (DESIGN §11): an ``update`` payload carries one committed
WAL record translated into shard terms — for an insert, the store's
:class:`~repro.storage.inverted_index.InsertPlan` (full-run insertion
and destination positions) plus the batch's points and owner
assignment; for a remove, the tombstoned ids.  Old sub-run positions
shift by the number of plan entries at or before them, and owned new
entries merge into the sub-runs at their plan-given positions — one
vectorised shift and one in-place splice per array
(:mod:`repro.storage.splice`) — so the shard arrays stay exactly the
restriction of the coordinator's full index and query waves remain
bit-identical to single-process execution.  The first insert copies
each array out of the read-only shared-memory segment (or mapped v3
file) into a private grow-only buffer, one array at a time; later
inserts shift inside those buffers.  The segment and the file are never
written, so respawned workers attach to pristine copies and catch up by
replay.  Updates are sequenced by LSN: a record at or
below the shard's acked LSN is acknowledged but not re-applied, which
makes coordinator replay after a repair idempotent.

Telemetry piggyback (DESIGN §10): each worker runs its *own*
:class:`~repro.obs.registry.MetricsRegistry` and :class:`~repro.obs.
tracer.SpanTracer`.  A ``round`` payload is always
``{"requests": [...], "obs": bool}``, plus the wave's ``"trace"``
context when the wave is traced; with ``obs`` set the reply
payload carries an ``"obs"`` dict of deltas since the last ship —
rows scanned, crossings found, and the finished span dicts of this
round's ``worker.round`` scan span — which the coordinator merges into
the parent telemetry under per-shard labels.  With ``obs`` unset the
only residue is two integer adds per scan, keeping the no-telemetry
fast path inside the <= 3% overhead budget.
"""

from __future__ import annotations

import logging
import os
import time
import traceback

import numpy as np

from repro.core.engine import (
    _EMPTY_F64,
    _EMPTY_I64,
    RingSplit,
    consume_counts,
    crossings,
    initial_slack,
)
from repro.errors import ReproError
from repro.metrics.lp import lp_distance
from repro.obs.registry import MetricsRegistry
from repro.obs.trace_context import TraceContext
from repro.obs.tracer import SpanTracer
from repro.serve.sharding import (
    MmapShardSpec,
    ShardSpec,
    attach_shard,
    open_mmap_shard,
)
from repro.storage.splice import reserve, splice

logger = logging.getLogger("repro.serve.worker")



class _QueryState:
    """Per-query Algorithm-4 collision state restricted to one shard."""

    __slots__ = ("query", "p", "eta", "slack", "ring")

    def __init__(
        self, query: np.ndarray, p: float, theta: int, eta: int,
        alive: np.ndarray,
    ) -> None:
        self.query = query
        self.p = p
        self.eta = eta
        self.slack = initial_slack(theta, alive)
        # Previous-round windows (hash-value bounds, shared with the
        # coordinator) and this shard's previous window entry ranges.
        self.ring = RingSplit(eta)


def _segment_positions(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``starts[s] + j`` for every ``j < lens[s]``, segment by segment."""
    offsets = np.zeros(lens.shape[0], dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    out = np.repeat(starts - offsets, lens)
    out += np.arange(out.shape[0], dtype=np.int64)
    return out


def _row_searchsorted(rows: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """Per-row ``searchsorted(rows[f], needles[f], side="left")``.

    A vectorised binary search over every row at once: each halving
    step is one gather of ``needles.size`` probes.
    """
    width = rows.shape[1]
    flat = rows.reshape(-1)
    base = np.arange(rows.shape[0], dtype=np.int64)[:, None] * width
    lo = np.zeros(needles.shape, dtype=np.int64)
    hi = np.full(needles.shape, width, dtype=np.int64)
    if width == 0:
        return lo
    # Converged needles stay put: a probe at the answer compares >=
    # the needle, and an answer of ``width`` probes the last entry,
    # which sends ``lo`` back to ``width``.
    for _ in range(width.bit_length() + 1):
        mid = np.minimum((lo + hi) >> 1, width - 1)
        go_right = flat[base + mid] < needles
        lo = np.where(go_right, mid + 1, lo)
        hi = np.where(go_right, hi, mid)
    return lo


def _step_shift(before: np.ndarray, width: int) -> np.ndarray:
    """Flat per-entry shifts of packed ``(F, width)`` runs.

    Entry ``i`` of run ``f`` gets the number of ``before[f]`` bounds at
    or below ``i`` (``before`` rows ascend), as the narrowest integer
    type that holds them.
    """
    num_funcs, m = before.shape
    edges = np.empty((num_funcs, m + 2), dtype=np.int64)
    edges[:, 0] = 0
    edges[:, 1:-1] = before
    edges[:, -1] = width
    steps = np.arange(m + 1, dtype=np.min_scalar_type(m))
    return np.repeat(np.tile(steps, num_funcs), np.diff(edges, axis=1).ravel())


class ShardSearcher:
    """Executes rounds over one attached shard.

    ``values``/``ids``/``positions`` are ``(num_functions, m)`` views of
    the shard's per-function sorted sub-runs (``positions`` holds each
    entry's index in the full run); ``data`` the shard's point rows.
    """

    def __init__(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        values: np.ndarray,
        ids: np.ndarray,
        positions: np.ndarray,
        data: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        self.shard_id = shard_id
        self.lo = lo
        self.hi = hi
        self.values = values
        self.ids = ids
        self.positions = positions
        self.data = data
        self.alive = alive
        self.m = int(hi - lo)
        self.queries: dict[int, _QueryState] = {}
        # Always-on scan accumulators (two int adds per scan); the
        # obs-enabled reply path ships deltas of these.
        self.rows_scanned = 0
        self.crossings = 0
        # Scratch for the crossing kernel; always all-False between scans.
        self._marks = np.zeros(self.m, dtype=bool)
        # Live-update state (DESIGN §11).  Until the first insert update
        # the shard's point ids are exactly [lo, hi) and local rows are
        # ``gid - lo``; afterwards ``_gid_of`` maps local row -> global id
        # and ``_lookup`` (sized to the full index) maps back.  ``alive``
        # starts as a read-only shared-memory view and is copied on the
        # first tombstone (copy-on-write keeps the segment pristine for
        # respawned workers, which catch up by replay instead).
        self.epoch = 0
        self.acked_lsn = 0
        self._gid_of: np.ndarray | None = None
        self._lookup: np.ndarray | None = None
        self._owns_alive = False
        # Grow-only buffers behind values/ids/positions once an insert
        # has spliced them (see repro.storage.splice); until then the
        # runs are the attached, read-only views.
        self._buffers: dict[str, np.ndarray] = {}

    # -- protocol ops ---------------------------------------------------

    def begin(self, entries: list) -> None:
        for qid, query, p, theta, eta in entries:
            self.queries[qid] = _QueryState(
                np.asarray(query, dtype=np.float64),
                float(p),
                int(theta),
                int(eta),
                self.alive,
            )

    def end(self, qids: list) -> None:
        for qid in qids:
            self.queries.pop(qid, None)

    def reset(self) -> None:
        self.queries.clear()

    def round(self, requests: list) -> dict:
        return {
            qid: self._round_one(self.queries[qid], los, his)
            for qid, los, his in requests
        }

    def apply_update(self, delta: dict) -> dict:
        """Apply one WAL record's shard delta (idempotent by LSN)."""
        lsn = int(delta["lsn"])
        applied = False
        if lsn > self.acked_lsn:
            if delta["op"] == "insert":
                self._apply_insert_delta(delta)
            elif delta["op"] == "remove":
                self._apply_remove_delta(
                    np.asarray(delta["gids"], dtype=np.int64)
                )
            else:
                raise ReproError(f"unknown update op {delta['op']!r}")
            self.acked_lsn = lsn
            self.epoch = int(delta["epoch"])
            applied = True
        return {
            "shard": self.shard_id,
            "lsn": self.acked_lsn,
            "epoch": self.epoch,
            "points": self.m,
            "applied": applied,
        }

    def _apply_insert_delta(self, delta: dict) -> None:
        """Merge an insert batch's plan into the shard's sub-runs.

        Every worker receives the *full* batch plan plus the owner
        assignment; it extends its data rows with the points it owns,
        shifts every pre-existing entry's full-run position by the
        number of plan entries inserted at or before it, and splices its
        share of each run in at the plan's positions — all runs at once,
        in place (:func:`~repro.storage.splice.splice`).
        """
        rel = np.asarray(delta["rel"], dtype=np.int64)
        plan_values = np.asarray(delta["values"], dtype=np.int64)
        plan_ids = np.asarray(delta["ids"], dtype=np.int64)
        plan_dest = np.asarray(delta["dest"], dtype=np.int64)
        points = np.asarray(delta["points"], dtype=np.float64)
        start = int(delta["batch_start"])
        owners = np.asarray(delta["owners"], dtype=np.int64)
        num_funcs, m_batch = plan_values.shape
        if self._gid_of is None:
            self._gid_of = np.arange(self.lo, self.hi, dtype=np.int64)
        # Points this shard now owns (ascending gid order).
        sel = np.flatnonzero(owners == self.shard_id)
        m_own = int(sel.size)
        self.data = np.vstack([self.data, points[sel]])
        self.alive = np.concatenate(
            [self.alive, np.ones(m_own, dtype=bool)]
        )
        self._owns_alive = True
        self._gid_of = np.concatenate([self._gid_of, start + sel])
        m_old = int(self.values.shape[1])
        # before[f, r]: sub-run f's entries whose full-run position lies
        # before plan entry r's insertion point.  Every plan entry at or
        # before an old entry shifts it right by one (ties resolve after
        # equal-valued old entries, so "<=" is exact).
        before = _row_searchsorted(self.positions, rel)
        shift = _step_shift(before, m_old)
        buf = reserve(
            self._buffers.get("positions"), self.positions, num_funcs * m_own
        )
        buf[: num_funcs * m_old] += shift
        self._buffers["positions"] = buf
        self.positions = buf[: num_funcs * m_old].reshape(num_funcs, m_old)
        if m_own:
            own = (owners[plan_ids - start] == self.shard_id).ravel()
            # An owned entry lands just before the old entry at ``before``:
            # flat side="right" positions in the packed (F, m_old) sub-runs.
            flat_pos = (
                before + np.arange(num_funcs, dtype=np.int64)[:, None] * m_old
            ).ravel()[own]
            shape = (num_funcs, m_old + m_own)
            for name, entries in (
                ("values", plan_values),
                ("ids", plan_ids),
                ("positions", plan_dest),
            ):
                buf = splice(
                    self._buffers.get(name),
                    getattr(self, name),
                    flat_pos,
                    entries.ravel()[own],
                )
                self._buffers[name] = buf
                setattr(self, name, buf[: shape[0] * shape[1]].reshape(shape))
        self.m = m_old + m_own
        self._marks = np.zeros(self.m, dtype=bool)
        # Global id -> local row map over the grown index.
        lookup = np.full(start + m_batch, -1, dtype=np.int64)
        lookup[self._gid_of] = np.arange(self.m, dtype=np.int64)
        self._lookup = lookup

    def _apply_remove_delta(self, gids: np.ndarray) -> None:
        """Tombstone the removed ids this shard owns (copy-on-write)."""
        if self._lookup is None:
            owned = gids[(gids >= self.lo) & (gids < self.hi)]
            local = owned - self.lo
        else:
            local = self._lookup[gids]
            local = local[local >= 0]
        if local.size == 0:
            return
        if not self._owns_alive:
            self.alive = self.alive.copy()
            self._owns_alive = True
        self.alive[local] = False

    # -- the per-round shard scan --------------------------------------

    def _round_one(
        self, q: _QueryState, los: np.ndarray, his: np.ndarray
    ) -> dict:
        """One round's speculative full scan of this shard.

        Sub-runs preserve full-run order, so ``searchsorted`` on the
        searched values restricts the full run's window endpoints and the
        engine's ring split yields exactly the shard's share of the
        engine's left/right ring runs.
        """
        eta = q.eta
        los = np.asarray(los, dtype=np.int64)
        his = np.asarray(his, dtype=np.int64)
        starts = np.empty(eta, dtype=np.int64)
        stops = np.empty(eta, dtype=np.int64)
        for i in range(eta):
            row = self.values[i]
            starts[i] = np.searchsorted(row, los[i], side="left")
            stops[i] = np.searchsorted(row, his[i], side="right")
        stops = np.maximum(starts, stops)
        runs = q.ring.split(los, his, starts, stops)
        q.ring.advance(los, his, starts, stops)
        return self._scan(q, *runs)

    def _scan(
        self,
        q: _QueryState,
        left_starts: np.ndarray,
        left_stops: np.ndarray,
        right_starts: np.ndarray,
        right_stops: np.ndarray,
    ) -> dict:
        eta = q.eta
        # Segments function-major, left run before right run: the
        # engine's scan order.
        seg_starts = np.empty(2 * eta, dtype=np.int64)
        seg_stops = np.empty(2 * eta, dtype=np.int64)
        seg_starts[0::2] = left_starts
        seg_stops[0::2] = left_stops
        seg_starts[1::2] = right_starts
        seg_stops[1::2] = right_stops
        sub, subpos, owned = self._gather(seg_starts, seg_stops - seg_starts)
        self.rows_scanned += int(sub.size)
        # Full-run extents of each segment: its first and last owned
        # entry (-1 = no owned entry).
        ends = np.cumsum(owned)
        nonempty = owned > 0
        ext_lo = np.full(2 * eta, -1, dtype=np.int64)
        ext_hi = np.full(2 * eta, -1, dtype=np.int64)
        ext_lo[nonempty] = subpos[(ends - owned)[nonempty]]
        ext_hi[nonempty] = subpos[ends[nonempty] - 1]
        bounds = np.zeros(eta + 1, dtype=np.int64)
        np.cumsum(owned[0::2] + owned[1::2], out=bounds[1:])
        add, elems, funcs = crossings(sub, q.slack, bounds, self._marks)
        if elems.size:
            cross_local = sub[elems]
            dists = lp_distance(self.data[cross_local], q.query, q.p)
            if self._gid_of is None:
                gids = cross_local + self.lo
            else:
                gids = self._gid_of[cross_local]
            pos = subpos[elems]
        else:
            cross_local = gids = pos = _EMPTY_I64
            dists = _EMPTY_F64
        if add is not None:
            consume_counts(q.slack, add, cross_local)
        self.crossings += int(gids.size)
        return {
            "gids": gids,
            "funcs": funcs,
            "pos": pos,
            "dists": dists,
            "l_lo": ext_lo[0::2],
            "l_hi": ext_hi[0::2],
            "r_lo": ext_lo[1::2],
            "r_hi": ext_hi[1::2],
        }

    def _gather(
        self, seg_starts: np.ndarray, seg_lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owned entries of sub-run segments, in segment order.

        Returns their shard-local rows, their full-run positions, and
        the owned entry count of each segment (all of it, here).
        """
        rows = np.repeat(np.arange(seg_starts.shape[0] // 2, dtype=np.int64), 2)
        idx = _segment_positions(rows * self.m + seg_starts, seg_lens)
        gids = self.ids.ravel()[idx]
        sub = gids - self.lo if self._lookup is None else self._lookup[gids]
        return sub, self.positions.ravel()[idx], seg_lens


class MmapShardSearcher(ShardSearcher):
    """A shard searcher over the memory-mapped *full* index file.

    Nothing is packed per shard: ``values``/``ids``/``data`` are
    read-only memmaps of the whole v3 file, shared byte-for-byte with
    every other worker through the OS page cache.  The per-round window
    search runs directly on the full runs; the scan then keeps only the
    entries this shard owns (``lo <= id < hi``).  Because a shard's
    sub-run preserves full-run order, restricting the full-run ring
    segments to owned entries yields exactly the entry set, order and
    extents the shm-packed :class:`ShardSearcher` scans — replies are
    bit-identical, so the coordinator cannot tell the attach modes apart.

    Live updates mutate shard-private arrays, so the first ``update`` op
    makes ``worker_main`` swap this searcher for a materialised
    :class:`ShardSearcher` via :meth:`materialize`; the memmap pages are
    dropped, the file is never written, and the classic in-place delta
    path takes over.
    """

    def __init__(
        self,
        shard_id: int,
        lo: int,
        hi: int,
        values: np.ndarray,
        ids: np.ndarray,
        data: np.ndarray,
        alive: np.ndarray,
    ) -> None:
        # The shard's data rows are a slice of the mapped data section
        # (still a read-only view), so local row r is global id lo + r.
        super().__init__(
            shard_id, lo, hi, values, ids, None, data[lo:hi], alive
        )
        # ``open_mmap_shard`` hands each worker a private alive slice.
        self._owns_alive = True
        self.num_rows = int(values.shape[1])

    def materialize(self) -> ShardSearcher:
        """Copy the owned sub-runs into RAM and return a classic searcher.

        The extraction is exactly ``InvertedListStore.shard_view`` (same
        mask, same flat order), so the materialised worker starts from
        the same arrays a shm pack would have shipped — the update path
        stays bit-identical across attach modes.
        """
        shape = (self.values.shape[0], self.m)
        flat = np.flatnonzero(
            ((self.ids >= self.lo) & (self.ids < self.hi)).ravel()
        )
        values = self.values.ravel()[flat].reshape(shape)
        ids = self.ids.ravel()[flat].reshape(shape)
        # The flat indices become the full-run positions in place, so the
        # extraction holds at most one index-sized array beyond its output.
        positions = np.remainder(flat, self.num_rows, out=flat).reshape(shape)
        searcher = ShardSearcher(
            self.shard_id,
            self.lo,
            self.hi,
            values,
            ids,
            positions,
            np.array(self.data),
            self.alive,
        )
        searcher._owns_alive = True
        searcher.queries = self.queries
        searcher.rows_scanned = self.rows_scanned
        searcher.crossings = self.crossings
        searcher.epoch = self.epoch
        searcher.acked_lsn = self.acked_lsn
        return searcher

    def _gather(
        self, seg_starts: np.ndarray, seg_lens: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Owned entries of full-run segments: those with ``lo <= id < hi``.

        Gathering the full segments is the real disk read the simulated
        charge models; a sub-run preserves full-run order, so the owned
        entries come out exactly as the shm-packed searcher reads them.
        """
        rows = np.repeat(np.arange(seg_starts.shape[0] // 2, dtype=np.int64), 2)
        run_pos = _segment_positions(seg_starts, seg_lens)
        gids = self.ids.ravel()[
            run_pos + np.repeat(rows * self.num_rows, seg_lens)
        ]
        keep = (gids >= self.lo) & (gids < self.hi)
        kept_before = np.zeros(run_pos.shape[0] + 1, dtype=np.int64)
        np.cumsum(keep, out=kept_before[1:])
        owned = np.diff(kept_before[np.cumsum(seg_lens)], prepend=0)
        return gids[keep] - self.lo, run_pos[keep], owned


def worker_main(conn, spec: ShardSpec | MmapShardSpec) -> None:
    """Worker process entry point (importable, spawn-safe).

    Attaches the shard, then serves ``(op_id, op, payload)`` requests
    until ``shutdown`` (or the pipe closes).  Every reply echoes the
    ``op_id`` and carries the op's wall-clock ``busy`` seconds (for
    per-shard utilisation) plus its ``cpu`` process-time seconds (for
    scheduler-noise-immune cost accounting on oversubscribed hosts).
    """
    try:
        if isinstance(spec, MmapShardSpec):
            shm = None
            arrays = open_mmap_shard(spec)
            searcher: ShardSearcher = MmapShardSearcher(
                spec.shard_id,
                spec.lo,
                spec.hi,
                arrays["values"],
                arrays["ids"],
                arrays["data"],
                arrays["alive"],
            )
        else:
            arrays, shm = attach_shard(spec)
            searcher = ShardSearcher(
                spec.shard_id,
                spec.lo,
                spec.hi,
                arrays["values"],
                arrays["ids"],
                arrays["positions"],
                arrays["data"],
                arrays["alive"],
            )
    except Exception:  # pragma: no cover - attach failures are fatal
        logger.exception(
            "shard %d worker failed to attach its segment", spec.shard_id
        )
        conn.send((-1, "err", traceback.format_exc()))
        return
    # Worker-local observability: its own registry + tracer, shipped to
    # the coordinator as deltas on obs-enabled round replies.
    registry = MetricsRegistry()
    tracer = SpanTracer()
    rows_total = registry.counter(
        "lazylsh_worker_rows_scanned_total",
        "Inverted-list entries scanned by this shard worker",
    )
    crossings_total = registry.counter(
        "lazylsh_worker_crossings_total",
        "Collision-threshold crossings found by this shard worker",
    )
    shipped_rows = 0
    shipped_crossings = 0
    crash_in_rounds: int | None = None  # armed mid-wave crash countdown
    crash_in_updates: int | None = None  # armed mid-catch-up crash countdown
    while True:
        try:
            op_id, op, payload = conn.recv()
        except (EOFError, OSError):  # parent went away
            break
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            obs_delta = None
            if op == "ping":
                result = {"shard": searcher.shard_id, "points": searcher.m}
            elif op == "begin":
                searcher.begin(payload)
                result = None
            elif op == "round":
                requests = payload["requests"]
                ship_obs = payload["obs"]
                wave_ctx = None
                raw_ctx = payload.get("trace")
                if raw_ctx is not None:
                    # The coordinator's wave-root span context: this
                    # round's span becomes its child in the shared
                    # distributed trace (DESIGN §13).
                    wave_ctx = TraceContext.from_dict(raw_ctx)
                if crash_in_rounds is not None:
                    crash_in_rounds -= 1
                    if crash_in_rounds <= 0:
                        os._exit(1)
                if ship_obs:
                    if wave_ctx is not None:
                        with tracer.span(
                            "worker.round",
                            context=wave_ctx,
                            shard=searcher.shard_id,
                            queries=len(requests),
                        ) as span:
                            result = searcher.round(requests)
                            span.set(
                                rows=searcher.rows_scanned - shipped_rows,
                                crossings=searcher.crossings
                                - shipped_crossings,
                            )
                    else:
                        # Untraced wave: no span, zero tracing overhead.
                        result = searcher.round(requests)
                    d_rows = searcher.rows_scanned - shipped_rows
                    d_crossings = searcher.crossings - shipped_crossings
                    shipped_rows = searcher.rows_scanned
                    shipped_crossings = searcher.crossings
                    rows_total.inc(d_rows)
                    crossings_total.inc(d_crossings)
                    obs_delta = {
                        "rows": d_rows,
                        "crossings": d_crossings,
                        "spans": tracer.to_dicts(),
                    }
                    tracer.clear()
                else:
                    result = searcher.round(requests)
            elif op == "end":
                searcher.end(payload)
                result = None
            elif op == "reset":
                searcher.reset()
                result = None
            elif op == "update":
                if crash_in_updates is not None:
                    crash_in_updates -= 1
                    if crash_in_updates <= 0:
                        os._exit(1)
                if isinstance(searcher, MmapShardSearcher):
                    # The delta path mutates shard-private arrays; leave
                    # the read-only mapping behind first.
                    searcher = searcher.materialize()
                result = searcher.apply_update(payload)
            elif op == "crash":
                if isinstance(payload, dict) and payload.get("after_updates"):
                    crash_in_updates = int(payload["after_updates"])
                    result = None
                elif isinstance(payload, int) and payload > 0:
                    crash_in_rounds = payload
                    result = None
                else:
                    os._exit(1)
            elif op == "shutdown":
                conn.send(
                    (op_id, "ok", {"busy": 0.0, "cpu": 0.0, "result": None})
                )
                break
            else:
                raise ReproError(f"unknown worker op {op!r}")
            reply = {
                "busy": time.perf_counter() - t0,
                "cpu": time.process_time() - c0,
                "result": result,
            }
            if obs_delta is not None:
                reply["obs"] = obs_delta
            conn.send((op_id, "ok", reply))
        except Exception:
            logger.exception(
                "shard %d worker op %r (op_id=%d) failed",
                searcher.shard_id,
                op,
                op_id,
            )
            try:
                conn.send((op_id, "err", traceback.format_exc()))
            except (BrokenPipeError, OSError):  # pragma: no cover
                break
    if shm is not None:
        shm.close()
