"""Flat-array query execution engine for Algorithm 4.

The seed implementation of :meth:`LazyLSH.knn` is interpreter-bound: a
Python loop over all ``eta`` hash functions per rehashing round, one
``searchsorted`` per function per round, and an ``np.asarray`` rebuild of
the candidate-distance list on every inner termination check.  This module
re-executes the *same plan* with batched kernels:

* all of a round's window (or ring) entry ranges are answered by two
  vectorised ``searchsorted`` calls over the store's flat layout
  (:meth:`InvertedListStore.batch_entry_positions`) — across every hash
  function *and* every query of a batch simultaneously;
* the round's scans are then consumed in geometrically growing *blocks*
  of hash functions, so a query that terminates at function ``i`` of its
  final round gathers only ``O(i)`` functions' worth of entries, like the
  scalar loop's mid-round ``break``;
* collision counts are updated with one ``np.bincount`` per block, and
  the per-function threshold crossings are recovered with one stable
  argsort (the rank of a point's occurrence within the block tells at
  which function its count crossed ``theta``);
* the "``k`` candidates within ``c * delta``" termination condition is
  maintained incrementally (a counter plus the shrinking set of
  outside-radius distances), so each per-function check is O(1) — the
  first function at which a query terminates falls out of one ``cumsum``;
* sequential I/O is charged by interval arithmetic on per-function page
  hulls instead of a per-page Python loop.

The round kernel is shared: :func:`round_windows`, :class:`RingSplit`,
:func:`crossings`, :func:`consume_counts` and :class:`Candidates` are the
one copy of each Algorithm-4 step, hosted here by :class:`LaneGroup` and
in the sharded service by the shard workers (:mod:`repro.serve.worker`)
and the coordinator (:mod:`repro.serve.service`).  Lane groups are built
and run by one runner, ``LazyLSH._knn_flat``, behind ``LazyLSH.knn``,
``MultiQueryEngine.knn`` and ``knn_batch``.

The engine is a pure execution-plan change: candidate order, termination
round/function, results, and the simulated sequential/random I/O counts
are bit-identical to the scalar reference loops, which the paper's
evaluation measures and the tests keep as oracles: ``LazyLSH._knn_impl``
(one metric) and ``MultiQueryEngine._knn_impl`` (the Section 4.3 shared
scan over several metrics).

Why exactness holds
-------------------

The scalar loop's observable state only changes at threshold crossings,
and within one block the crossing function of a point is determined by its
collision count at block start plus the number of consumed windows
containing it.  Promotions are re-ordered here by flat scan position —
function-major, left ring run before right — which is precisely the
scalar visit order, and mid-round termination is re-derived as the first
function where the cumulative within-radius count reaches ``k`` (or the
candidate budget is exhausted), so I/O is charged only for the windows
the scalar loop would actually have read.
"""

from __future__ import annotations

import math

import numpy as np

from repro._typing import PointVector
from repro.metrics.lp import lp_distance
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageTracker

#: Hard cap on rehashing rounds (shared by the scalar loops, the flat
#: engine and the sharded coordinator).
_MAX_ROUNDS = 128

#: Non-termination diagnostics: single-metric kNN paths, and the
#: level-synchronised multi-metric scan.
_KNN_ABORT = "knn did not terminate; this indicates a corrupted index"
_MULTI_ABORT = "multi-query did not terminate; this indicates a corrupted index"

#: Algorithm-4 termination reasons, shared by the flat and scalar paths
#: (and re-exported by :mod:`repro.obs` for trace consumers).
TERMINATION_K_WITHIN = "k_within_radius"
TERMINATION_CAP = "candidate_cap"

#: Hash functions gathered per block; doubles every block of a round so a
#: full no-termination round costs O(log eta) block overheads while an
#: early termination at function ``i`` overshoots by at most ``O(i)``.
_BLOCK_FUNCS = 64

#: Sentinel for "no pages seen yet" per-function page hulls.
_HULL_EMPTY_FIRST = 2**62

#: ``slack`` value for rows that can never cross the collision threshold
#: (deleted points and already-promoted candidates).  Far above any
#: possible per-block collision count, and decremented by at most the
#: total number of window memberships of one query (< 2**18), so such a
#: row never fires the ``add > slack`` crossing test.
_SLACK_DEAD = 2**30

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_EMPTY_I64.setflags(write=False)
_EMPTY_F64 = np.empty(0, dtype=np.float64)
_EMPTY_F64.setflags(write=False)


def charge_ring_hulls(
    first_l: np.ndarray,
    stop_l: np.ndarray,
    mask_l: np.ndarray,
    first_r: np.ndarray,
    stop_r: np.ndarray,
    mask_r: np.ndarray,
    seen_first: np.ndarray,
    seen_stop: np.ndarray,
) -> np.ndarray:
    """Charge left/right ring page runs against per-function page hulls.

    ``first_*``/``stop_*`` are half-open page intervals per function
    (ignored where the matching mask is False); ``seen_first``/
    ``seen_stop`` are the hulls of pages already charged, extended *in
    place*.  Returns the per-function count of newly read pages.

    This is the pure interval arithmetic shared by the flat engine's
    :meth:`LaneGroup._charge_hulls` and the sharded service's
    coordinator (which reconstructs the same full-run intervals from
    per-shard scan extents): a ring half outside the hull sits entirely
    below its first page or at/above its stop page, so the two
    new-page counts plus one inclusion-exclusion term for the shared
    boundary page never double count.
    """
    over_l = np.maximum(
        np.minimum(stop_l, seen_stop) - np.maximum(first_l, seen_first), 0
    )
    over_r = np.maximum(
        np.minimum(stop_r, seen_stop) - np.maximum(first_r, seen_first), 0
    )
    new_l = np.where(mask_l, (stop_l - first_l) - over_l, 0)
    new_r = np.where(mask_r, (stop_r - first_r) - over_r, 0)
    dup_first = np.maximum(first_l, first_r)
    dup_stop = np.minimum(stop_l, stop_r)
    dup = np.maximum(dup_stop - dup_first, 0)
    dup -= np.maximum(
        np.minimum(dup_stop, seen_stop) - np.maximum(dup_first, seen_first), 0
    )
    dup = np.where(mask_l & mask_r, dup, 0)
    new = new_l + new_r - dup
    np.minimum(seen_first, np.where(mask_l, first_l, seen_first), out=seen_first)
    np.minimum(seen_first, np.where(mask_r, first_r, seen_first), out=seen_first)
    np.maximum(seen_stop, np.where(mask_l, stop_l, seen_stop), out=seen_stop)
    np.maximum(seen_stop, np.where(mask_r, stop_r, seen_stop), out=seen_stop)
    return new


def round_windows(
    hashes: np.ndarray, level: float, rehashing: str
) -> tuple[np.ndarray, np.ndarray]:
    """Per-function bucket windows ``[los, his]`` of one rehashing round.

    ``"query_centric"`` centres a window of radius ``floor(level / 2)``
    on each query hash (Section 4.3); ``"original"`` takes the aligned
    bucket of width ``floor(level)`` that contains it.
    """
    if rehashing == "query_centric":
        half = int(math.floor(level / 2.0))
        return hashes - half, hashes + half
    width = max(1, int(math.floor(level)))
    los = np.floor_divide(hashes, width) * width
    return los, los + width - 1


class RingSplit:
    """Previous-round windows and entry ranges of one query's scans.

    A round only reads the ring between its window and the previous
    (nested) one; :meth:`split` cuts each function's entry range into
    the left and right ring runs, and :meth:`advance` records the round
    for the next split.  The first round, and any function whose windows
    fail to nest (possible under ``"original"`` rehashing), read their
    whole window as the left run.  Entry ranges are positions in
    whatever run the caller searched: the full run for the flat engine,
    one shard's sub-run for a shard worker.
    """

    __slots__ = ("plos", "phis", "pstarts", "pstops", "first_round")

    def __init__(self, n_funcs: int) -> None:
        self.plos = np.zeros(n_funcs, dtype=np.int64)
        self.phis = np.zeros(n_funcs, dtype=np.int64)
        self.pstarts = np.zeros(n_funcs, dtype=np.int64)
        self.pstops = np.zeros(n_funcs, dtype=np.int64)
        self.first_round = True

    def split(
        self,
        los: np.ndarray,
        his: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(left_starts, left_stops, right_starts, right_stops)``.

        Covers the first ``len(los)`` functions; ``stops >= starts``.
        """
        if self.first_round:
            return starts, stops, stops, stops
        f = los.shape[0]
        nested = (los <= self.plos[:f]) & (self.phis[:f] <= his)
        left_stops = np.where(nested, np.minimum(self.pstarts[:f], stops), stops)
        right_starts = np.where(nested, np.maximum(self.pstops[:f], starts), stops)
        return starts, left_stops, right_starts, stops

    def advance(
        self,
        los: np.ndarray,
        his: np.ndarray,
        starts: np.ndarray,
        stops: np.ndarray,
    ) -> None:
        f = los.shape[0]
        self.plos[:f] = los
        self.phis[:f] = his
        self.pstarts[:f] = starts
        self.pstops[:f] = stops
        self.first_round = False


def initial_slack(theta: int, alive: np.ndarray) -> np.ndarray:
    """Per-row crossing slack before a query's first scan.

    Row ``j``'s collision count crosses ``theta`` within a scan iff the
    scan adds more than ``slack[j]`` collisions.  Rows that cannot cross
    (dead, or later promoted) carry :data:`_SLACK_DEAD`.
    """
    slack = np.full(alive.shape[0], _SLACK_DEAD, dtype=np.int32)
    np.copyto(slack, theta, where=alive)
    return slack


def crossings(
    sub: np.ndarray,
    slack: np.ndarray,
    bounds: np.ndarray,
    scratch: np.ndarray,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Find a scan's collision-threshold crossings.

    ``sub`` holds the scanned row ids in scan order and ``bounds`` the
    per-function offsets into it (function ``j`` scanned
    ``sub[bounds[j]:bounds[j + 1]]``, ``bounds[0] == 0``).  ``scratch``
    is an all-False bool array as long as ``slack`` and is left
    all-False.

    Avoids sorting the scan: one ``bincount`` finds the (few) rows whose
    count crosses ``theta``, and only their occurrences are ranked —
    a row crosses at its ``(slack + 1)``-th occurrence — to recover the
    exact scan position of each crossing.

    Returns ``(add, elems, rel_func)``: the per-row collision counts of
    the scan (``None`` for an empty scan), the ascending scan positions
    where a crossing happens, and the function (an index into
    ``bounds``) of each.
    """
    if not sub.size:
        return None, _EMPTY_I64, _EMPTY_I64
    add = np.bincount(sub, minlength=slack.shape[0])
    crossers = np.flatnonzero(add > slack)
    if not crossers.size:
        return add, _EMPTY_I64, _EMPTY_I64
    scratch[crossers] = True
    pos = np.flatnonzero(scratch[sub])
    scratch[crossers] = False
    psub = sub[pos]
    order = np.argsort(psub, kind="stable")
    sid = psub[order]
    first = np.empty(sid.size, dtype=bool)
    first[0] = True
    np.not_equal(sid[1:], sid[:-1], out=first[1:])
    group_starts = np.flatnonzero(first)
    group_idx = np.cumsum(first) - 1
    rank = np.arange(sid.size, dtype=np.int64) - group_starts[group_idx]
    elems = pos[order[rank == slack[sid]]]
    elems.sort()
    rel_func = np.searchsorted(bounds, elems, side="right") - 1
    return add, elems, rel_func


def consume_counts(
    slack: np.ndarray, add: np.ndarray, promoted: np.ndarray
) -> None:
    """Fold a fully consumed scan's counts into ``slack`` in place.

    ``promoted`` rows just became candidates and never cross again.
    """
    np.subtract(slack, add, out=slack, casting="unsafe")
    slack[promoted] = _SLACK_DEAD


class Candidates:
    """Candidate set and termination state of one Algorithm-4 query.

    Held by each flat-engine :class:`Lane` and by the sharded
    coordinator's per-query run.  Termination is tracked incrementally:
    ``n_within`` counts the candidates already inside the current
    round's radius ``c_delta``, and ``outside`` holds the distances not
    yet inside, re-filtered once per round as the radius grows (each
    distance is scanned only while it remains outside).
    """

    __slots__ = (
        "k",
        "cap",
        "c_delta",
        "n_cand",
        "n_within",
        "outside",
        "id_chunks",
        "dist_chunks",
    )

    def __init__(self, k: int, cap: float) -> None:
        self.k = k
        self.cap = cap
        self.c_delta = 0.0
        self.n_cand = 0
        self.n_within = 0
        self.outside = _EMPTY_F64
        self.id_chunks: list[np.ndarray] = []
        self.dist_chunks: list[np.ndarray] = []

    def begin_round(self, c_delta: float) -> None:
        """Enter a round of radius ``c_delta`` (never smaller than before)."""
        self.c_delta = c_delta
        if self.outside.size:
            newly = self.outside < c_delta
            hits = int(np.count_nonzero(newly))
            if hits:
                self.n_within += hits
                self.outside = self.outside[~newly]

    def find_stop(
        self, rel_func: np.ndarray, dists: np.ndarray, n_funcs: int
    ) -> tuple[int | None, str, int]:
        """The first function where the query terminates, if any.

        ``rel_func`` holds a scan's crossings in promotion order (so it
        ascends) as function indices below ``n_funcs``, ``dists`` their
        distances.  The scalar loop checks after every function whether
        ``k`` candidates lie within ``c_delta``, then whether the
        candidate cap is exceeded; the first function where either holds
        falls out of one cumulative sum.  Returns ``(stop, reason,
        kept)``: ``stop`` is ``None`` when the query runs past the scan,
        and ``kept`` counts the crossings up to and including ``stop``.
        """
        if not rel_func.size:
            # No promotions: the same constant test at every function.
            if self.n_within >= self.k:
                return 0, TERMINATION_K_WITHIN, 0
            if self.n_cand > self.cap:
                return 0, TERMINATION_CAP, 0
            return None, "", 0
        promo = np.bincount(rel_func, minlength=n_funcs)
        within = np.bincount(rel_func[dists < self.c_delta], minlength=n_funcs)
        cum_cand = self.n_cand + np.cumsum(promo)
        cum_within = self.n_within + np.cumsum(within)
        stop_mask = (cum_within >= self.k) | (cum_cand > self.cap)
        if not stop_mask.any():
            return None, "", int(rel_func.size)
        stop = int(np.argmax(stop_mask))
        # The within-radius test runs first, so it wins a tie.
        reason = (
            TERMINATION_K_WITHIN if cum_within[stop] >= self.k else TERMINATION_CAP
        )
        return stop, reason, int(np.searchsorted(rel_func, stop, side="right"))

    def promote(self, ids: np.ndarray, dists: np.ndarray) -> None:
        """Add crossings (in promotion order) to the candidate set."""
        self.id_chunks.append(ids)
        self.dist_chunks.append(dists)
        self.n_cand += int(ids.shape[0])
        inside = dists < self.c_delta
        self.n_within += int(np.count_nonzero(inside))
        if not inside.all():
            self.outside = np.concatenate([self.outside, dists[~inside]])

    def top_k(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``k`` nearest candidates' ``(ids, distances)``, ascending.

        The same ``argsort`` as the scalar loop, so ties resolve alike.
        """
        if self.id_chunks:
            ids = np.concatenate(self.id_chunks)
            dists = np.concatenate(self.dist_chunks)
        else:
            ids, dists = _EMPTY_I64, _EMPTY_F64
        order = np.argsort(dists)[: self.k]
        return ids[order].astype(np.int64), dists[order]


class Lane:
    """Per-(query, metric) Algorithm-4 state inside a lane group."""

    __slots__ = (
        "p",
        "params",
        "theta",
        "eta",
        "slack",
        "cands",
        "active",
        "rounds",
        "io",
        "delta",
        "i_stop",
        "scan_end",
        "block_data",
        "stop_reason",
        "trace",
    )

    def __init__(self, p: float, params, k: int, cap: float) -> None:
        self.p = p
        self.params = params
        self.theta = int(params.theta)
        self.eta = int(params.eta)
        # Bound to the group's rows by LaneGroup (see initial_slack).
        self.slack: np.ndarray = _EMPTY_I64
        self.cands = Candidates(k, cap)
        self.active = True
        self.rounds = 0
        self.io = IOStats()
        self.delta = 1.0 / float(params.r_hat)
        # Per-round scan cursor: the function the lane stopped at (None
        # while still scanning) and the exclusive end of its scan range.
        self.i_stop: int | None = None
        self.scan_end = 0
        self.block_data: tuple | None = None
        # Telemetry: why the lane terminated, and an optional
        # QueryTraceBuilder hook (None keeps the no-op fast path — the
        # only disabled-telemetry cost is `is None` checks).
        self.stop_reason = ""
        self.trace = None


class LaneGroup:
    """One query point's lanes, sharing windows, scans and page charging.

    ``style`` selects the float arithmetic of the reference loop being
    reproduced: ``"single"`` follows ``LazyLSH._knn_impl`` (radius state
    ``delta`` multiplied by ``c`` each round), ``"multi"`` follows
    ``MultiQueryEngine`` (``level = c ** round`` recomputed per round, one
    shared scan feeding every metric, sequential I/O attributed to the
    smallest active ``p``, random I/O deduplicated through a shared
    ``fetched`` mask).
    """

    def __init__(
        self,
        *,
        store,
        data,
        alive,
        c: float,
        rehashing: str,
        query: PointVector,
        query_hashes: np.ndarray,
        lanes: list[Lane],
        style: str,
        shared_pages: PageTracker | None = None,
    ) -> None:
        self.store = store
        self.data = data
        self.alive = alive
        self.c = float(c)
        self.rehashing = rehashing
        self.query = query
        self.query_hashes = query_hashes
        self.lanes = lanes
        self.style = style
        self.shared_pages = shared_pages
        self.n_rows = int(alive.shape[0])
        self.fetched = (
            np.zeros(self.n_rows, dtype=bool) if style == "multi" else None
        )
        for lane in lanes:
            lane.slack = initial_slack(lane.theta, alive)
        # Scratch buffer for crossings(); always all-False between calls.
        self._lookup = np.zeros(self.n_rows, dtype=bool)
        eta_max = max(lane.eta for lane in lanes)
        self.eta_max = eta_max
        # Per-function previous-round state: windows and entry ranges
        # (the ring split), and the page hull already charged.
        self.ring = RingSplit(eta_max)
        self.seen_first = np.full(eta_max, _HULL_EMPTY_FIRST, dtype=np.int64)
        self.seen_stop = np.zeros(eta_max, dtype=np.int64)
        self.level = 0.0
        self.cur_los: np.ndarray | None = None
        self.cur_his: np.ndarray | None = None
        self.active_lanes: list[Lane] = []
        self.f_round = 0

    @property
    def active(self) -> bool:
        return any(lane.active for lane in self.lanes)

    # -- round protocol -------------------------------------------------

    def begin_round(self, round_index: int):
        """Advance radii; return this round's ``(funcs, los, his)``."""
        self.active_lanes = [lane for lane in self.lanes if lane.active]
        if not self.active_lanes:
            return None
        for lane in self.active_lanes:
            lane.rounds += 1
        if self.style == "single":
            lane = self.lanes[0]
            self.level = float(lane.params.r_hat) * lane.delta
        else:
            self.level = self.c**round_index
            for lane in self.active_lanes:
                lane.delta = self.c**round_index / float(lane.params.r_hat)
        for lane in self.active_lanes:
            lane.cands.begin_round(self.c * lane.delta)
            if lane.trace is not None:
                lane.trace.begin_round(
                    level=self.level, radius=lane.cands.c_delta, io=lane.io
                )
        f_round = max(lane.eta for lane in self.active_lanes)
        self.f_round = f_round
        los, his = round_windows(
            self.query_hashes[:f_round], self.level, self.rehashing
        )
        self.cur_los = los
        self.cur_his = his
        funcs = np.arange(f_round, dtype=np.int64)
        return funcs, los, his

    def process_round(self, starts: np.ndarray, stops: np.ndarray) -> None:
        """Consume one round's entry ranges (absolute flat positions).

        The scan is split into left/right ring segments per function and
        consumed in geometrically growing function blocks — the flat
        analogue of the scalar loop's per-function ``break``: once every
        lane has terminated, the remaining functions of the round are
        never gathered, counted or charged.
        """
        f_round = self.f_round
        n = self.store.num_points
        base = np.arange(f_round, dtype=np.int64) * n
        stops = np.maximum(starts, stops)
        left_starts, left_stops, right_starts, right_stops = self.ring.split(
            self.cur_los, self.cur_his, starts, stops
        )
        left_lens = left_stops - left_starts
        right_lens = right_stops - right_starts
        func_lens = left_lens + right_lens
        seg_starts = np.empty(2 * f_round, dtype=np.int64)
        seg_lens = np.empty(2 * f_round, dtype=np.int64)
        seg_starts[0::2] = left_starts
        seg_starts[1::2] = right_starts
        seg_lens[0::2] = left_lens
        seg_lens[1::2] = right_lens

        for lane in self.active_lanes:
            lane.i_stop = None
            lane.scan_end = min(lane.eta, f_round)

        rel_left = (left_starts - base, left_stops - base)
        rel_right = (right_starts - base, right_stops - base)
        f0 = 0
        block = _BLOCK_FUNCS
        while True:
            f_need = max(
                (
                    lane.scan_end
                    for lane in self.active_lanes
                    if lane.i_stop is None
                ),
                default=0,
            )
            if f0 >= f_need:
                break
            f1 = min(f_need, f0 + block)
            block *= 2
            self._process_block(
                f0, f1, seg_starts, seg_lens, func_lens, rel_left, rel_right
            )
            f0 = f1

        for lane in self.active_lanes:
            if lane.i_stop is not None:
                lane.active = False
            if lane.trace is not None:
                lane.trace.end_round(
                    io=lane.io,
                    candidates=lane.cands.n_cand,
                    within=lane.cands.n_within,
                )

        self.ring.advance(self.cur_los, self.cur_his, starts, stops)
        if self.style == "single":
            self.lanes[0].delta *= self.c

    # -- internals ------------------------------------------------------

    def _process_block(
        self,
        f0: int,
        f1: int,
        seg_starts: np.ndarray,
        seg_lens: np.ndarray,
        func_lens: np.ndarray,
        rel_left: tuple[np.ndarray, np.ndarray],
        rel_right: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Gather and consume hash functions ``[f0, f1)`` of the round."""
        lens_blk = func_lens[f0:f1]
        bounds = np.empty(f1 - f0 + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(lens_blk, out=bounds[1:])
        flat_ids = self.store.gather_segments32(
            seg_starts[2 * f0 : 2 * f1], seg_lens[2 * f0 : 2 * f1]
        )

        # Lanes still scanning when this block begins; a lane whose scan
        # range ended in an earlier block consumes nothing here.
        scanners = [
            lane
            for lane in self.active_lanes
            if lane.i_stop is None and lane.scan_end > f0
        ]
        for lane in scanners:
            self._analyse_lane(lane, f0, f1, flat_ids, bounds)

        # Sequential I/O: one interval-arithmetic charge per consumed
        # function, attributed to the smallest-p lane consuming it.
        reader = np.full(f1 - f0, -1, dtype=np.int64)
        for rank in range(len(self.active_lanes) - 1, -1, -1):
            lane = self.active_lanes[rank]
            if lane not in scanners:
                continue
            last = lane.scan_end - 1 if lane.i_stop is None else lane.i_stop
            hi = min(last, f1 - 1)
            if hi >= f0:
                reader[: hi - f0 + 1] = rank
        consumed = reader >= 0
        epp = self.store.layout.entries_per_page
        new_pages = self._charge_hulls(
            f0, f1, rel_left, rel_right, epp, consumed
        )
        if np.any(consumed):
            seq = np.bincount(
                reader[consumed],
                weights=new_pages[consumed],
                minlength=len(self.active_lanes),
            )
            for rank, lane in enumerate(self.active_lanes):
                if seq[rank]:
                    lane.io.add_sequential(int(seq[rank]))

        # Random I/O + candidate promotion.
        if self.fetched is None:
            self._promote_single(scanners)
        else:
            self._promote_shared(scanners)

    def _analyse_lane(
        self,
        lane: Lane,
        f0: int,
        f1: int,
        flat_ids: np.ndarray,
        bounds: np.ndarray,
    ) -> None:
        """Find the lane's crossings in the block and its stop function."""
        nf = min(lane.scan_end, f1) - f0
        m = int(bounds[nf])
        sub = flat_ids[:m]
        add, elems, rel_func = crossings(sub, lane.slack, bounds, self._lookup)
        if elems.size:
            cross_ids = sub[elems]
            dists = lp_distance(self.data[cross_ids], self.query, lane.p)
        else:
            cross_ids, dists = _EMPTY_I64, _EMPTY_F64
        stop, reason, kept = lane.cands.find_stop(rel_func, dists, nf)
        if stop is not None:
            lane.i_stop = f0 + stop
            lane.stop_reason = reason
        if lane.trace is not None:
            consumed = (
                m if lane.i_stop is None else int(bounds[lane.i_stop - f0 + 1])
            )
            lane.trace.add_collisions(consumed)
        lane.block_data = (cross_ids, f0 + rel_func, dists, add, kept)

    def _charge_hulls(
        self,
        f0: int,
        f1: int,
        rel_left: tuple[np.ndarray, np.ndarray],
        rel_right: tuple[np.ndarray, np.ndarray],
        entries_per_page: int,
        consumed: np.ndarray,
    ) -> np.ndarray:
        """Charge a block's left/right ring scans against the page hulls.

        Returns the per-function count of newly read pages for functions
        ``[f0, f1)`` and extends the hulls in place.  Correctness relies
        on every scan being entry-wise adjacent to (or overlapping) the
        pages already seen for its function, which holds for nested
        rehashing windows and their ring complements — the union of
        charged pages stays one interval.  Both ring halves are charged
        against the pre-block hull in one pass: their outside-hull page
        runs sit on opposite sides of the hull (left below its first
        page, right at or above its stop page), so the two new-page
        counts never double count.
        """
        l_starts = rel_left[0][f0:f1]
        l_stops = rel_left[1][f0:f1]
        r_starts = rel_right[0][f0:f1]
        r_stops = rel_right[1][f0:f1]
        mask_l = consumed & (l_stops > l_starts)
        mask_r = consumed & (r_stops > r_starts)
        first_l = l_starts // entries_per_page
        stop_l = np.where(mask_l, (l_stops - 1) // entries_per_page + 1, first_l)
        first_r = r_starts // entries_per_page
        stop_r = np.where(mask_r, (r_stops - 1) // entries_per_page + 1, first_r)
        new_l = np.where(mask_l, stop_l - first_l, 0)
        new_r = np.where(mask_r, stop_r - first_r, 0)
        new = charge_ring_hulls(
            first_l,
            stop_l,
            mask_l,
            first_r,
            stop_r,
            mask_r,
            self.seen_first[f0:f1],
            self.seen_stop[f0:f1],
        )
        if self.shared_pages is not None:
            # Batch-wide buffer pool: re-dedup each function's newly read
            # page runs against pages other queries already charged.  The
            # tracker sees the left run before the right run of the same
            # function, so its returns already exclude the shared page;
            # charged functions are fully replaced (dup > 0 implies both
            # sides charged).
            for j in np.flatnonzero((new_l > 0) | (new_r > 0)):
                func = f0 + int(j)
                total = 0
                if new_l[j] > 0:
                    total += self.shared_pages.charge(
                        func, int(first_l[j]), int(stop_l[j])
                    )
                if new_r[j] > 0:
                    total += self.shared_pages.charge(
                        func, int(first_r[j]), int(stop_r[j])
                    )
                new[j] = total
        return new

    def _promote_lane(self, lane: Lane) -> None:
        cross_ids, _cross_func, dists, add, kept = lane.block_data
        if kept:
            if lane.trace is not None:
                lane.trace.add_crossings(kept)
            lane.cands.promote(cross_ids[:kept], dists[:kept])
        if lane.i_stop is None and add is not None:
            consume_counts(lane.slack, add, cross_ids)
        lane.block_data = None

    def _promote_single(self, scanners: list[Lane]) -> None:
        for lane in scanners:
            kept = lane.block_data[4]
            if kept:
                lane.io.add_random(kept)
            self._promote_lane(lane)

    def _promote_shared(self, scanners: list[Lane]) -> None:
        """Multi-metric promotion with shared candidate fetches.

        Replays the scalar engine's (function, metric) processing order to
        attribute each object's single random fetch to the first metric
        that promotes it.
        """
        kept_counts = [lane.block_data[4] for lane in scanners]
        total = sum(kept_counts)
        if total:
            ranks = {id(lane): rank for rank, lane in enumerate(self.active_lanes)}
            all_ids = np.empty(total, dtype=np.int64)
            all_func = np.empty(total, dtype=np.int64)
            all_rank = np.empty(total, dtype=np.int64)
            all_pos = np.empty(total, dtype=np.int64)
            offset = 0
            for lane, kept in zip(scanners, kept_counts):
                if not kept:
                    continue
                sl = slice(offset, offset + kept)
                all_ids[sl] = lane.block_data[0][:kept]
                all_func[sl] = lane.block_data[1][:kept]
                all_rank[sl] = ranks[id(lane)]
                all_pos[sl] = np.arange(kept, dtype=np.int64)
                offset += kept
            perm = np.lexsort((all_pos, all_rank, all_func))
            sorted_ids = all_ids[perm]
            _unique, first_idx = np.unique(sorted_ids, return_index=True)
            fresh = np.zeros(sorted_ids.shape[0], dtype=bool)
            fresh[first_idx] = True
            fresh &= ~self.fetched[sorted_ids]
            counts = np.bincount(
                all_rank[perm][fresh], minlength=len(self.active_lanes)
            )
            self.fetched[all_ids] = True
            for rank, lane in enumerate(self.active_lanes):
                if counts[rank]:
                    lane.io.add_random(int(counts[rank]))
        for lane in scanners:
            self._promote_lane(lane)


def execute_rounds(groups: list[LaneGroup], *, error: str) -> None:
    """Run lane groups to completion, round-synchronised.

    Each round, every active group's window bounds are concatenated and
    answered with two batched ``searchsorted`` calls over the shared
    store's flat layout; groups then consume their slices independently.
    """
    if not groups:
        return
    store = groups[0].store
    round_index = -1
    while True:
        round_index += 1
        requests = []
        for group in groups:
            req = group.begin_round(round_index)
            if req is not None:
                requests.append((group, *req))
        if not requests:
            return
        if round_index >= _MAX_ROUNDS:
            raise RuntimeError(error)
        if len(requests) == 1:
            group, funcs, los, his = requests[0]
            starts = store.batch_entry_positions(funcs, los, side="left")
            stops = store.batch_entry_positions(funcs, his, side="right")
            group.process_round(starts, stops)
            continue
        funcs = np.concatenate([req[1] for req in requests])
        los = np.concatenate([req[2] for req in requests])
        his = np.concatenate([req[3] for req in requests])
        starts = store.batch_entry_positions(funcs, los, side="left")
        stops = store.batch_entry_positions(funcs, his, side="right")
        offset = 0
        for group, group_funcs, _lo, _hi in requests:
            span = group_funcs.shape[0]
            group.process_round(
                starts[offset : offset + span], stops[offset : offset + span]
            )
            offset += span
