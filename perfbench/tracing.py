"""Span recording around the program's public layer functions.

The benchmark measures every layer from outside: :meth:`Tracer.install`
swaps each function in :func:`_targets` for a wrapper that records a span
(name, start, end, parent span, request id) and restores the originals on
:meth:`Tracer.uninstall`.  Nothing in the program changes; a wrapped
function is looked up where its caller looks it up (a class attribute or
the calling module's global), so the wrapper sees exactly the calls the
program makes.

Spans stay in memory and are written out as JSON lines when the run
ends.  A span's *self* time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


class Span:
    __slots__ = ("sid", "parent", "request", "name", "phase", "t0", "t1", "info")

    def __init__(self, sid, parent, request, name, phase, t0) -> None:
        self.sid = sid
        self.parent = parent
        self.request = request
        self.name = name
        self.phase = phase
        self.t0 = t0
        self.t1 = t0
        self.info = None

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


def _rows(args, kwargs):
    return int(np.asarray(args[0]).shape[0])


def _gathered(args, kwargs):
    return int(np.sum(args[2]))


def _records(args, kwargs):
    return len(args[1]) if isinstance(args[1], (list, tuple)) else None


def _busy_before(args):
    return list(args[0].busy_seconds)


def _busy_after(args, kwargs, result, before):
    """Per-shard worker busy time and the query digests of one wave."""
    service, queries = args[0], np.atleast_2d(np.asarray(args[1]))
    return {
        "busy": [a - b for a, b in zip(service.busy_seconds, before)],
        "digests": [query_digest(q) for q in queries],
    }


def query_digest(query) -> str:
    return hashlib.sha1(
        np.ascontiguousarray(query, dtype=np.float64).tobytes()
    ).hexdigest()


def _targets():
    """(owner, attribute, span name, count hook, pre hook) per wrap point."""
    import repro.core.engine as engine
    import repro.core.lazylsh as lazylsh
    import repro.core.multiquery as multiquery
    import repro.durability as durability
    import repro.durability.checkpoint as checkpoint
    import repro.persistence as persistence
    import repro.serve.service as service
    from repro.core.hashing import StableHashBank
    from repro.durability.feed import WalFeed
    from repro.durability.wal import WriteAheadLog
    from repro.storage.inverted_index import InvertedListStore
    from repro.storage.pages import PageTracker

    lazy = lazylsh.LazyLSH
    svc = service.ShardedSearchService
    return [
        (lazy, "build", "core.build", None, None),
        (lazy, "metric_params", "core.metric_params", None, None),
        (lazy, "knn", "core.knn", None, None),
        (StableHashBank, "hash_points", "core.hash", None, None),
        (engine, "charge_ring_hulls", "core.charge", None, None),
        (service, "charge_ring_hulls", "core.charge", None, None),
        (PageTracker, "charge", "core.charge", None, None),
        (InvertedListStore, "batch_entry_positions", "storage.entry_search",
         None, None),
        (InvertedListStore, "gather_segments32", "storage.gather",
         _gathered, None),
        (InvertedListStore, "insert", "storage.insert", None, None),
        (engine, "lp_distance", "metrics.lp", _rows, None),
        (lazylsh, "lp_distance", "metrics.lp", _rows, None),
        (multiquery, "lp_distance", "metrics.lp", _rows, None),
        (svc, "__init__", "serve.fleet_start", None, None),
        (svc, "search_batch", "serve.search_batch", _busy_after, _busy_before),
        (svc, "ingest", "serve.ingest", _records, None),
        (WriteAheadLog, "append_insert", "durability.wal_append", None, None),
        (WriteAheadLog, "append_remove", "durability.wal_append", None, None),
        (WalFeed, "poll", "durability.feed_poll", None, None),
        (checkpoint, "write_checkpoint", "durability.checkpoint_write",
         None, None),
        (durability, "recover", "durability.recover", None, None),
        (checkpoint, "apply_record", "durability.replay_record", None, None),
        (checkpoint, "save_index", "persistence.save", None, None),
        (checkpoint, "load_index", "persistence.load", None, None),
        (persistence, "save_index", "persistence.save", None, None),
        (persistence, "load_index", "persistence.load", None, None),
    ]


class Tracer:
    """In-memory span recorder; ``phase`` tags every span it opens."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._stack: list[Span] = []
        self._request: str | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def set_request(self, request_id: str | None) -> None:
        """Request id stamped on the spans opened from now on."""
        self._request = request_id

    def _open(self, name: str) -> Span:
        stack = self._stack
        span = Span(
            next(self._ids),
            stack[-1].sid if stack else None,
            self._request,
            name,
            self.phase,
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name, count, before):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.info = (
                    count(args, kwargs, result, state) if before is not None
                    else count(args, kwargs)
                )
            return result

        return wrapper

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for owner, attr, name, count, before in _targets():
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count, before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- analysis ------------------------------------------------------

    def select(self, name: str, phase: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (phase is None or s.phase == phase)
        ]

    def total(self, name: str, phase: str | None = None) -> float:
        return sum(s.seconds for s in self.select(name, phase))

    def within(self, spans: list[Span], name: str) -> list[Span]:
        """The spans among ``spans`` that have an ancestor called ``name``."""
        by_id = {s.sid: s for s in self.spans}

        def inside(span: Span) -> bool:
            parent = by_id.get(span.parent)
            while parent is not None:
                if parent.name == name:
                    return True
                parent = by_id.get(parent.parent)
            return False

        return [s for s in spans if inside(s)]

    def self_times(self) -> dict[int, float]:
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.seconds
        return {s.sid: s.seconds - child[s.sid] for s in self.spans}

    def nesting_ok(self) -> bool:
        """Every span's children fit inside it, in time and in total."""
        by_id = {s.sid: s for s in self.spans}
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is None:
                continue
            parent = by_id.get(s.parent)
            if parent is None or s.t0 < parent.t0 or s.t1 > parent.t1:
                return False
            child[s.parent] += s.seconds
        return all(
            child[sid] <= by_id[sid].seconds + 1e-9 for sid in child
        )

    def summary(self, phase: str) -> dict[str, dict]:
        """Calls, total and self milliseconds per span name in ``phase``."""
        selfs = self.self_times()
        table: dict[str, dict] = {}
        for s in self.spans:
            if s.phase != phase:
                continue
            row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0,
                                            "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += s.seconds * 1e3
            row["self_ms"] += selfs[s.sid] * 1e3
        return dict(sorted(table.items()))

    def write_jsonl(self, path: Path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s in self.spans:
                info = s.info if isinstance(s.info, (int, float)) else (
                    {"busy": s.info["busy"]} if isinstance(s.info, dict)
                    else None
                )
                fh.write(json.dumps({
                    "span_id": s.sid,
                    "parent_id": s.parent,
                    "request_id": s.request,
                    "name": s.name,
                    "phase": s.phase,
                    "start_s": s.t0,
                    "duration_ms": s.seconds * 1e3,
                    "self_ms": selfs[s.sid] * 1e3,
                    "info": info,
                }) + "\n")
