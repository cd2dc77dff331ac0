"""Shared pieces of the repository benchmark: data, queries, quality, stats.

Everything a workload needs besides its own serving path lives here: the
seeded dataset and query stream, the exact ``lp`` ground truth behind
recall@k and the paper's overall ratio, percentile helpers, memory
readings from ``/proc`` and the set-up routine every workload repeats.
"""

from __future__ import annotations

import os
import platform
import shutil
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import LazyLSH, LazyLSHConfig
from repro.core.montecarlo import TABLE_CACHE
from repro.datasets.simulated import load_simulated
from repro.metrics.lp import lp_distance

#: The dataset and the index's hash functions are fixed; ``--seed`` draws
#: the traffic (query rows and noise, update records), so runs with
#: different seeds measure one index under different query streams.
DATA_SEED = 7
INDEX_SEED = 7
#: Points in the index, drawn from the simulated ``inria`` data (d=128).
N_INDEX = 10_000
#: Extra rows drawn from the same generator and never indexed at set-up:
#: query bases and points for insert records.
N_HELD = 2_000
#: Rows of the held-out pool reserved for insert records (the rest seed
#: queries), so an inserted point is never also a query base.
N_INSERT_POOL = 600
K = 10
C = 3.0
P_MIN = 0.5
#: The mixed-metric traffic on one index: p is drawn round-robin.
P_VALUES = (0.5, 0.75, 1.0)
#: Gaussian noise (value units; coordinates lie in [0, 255]) added to a
#: held-out row to make a query, so no query point repeats in a run.
QUERY_NOISE = 2.0
#: Records are 8-point inserts; one step in ``REMOVE_EVERY`` removes
#: ``REMOVE_SIZE`` original points instead.
RECORD_POINTS = 8
REMOVE_EVERY = 8
REMOVE_SIZE = 2
#: Shards of the sharded service, one worker process per CPU of a 2-CPU host.
SHARDS = 2
#: Untimed queries per metric after set-up, before any measurement.
WARMUP_PER_P = 2
#: Queries whose answers are scored against the exact ground truth.
QUALITY_SAMPLE = 120


@dataclass
class Dataset:
    """The arrays a run works on (the program sees only these)."""

    seed: int  # the workload seed: drives the traffic, not the data
    points: np.ndarray  # (N_INDEX, d) indexed at set-up
    held: np.ndarray  # (N_HELD, d) never indexed at set-up

    @property
    def d(self) -> int:
        return int(self.points.shape[1])

    @property
    def raw_bytes(self) -> int:
        return int(self.points.nbytes)


def index_config() -> LazyLSHConfig:
    return LazyLSHConfig(c=C, p_min=P_MIN, seed=INDEX_SEED)


def make_dataset(seed: int) -> Dataset:
    rows = load_simulated("inria", n=N_INDEX + N_HELD, seed=DATA_SEED)
    return Dataset(
        seed=seed,
        points=np.ascontiguousarray(rows[:N_INDEX]),
        held=np.ascontiguousarray(rows[N_INDEX:]),
    )


class QueryStream:
    """Never-repeating queries: held-out rows plus fresh Gaussian noise.

    Query ``i`` uses metric ``P_VALUES[i % 3]`` and the ``i``-th query row
    of a seeded permutation (cycling); its noise is drawn from a generator
    seeded by ``(seed, i)``, so the stream is a pure function of the seed.
    """

    def __init__(self, data: Dataset) -> None:
        self._bases = data.held[N_INSERT_POOL:]
        self._order = np.random.default_rng(data.seed).permutation(
            self._bases.shape[0])
        self._seed = data.seed
        self._next = 0

    def take(self) -> tuple[int, np.ndarray, float]:
        i = self._next
        self._next += 1
        noise = np.random.default_rng((self._seed, i)).normal(
            0.0, QUERY_NOISE, self._bases.shape[1]
        )
        query = self._bases[self._order[i % self._order.size]] + noise
        return i, query, P_VALUES[i % len(P_VALUES)]


class RecordStream:
    """The writer's steps: 8-point inserts, a small remove one step in 8."""

    def __init__(self, data: Dataset) -> None:
        self._pool = data.held[:N_INSERT_POOL]
        self._rng = np.random.default_rng((data.seed, 1))
        self._used = 0
        self.removed: set[int] = set()
        self.step = 0

    def take(self) -> tuple[str, np.ndarray]:
        """``("insert", points)`` or ``("remove", ids)``."""
        self.step += 1
        if self.step % REMOVE_EVERY == 0:
            ids: list[int] = []
            while len(ids) < REMOVE_SIZE:
                pid = int(self._rng.integers(0, N_INDEX))
                if pid not in self.removed:
                    self.removed.add(pid)
                    ids.append(pid)
            return "remove", np.array(ids, dtype=np.int64)
        lo = (self._used * RECORD_POINTS) % self._pool.shape[0]
        self._used += 1
        base = self._pool[lo : lo + RECORD_POINTS]
        # Fresh noise keeps points distinct even once the pool wraps.
        return "insert", base + self._rng.normal(0.0, QUERY_NOISE, base.shape)


def clear_parameter_cache() -> None:
    """Drop the process-wide Monte-Carlo tables so a set-up pays for them."""
    TABLE_CACHE.clear()


def build_and_warm(points: np.ndarray, timings: dict) -> LazyLSH:
    """``build`` plus warming every workload metric's parameters."""
    t0 = time.perf_counter()
    index = LazyLSH(index_config()).build(points)
    t1 = time.perf_counter()
    for p in P_VALUES:
        index.metric_params(p)
    t2 = time.perf_counter()
    timings["build_s"] = t1 - t0
    timings["params_warm_s"] = t2 - t1
    return index


def warmup_queries(data: Dataset, ask) -> None:
    """Untimed queries at every metric, from rows no measured query uses."""
    rng = np.random.default_rng((data.seed, 2))
    for j in range(WARMUP_PER_P * len(P_VALUES)):
        base = data.points[int(rng.integers(0, data.points.shape[0]))]
        ask(base + rng.normal(0.0, QUERY_NOISE, base.shape[0]),
            P_VALUES[j % len(P_VALUES)])


# ----------------------------------------------------------------------
# Answer quality against the exact lp ground truth
# ----------------------------------------------------------------------


@dataclass
class Quality:
    """Recall@k and overall ratio over a sample of answered queries."""

    recalls: list[float] = field(default_factory=list)
    ratios: list[float] = field(default_factory=list)

    def score(self, points: np.ndarray, alive: np.ndarray | None,
              query: np.ndarray, p: float, ids, distances) -> None:
        dists = lp_distance(points, query, p)
        if alive is not None:
            dists = np.where(alive, dists, np.inf)
        exact = np.argsort(dists, kind="stable")[:K]
        self.recalls.append(
            len(set(int(i) for i in ids) & set(int(i) for i in exact)) / K
        )
        true_d = dists[exact]
        got = np.asarray(distances, dtype=np.float64)[:K]
        self.ratios.append(float(np.mean(got / true_d[: got.size])))

    @property
    def recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else float("nan")

    @property
    def ratio(self) -> float:
        return float(np.mean(self.ratios)) if self.ratios else float("nan")


# ----------------------------------------------------------------------
# Stats, memory, provenance
# ----------------------------------------------------------------------


def pct(values, q: float) -> float:
    if len(values) == 0:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50.0)


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except FileNotFoundError:
        return 0.0
    return 0.0


def children_hwm_mb() -> float:
    """Summed VmHWM of this process's live multiprocessing children."""
    import multiprocessing

    return sum(vm_hwm_mb(p.pid) for p in multiprocessing.active_children())


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) CPU time of the whole host so far, from /proc/stat."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The service's shared-memory shard segments start it; left alone it
    outlives this process by the moment it takes to see its pipe close.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def child_pids() -> list[int]:
    """Pids of this process's children, ended ones (zombies) included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children(grace: float = 30.0) -> None:
    """Wait until no child process is left; kill those alive after ``grace``
    seconds."""
    deadline = time.monotonic() + grace
    while pids := child_pids():
        if time.monotonic() > deadline:
            for pid in pids:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.02)


def tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def provenance(data: Dataset, seconds: float, **extra) -> dict:
    info = {
        "seed": data.seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dataset": {
            "name": "inria (simulated)",
            "data_seed": DATA_SEED,
            "index_seed": INDEX_SEED,
            "indexed": list(data.points.shape),
            "held_out": list(data.held.shape),
            "k": K,
            "c": C,
            "p_min": P_MIN,
            "p_values": list(P_VALUES),
            "query_noise": QUERY_NOISE,
        },
        "run_seconds": seconds,
    }
    info.update(extra)
    return info


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def same_answer(a_ids, a_dists, a_seq, a_rand, b) -> bool:
    """Bit-identity of ids, distances and simulated I/O against ``b``."""
    return (
        np.array_equal(np.asarray(a_ids, dtype=np.int64), b.ids)
        and np.array_equal(np.asarray(a_dists, dtype=np.float64), b.distances)
        and int(a_seq) == int(b.io.sequential)
        and int(a_rand) == int(b.io.random)
    )


# ----------------------------------------------------------------------
# Run plumbing shared by the workloads
# ----------------------------------------------------------------------

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 2


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tracer: object  # tracing.Tracer
    work: Path  # scratch directory inside the checkout


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # end-to-end metrics (untraced run)
    layer: dict  # per-layer metrics (traced run)
    report: dict = field(default_factory=dict)


def measured_phases(ctx: Context) -> list[tuple[str, float, bool]]:
    """``(name, seconds, traced)``: one untraced phase, or for a traced
    run an untraced half followed by a traced half (their ratio is the
    tracing overhead)."""
    if not ctx.trace:
        return [("run", ctx.seconds, False)]
    half = ctx.seconds / 2.0
    return [("A", half, False), ("B", half, True)]


def enter_phase(ctx: Context, name: str, traced: bool) -> None:
    if traced:
        ctx.tracer.install()
    else:
        ctx.tracer.uninstall()
    ctx.tracer.phase = name
