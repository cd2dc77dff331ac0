"""Kill -9 crash recovery: the durability guarantee end to end.

A child process ingests update batches through a fsync-on-commit
:class:`~repro.durability.wal.DurableIndex`, publishing the last
durably committed LSN through shared memory after every commit.  The
parent SIGKILLs it at a randomized point mid-ingest, recovers the home
directory, and asserts the recovery invariant:

* every record the child acked before dying survived (``last_lsn`` of
  the recovered log >= the published acked LSN), and
* the recovered index is bit-identical (data, tombstones, inverted
  lists, kNN answers) to a reference built by replaying exactly the
  surviving log prefix onto the initial checkpoint.

The kill lands at whatever record the timing produces for each seed —
including inside an append — so the torn-tail truncation path gets
exercised organically.
"""

import multiprocessing as mp
import os
import signal
import time

import numpy as np
import pytest

from repro import LazyLSH, LazyLSHConfig
from repro.datasets import make_synthetic
from repro.durability import create, recover
from repro.durability.checkpoint import (
    _reference_index_from,
    states_identical,
)

CFG = dict(c=3.0, p_min=0.7, seed=41, mc_samples=10_000, mc_buckets=60)


def _build(n=240, d=10, seed=40):
    data = make_synthetic(n, d, value_range=(0, 200), seed=seed)
    return LazyLSH(LazyLSHConfig(**CFG)).build(data), data


def _ingest_forever(home: str, acked) -> None:
    """Child: recover the home and commit batches until killed."""
    durable, _report = recover(home, sync=True)
    rng = np.random.default_rng(1000)
    i = 0
    while True:
        if i % 5 == 4 and durable.num_points > 4:
            victim = int(rng.integers(0, durable.num_rows))
            if durable.index._alive[victim]:
                durable.remove([victim])
            else:
                durable.insert(rng.uniform(0, 200, size=(1, 10)))
        else:
            durable.insert(rng.uniform(0, 200, size=(3, 10)))
        # Sole writer of an unsynchronised cell: a SIGKILL here can
        # never leave a lock held for the parent's reads to block on.
        acked.value = durable.last_lsn
        i += 1


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sigkill_mid_ingest_recovers_acked_prefix(tmp_path, seed):
    index, data = _build()
    create(index, tmp_path, sync=True).close()

    ctx = mp.get_context("fork")
    acked = ctx.Value("q", 0, lock=False)
    child = ctx.Process(
        target=_ingest_forever, args=(str(tmp_path), acked), daemon=True
    )
    child.start()
    try:
        # Let the child commit a randomized number of records, then
        # SIGKILL it mid-flight — no atexit, no flush, no cleanup.
        target = 3 + np.random.default_rng(seed).integers(0, 12)
        deadline = time.monotonic() + 60
        while acked.value < target:
            if not child.is_alive() or time.monotonic() > deadline:
                pytest.fail(
                    f"child stalled at LSN {acked.value} (target {target})"
                )
            time.sleep(0.002)
        os.kill(child.pid, signal.SIGKILL)
    finally:
        child.join(timeout=10)
    acked_lsn = acked.value
    assert acked_lsn >= target

    durable, report = recover(tmp_path, sync=False)
    try:
        # Durability: every acked record survived the SIGKILL.
        assert durable.last_lsn >= acked_lsn
        assert report["replayed_records"] == durable.last_lsn
        # Equivalence: recovered state == replaying the surviving
        # prefix onto the initial checkpoint.
        reference = _reference_index_from(tmp_path)
        assert states_identical(
            durable.index, reference, queries=data[:3], k=5
        )
        # And the recovered index keeps working.
        durable.insert(np.full((1, 10), 3.0))
        result = durable.knn(np.full(10, 3.0), 1, p=1.0)
        assert result.ids[0] == durable.num_rows - 1
    finally:
        durable.close()


def test_back_to_back_crashes_accumulate(tmp_path):
    """Crash, recover, ingest more, crash again: history stays intact."""
    index, data = _build()
    create(index, tmp_path, sync=True).close()
    ctx = mp.get_context("fork")
    seen_lsns = []
    for round_no in range(2):
        acked = ctx.Value("q", 0, lock=False)
        child = ctx.Process(
            target=_ingest_forever, args=(str(tmp_path), acked), daemon=True
        )
        child.start()
        deadline = time.monotonic() + 60
        target = (seen_lsns[-1] + 4) if seen_lsns else 4
        while acked.value < target:
            if not child.is_alive() or time.monotonic() > deadline:
                pytest.fail("child stalled")
            time.sleep(0.002)
        os.kill(child.pid, signal.SIGKILL)
        child.join(timeout=10)
        seen_lsns.append(acked.value)
    durable, _report = recover(tmp_path, sync=False)
    try:
        assert durable.last_lsn >= seen_lsns[-1] > seen_lsns[0]
        assert states_identical(
            durable.index, _reference_index_from(tmp_path), queries=data[:2]
        )
    finally:
        durable.close()
