"""Property-based tests (hypothesis) on the core invariants.

These cover the mathematical backbone the paper's guarantees stand on:
norm identities, the Eq. 11 bounds, Lemma 2/3 scale invariance, window
arithmetic, page accounting, the Algorithm-4 crossing kernel and the
in-place insert splice of the inverted lists.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.engine import _SLACK_DEAD, crossings
from repro.core.hashing import original_window, query_centric_window
from repro.eval.ratio import overall_ratio
from repro.metrics.collision import collision_probability
from repro.metrics.lp import l1_bounds, lp_distance, lp_norm, norm_equivalence_bounds
from repro.storage.backend import MmapBackend, SearchState
from repro.storage.inverted_index import InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout
from repro.storage.splice import reserve, splice

# Strategies ---------------------------------------------------------------

# Coordinates are either exactly zero or of sane magnitude: denormal
# inputs (1e-190 and the like) underflow any fractional power round-trip
# and are outside the library's supported domain.
_coords = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=-100.0, max_value=-1e-3),
)

finite_vectors = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=12),
    elements=_coords,
)

p_values = st.sampled_from([0.4, 0.5, 0.7, 1.0, 1.3, 2.0])


def paired_vectors():
    return st.integers(min_value=1, max_value=12).flatmap(
        lambda d: st.tuples(
            hnp.arrays(
                np.float64,
                d,
                elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            ),
            hnp.arrays(
                np.float64,
                d,
                elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
            ),
        )
    )


# lp geometry ---------------------------------------------------------------


class TestLpProperties:
    @given(v=finite_vectors, p=p_values)
    def test_norm_non_negative(self, v, p):
        assert lp_norm(v, p) >= 0.0

    @given(v=finite_vectors, p=p_values)
    def test_norm_zero_iff_zero_vector(self, v, p):
        norm = float(lp_norm(v, p))
        if np.all(v == 0.0):
            assert norm == 0.0
        else:
            assert norm > 0.0

    @given(pair=paired_vectors(), p=p_values)
    def test_distance_symmetry(self, pair, p):
        x, y = pair
        assert float(lp_distance(x, y, p)) == pytest.approx(
            float(lp_distance(y, x, p)), rel=1e-9, abs=1e-12
        )

    @given(
        pair=paired_vectors(),
        p=p_values,
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    def test_homogeneity_lemma3(self, pair, p, scale):
        # lp(c*x, c*y) == c * lp(x, y): the identity behind Lemma 3.
        x, y = pair
        base = float(lp_distance(x, y, p))
        scaled = float(lp_distance(scale * x, scale * y, p))
        assert scaled == pytest.approx(scale * base, rel=1e-7, abs=1e-9)

    @given(pair=paired_vectors())
    def test_triangle_inequality_holds_for_p_geq_1(self, pair):
        x, y = pair
        origin = np.zeros_like(x)
        for p in (1.0, 1.5, 2.0):
            direct = float(lp_distance(x, y, p))
            via = float(lp_distance(x, origin, p)) + float(lp_distance(origin, y, p))
            assert direct <= via + 1e-7 * max(1.0, via)

    @given(pair=paired_vectors(), p=st.sampled_from([0.4, 0.5, 0.7, 0.9]))
    def test_fractional_distance_at_least_l1(self, pair, p):
        # For 0 < p < 1 the lp "distance" dominates l1.
        x, y = pair
        assert float(lp_distance(x, y, p)) >= float(lp_distance(x, y, 1.0)) - 1e-9


class TestBoundsProperties:
    @given(pair=paired_vectors(), p=p_values)
    def test_eq11_bounds_always_contain_l1(self, pair, p):
        x, y = pair
        d = x.shape[0]
        delta = float(lp_distance(x, y, p))
        lower, upper = l1_bounds(delta, d, p)
        l1 = float(lp_distance(x, y, 1.0))
        tol = 1e-9 * max(1.0, upper)
        assert lower - tol <= l1 <= upper + tol

    @given(pair=paired_vectors(), p=p_values, s=st.sampled_from([1.0, 2.0]))
    def test_generalised_bounds_contain_ls(self, pair, p, s):
        x, y = pair
        d = x.shape[0]
        delta = float(lp_distance(x, y, p))
        lower, upper = norm_equivalence_bounds(delta, d, p, s)
        ls = float(lp_distance(x, y, s))
        tol = 1e-9 * max(1.0, upper)
        assert lower - tol <= ls <= upper + tol

    @given(
        d=st.integers(min_value=1, max_value=2000),
        p=p_values,
        delta=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_bounds_ordered(self, d, p, delta):
        lower, upper = l1_bounds(delta, d, p)
        assert 0.0 <= lower <= upper


class TestCollisionProperties:
    @given(
        s=st.floats(min_value=0.001, max_value=100.0),
        r0=st.floats(min_value=0.001, max_value=100.0),
        scale=st.floats(min_value=0.01, max_value=100.0),
        p=st.sampled_from([1.0, 2.0]),
    )
    def test_lemma2_scale_invariance(self, s, r0, scale, p):
        assert collision_probability(s, r0, p) == pytest.approx(
            collision_probability(s * scale, r0 * scale, p), rel=1e-6, abs=1e-9
        )

    @given(
        s=st.floats(min_value=0.0, max_value=1000.0),
        r0=st.floats(min_value=0.001, max_value=1000.0),
        p=st.sampled_from([1.0, 2.0]),
    )
    def test_probability_in_unit_interval(self, s, r0, p):
        val = collision_probability(s, r0, p)
        assert -1e-12 <= val <= 1.0 + 1e-12


class TestWindowProperties:
    @given(
        hq=st.integers(min_value=-(10**6), max_value=10**6),
        level=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_query_centric_contains_query_symmetrically(self, hq, level):
        lo, hi = query_centric_window(hq, level)
        assert lo <= hq <= hi
        assert hq - lo == hi - hq

    @given(
        hq=st.integers(min_value=-(10**6), max_value=10**6),
        level=st.floats(min_value=1.0, max_value=1e6),
    )
    def test_original_contains_query(self, hq, level):
        lo, hi = original_window(hq, level)
        assert lo <= hq <= hi
        assert hi - lo + 1 == max(1, int(math.floor(level)))

    @given(
        hq=st.integers(min_value=-(10**4), max_value=10**4),
        level=st.floats(min_value=1.0, max_value=1e4),
        factor=st.integers(min_value=2, max_value=5),
    )
    def test_query_centric_windows_nest(self, hq, level, factor):
        inner = query_centric_window(hq, level)
        outer = query_centric_window(hq, level * factor)
        assert outer[0] <= inner[0] and inner[1] <= outer[1]


@st.composite
def scan_streams(draw):
    """A scan's row-id stream split into functions, plus per-row slack.

    Functions may scan nothing, and some rows are dead (_SLACK_DEAD).
    """
    n_rows = draw(st.integers(min_value=1, max_value=10))
    lens = draw(st.lists(st.integers(0, 8), min_size=1, max_size=6))
    sub = np.array(
        draw(st.lists(st.integers(0, n_rows - 1), min_size=sum(lens),
                      max_size=sum(lens))),
        dtype=np.int64,
    )
    slack = np.array(
        draw(st.lists(st.one_of(st.integers(0, 4), st.just(_SLACK_DEAD)),
                      min_size=n_rows, max_size=n_rows)),
        dtype=np.int32,
    )
    bounds = np.concatenate([[0], np.cumsum(lens)]).astype(np.int64)
    return sub, slack, bounds


class TestCrossingKernel:
    @given(scan_streams())
    @settings(max_examples=200)
    def test_matches_per_entry_loop(self, stream):
        sub, slack, bounds = stream
        scratch = np.zeros(slack.shape[0], dtype=bool)
        add, elems, rel_func = crossings(sub, slack, bounds, scratch)
        # Reference: walk the scan entry by entry; a row crosses theta
        # at the entry that takes its count past its slack.
        counts = np.zeros(slack.shape[0], dtype=np.int64)
        want_elems, want_funcs = [], []
        for f in range(bounds.shape[0] - 1):
            for pos in range(bounds[f], bounds[f + 1]):
                row = sub[pos]
                counts[row] += 1
                if counts[row] == int(slack[row]) + 1:
                    want_elems.append(pos)
                    want_funcs.append(f)
        assert elems.tolist() == want_elems
        assert rel_func.tolist() == want_funcs
        if sub.size:
            assert add.tolist() == counts.tolist()
        else:
            assert add is None
        assert not scratch.any()


# Insert splice ---------------------------------------------------------------


@st.composite
def splice_cases(draw):
    """A flat run, a buffer state around it, and entries to insert."""
    used = draw(st.integers(0, 30))
    run = np.array(draw(st.lists(st.integers(-50, 50), min_size=used,
                                 max_size=used)), dtype=np.int64)
    k = draw(st.integers(0, 12))
    positions = np.sort(np.array(
        draw(st.lists(st.integers(0, used), min_size=k, max_size=k)),
        dtype=np.int64,
    ))
    entries = np.arange(1000, 1000 + k, dtype=np.int64)
    room = draw(st.sampled_from(["none", "short", "ample"]))
    return run, positions, entries, room


class TestSpliceKernel:
    @given(splice_cases())
    @settings(max_examples=200)
    def test_matches_np_insert(self, case):
        run, positions, entries, room = case
        want = np.insert(run, positions, entries)
        source = run.copy()
        source.flags.writeable = False
        buf = None
        if room != "none":
            extra = entries.size if room == "ample" else max(entries.size - 1, 0)
            buf = np.full(run.size + extra, -7, dtype=np.int64)
            buf[: run.size] = run
            source = buf[: run.size]
        out = splice(buf, source, positions, entries)
        np.testing.assert_array_equal(out[: want.size], want)
        if buf is not None and out is not buf:
            # Regrowth copies out of the old buffer without writing to it.
            np.testing.assert_array_equal(buf[: run.size], run)
        if room == "ample":
            assert out is buf
        if room == "none":
            assert out.size > want.size  # geometric headroom

    def test_reserve_copies_only_foreign_or_full_runs(self):
        run = np.arange(6, dtype=np.int64)
        run.flags.writeable = False
        buf = reserve(None, run, 4)
        assert buf.flags.writeable and buf.size >= 10
        np.testing.assert_array_equal(buf[:6], run)
        assert reserve(buf, buf[:6], 4) is buf
        grown = reserve(buf, buf[:6], buf.size)
        assert grown is not buf
        np.testing.assert_array_equal(grown[:6], run)


def _expected_plan(old_values, batch, ids):
    """InsertPlan fields by the per-function definition."""
    order = np.argsort(batch, axis=1, kind="stable")
    values = np.take_along_axis(batch, order, axis=1)
    rel = np.stack([
        np.searchsorted(old_values[f], values[f], side="right")
        for f in range(batch.shape[0])
    ])
    dest = rel + np.arange(batch.shape[1])[None, :]
    return values, ids[order], rel, dest


def _mmap_store(hash_values, home: Path) -> InvertedListStore:
    """A store over read-only memory maps of a fresh store's arrays."""
    fresh = InvertedListStore(hash_values)
    arrays = {
        "values": fresh._values,
        "ids": fresh._ids,
        "ids32": fresh._ids.ravel().astype(np.int32),
        "rel32": fresh._rel32,
        "row_top": fresh._row_top,
    }
    maps = {}
    for name, arr in arrays.items():
        np.save(home / f"{name}.npy", arr)
        maps[name] = np.load(home / f"{name}.npy", mmap_mode="r")
    backend = MmapBackend(
        search_state=SearchState(
            vmin=fresh._vmin, stride=fresh._stride,
            top_per_row=fresh._top_per_row,
        ),
        source_path=home,
        **maps,
    )
    store = InvertedListStore.from_backend(backend)
    assert store.backend_kind == "mmap"
    return store


def _assert_store_equals_fresh(store, hash_values):
    fresh = InvertedListStore(hash_values)
    np.testing.assert_array_equal(store._values, fresh._values)
    np.testing.assert_array_equal(store._ids, fresh._ids)
    assert store._values.shape == fresh._values.shape
    assert (store._vmin, store._stride) == (fresh._vmin, fresh._stride)
    assert store._top_per_row == fresh._top_per_row
    np.testing.assert_array_equal(store._rel32, fresh._rel32)
    np.testing.assert_array_equal(store._row_top, fresh._row_top)
    np.testing.assert_array_equal(
        store._ids32_flat, fresh._ids.ravel().astype(np.int32)
    )
    # Every window over and around the value range reads identically.
    num_funcs = hash_values.shape[0]
    lo_v, hi_v = int(hash_values.min()), int(hash_values.max())
    funcs, los, his = [], [], []
    for f in range(num_funcs):
        for lo in range(lo_v - 1, hi_v + 2, 3):
            funcs.append(f)
            los.append(lo)
            his.append(lo + 2)
    got_io, want_io = IOStats(), IOStats()
    got = store.read_windows(np.array(funcs), np.array(los), np.array(his),
                             stats=got_io)
    want = fresh.read_windows(np.array(funcs), np.array(los), np.array(his),
                              stats=want_io)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got_io == want_io


@st.composite
def insert_sequences(draw):
    """A small store and a sequence of insert batches.

    Initial values lie in [0, 12]; batch values in [-3, 16], so batches
    tie with existing values, reach below ``vmin`` (the full-rebuild
    path) and above ``vmax``.
    """
    num_funcs = draw(st.integers(1, 4))
    n0 = draw(st.integers(1, 16))
    initial = np.array(
        draw(st.lists(st.integers(0, 12), min_size=num_funcs * n0,
                      max_size=num_funcs * n0)),
        dtype=np.int64,
    ).reshape(num_funcs, n0)
    batches = []
    for m in draw(st.lists(st.integers(1, 6), min_size=1, max_size=8)):
        batches.append(np.array(
            draw(st.lists(st.integers(-3, 16), min_size=num_funcs * m,
                          max_size=num_funcs * m)),
            dtype=np.int64,
        ).reshape(num_funcs, m))
    backend = draw(st.sampled_from(["eager", "mmap"]))
    return initial, batches, backend


def _run_inserts(initial, batches, backend):
    with tempfile.TemporaryDirectory() as tmp:
        if backend == "mmap":
            store = _mmap_store(initial, Path(tmp))
            pristine = {
                p.name: p.read_bytes() for p in Path(tmp).glob("*.npy")
            }
        else:
            store = InvertedListStore(initial)
            # Materialise the int32 id shadow so inserts must keep it.
            store.gather_segments32(np.zeros(1, dtype=np.int64),
                                    np.ones(1, dtype=np.int64))
        hash_values = initial
        for batch in batches:
            n = hash_values.shape[1]
            ids = np.arange(n, n + batch.shape[1], dtype=np.int64)
            old_values = store._values.copy()
            plan = store.insert(batch, ids)
            values, plan_ids, rel, dest = _expected_plan(old_values, batch, ids)
            np.testing.assert_array_equal(plan.values, values)
            np.testing.assert_array_equal(plan.ids, plan_ids)
            np.testing.assert_array_equal(plan.rel_positions, rel)
            np.testing.assert_array_equal(plan.dest_positions, dest)
            assert plan.old_rows == n
            hash_values = np.concatenate([hash_values, batch], axis=1)
            _assert_store_equals_fresh(store, hash_values)
        if backend == "mmap":
            for p in Path(tmp).glob("*.npy"):
                assert p.read_bytes() == pristine[p.name]
        return store


class TestStoreInsertProperties:
    @given(insert_sequences())
    @settings(max_examples=120, deadline=None)
    def test_insert_sequence_equals_fresh_build(self, case):
        _run_inserts(*case)

    @pytest.mark.parametrize("backend", ["eager", "mmap"])
    def test_named_cases(self, backend):
        base = np.array([[2, 5, 5, 9], [0, 3, 3, 12]], dtype=np.int64)
        batches = [
            np.array([[5], [3]]),  # one point, tying existing values
            np.array([[20, 5], [30, 0]]),  # above vmax, and ties
            np.array([[-4, 7], [1, -9]]),  # below vmin: full rebuild
            np.array([[9, 9, 9], [12, 12, -9]]),
        ]
        store = _run_inserts(base, batches, backend)
        assert store.backend_kind == "eager"

    def test_inserts_shift_in_place_until_capacity_runs_out(self):
        rng = np.random.default_rng(3)
        hash_values = rng.integers(0, 40, (3, 30))
        store = InvertedListStore(hash_values)
        store.gather_segments32(np.zeros(1, dtype=np.int64),
                                np.ones(1, dtype=np.int64))
        buffers = []
        for step in range(12):
            batch = rng.integers(0, 40, (3, 4))
            n = hash_values.shape[1]
            store.insert(batch, np.arange(n, n + 4))
            hash_values = np.concatenate([hash_values, batch], axis=1)
            buffers.append(store._buffers["_values"])
            _assert_store_equals_fresh(store, hash_values)
        reused = sum(a is b for a, b in zip(buffers, buffers[1:]))
        regrown = len(buffers) - 1 - reused
        assert reused >= 5 and regrown >= 1


class TestPageProperties:
    @given(
        start=st.integers(min_value=0, max_value=10**6),
        length=st.integers(min_value=0, max_value=10**5),
        entry_size=st.sampled_from([4, 8, 16, 64]),
    )
    def test_page_count_bounds(self, start, length, entry_size):
        layout = PageLayout(page_size=4096, entry_size=entry_size)
        pages = layout.pages_for_range(start, start + length)
        per_page = layout.entries_per_page
        if length == 0:
            assert pages == 0
        else:
            minimum = -(-length // per_page)
            assert minimum <= pages <= minimum + 1

    @given(
        start=st.integers(min_value=0, max_value=10**5),
        split=st.integers(min_value=0, max_value=10**4),
        length=st.integers(min_value=0, max_value=10**4),
    )
    def test_splitting_a_range_never_cheaper(self, start, split, length):
        # Reading [a, b) as two pieces costs at least the contiguous read.
        layout = PageLayout()
        mid = start + min(split, length)
        stop = start + length
        whole = layout.pages_for_range(start, stop)
        pieces = layout.pages_for_range(start, mid) + layout.pages_for_range(mid, stop)
        assert pieces >= whole


class TestRatioProperties:
    @given(
        true=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.1, max_value=1e3),
        ),
        slack=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.0, max_value=10.0),
        ),
    )
    @settings(max_examples=60)
    def test_ratio_at_least_one_when_reported_dominates(self, true, slack):
        n = min(true.shape[0], slack.shape[0])
        true = np.sort(true[:n])
        reported = np.sort(true + slack[:n])
        assert overall_ratio(reported, true) >= 1.0 - 1e-12

    @given(
        true=hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.floats(min_value=0.1, max_value=1e3),
        )
    )
    def test_identity_ratio(self, true):
        true = np.sort(true)
        assert overall_ratio(true, true) == pytest.approx(1.0)
