"""In-place splice of packed sorted runs: the index's insert kernel.

An inverted-list store keeps ``F`` sorted runs of one common width ``w``
packed row-major in one flat array, so run ``f`` is ``flat[f * w:(f +
1) * w]``.  Inserting the same number of entries into every run keeps
that layout without any per-run bookkeeping: given the new entries' flat
``side="right"`` insertion positions in ascending order, the old entries
between the ``(j-1)``-th and ``j``-th position move right by ``j``, and
each run boundary moves with the entries around it.  The store
(:meth:`~repro.storage.inverted_index.InvertedListStore.insert`) and
each shard worker (``ShardSearcher._apply_insert_delta`` in
:mod:`repro.serve.worker`) apply an insert through :func:`splice`.

The runs live as the *used prefix* of a grow-only 1-D buffer.  A splice
shifts the old segments back to front inside that buffer, so every move
lands on memory that no later move reads, then writes each new entry
into its gap: an insert costs one pass of memory traffic over the runs
and allocates nothing the size of the index.  Only when the buffer is
out of room, or when the runs are not the prefix of a buffer this kernel
returned (a fresh build, a read-only memory map, a shared-memory
segment), are they copied, segment by segment, into a new buffer
:data:`GROWTH` times the spliced length.  The source is never written,
so mapped files and shared segments stay pristine, and the headroom is
never touched, so the OS does not make it resident.

Callers own the aliasing rule that makes shifting in place safe: no view
of a buffer may be handed out of the host, because the next splice moves
the entries under it.
"""

from __future__ import annotations

import numpy as np

#: Capacity of a newly allocated run buffer, as a multiple of the runs'
#: spliced length: geometric growth keeps the copying of regrowth an
#: amortised constant factor per inserted entry.
GROWTH = 1.5


def _prefix_of(buf: np.ndarray | None, run: np.ndarray, need: int) -> bool:
    """True when ``run`` is the start of ``buf`` and ``buf`` holds ``need``."""
    return (
        buf is not None
        and buf.shape[0] >= need
        and run.flags.c_contiguous
        and buf.__array_interface__["data"][0]
        == run.__array_interface__["data"][0]
    )


def _new_buffer(need: int, dtype) -> np.ndarray:
    return np.empty(int(need * GROWTH) + 1, dtype=dtype)


def reserve(buf: np.ndarray | None, run: np.ndarray, extra: int) -> np.ndarray:
    """A writable buffer holding ``run`` as its prefix, with ``extra`` room.

    ``buf`` itself when ``run`` already is its prefix and it has the
    room; otherwise ``run`` is copied into a grown buffer.
    """
    flat = run.reshape(-1)
    used = flat.shape[0]
    if _prefix_of(buf, flat, used + extra):
        return buf
    out = _new_buffer(used + extra, flat.dtype)
    out[:used] = flat
    return out


def splice(
    buf: np.ndarray | None,
    run: np.ndarray,
    positions: np.ndarray,
    entries: np.ndarray,
) -> np.ndarray:
    """Insert ``entries`` into the packed runs ``run`` at flat ``positions``.

    ``run`` is the runs' current array (flat or row-major 2-D) and
    ``buf`` the buffer a previous splice returned for it, or None.
    ``positions`` are the entries' ascending ``side="right"`` insertion
    positions into ``run``'s flat layout, one per entry of ``entries``
    in the same order; entries sharing a position keep that order.

    Returns the buffer whose first ``run.size + len(entries)`` items are
    the spliced runs: ``buf``, shifted in place, when ``run`` is its
    prefix and it has room; otherwise a new buffer, filled without
    writing to ``run``.
    """
    flat = run.reshape(-1)
    used = flat.shape[0]
    k = int(positions.shape[0])
    out = buf if _prefix_of(buf, flat, used + k) else None
    if out is None:
        out = _new_buffer(used + k, flat.dtype)
    # Old segment j, [positions[j-1], positions[j]), lands j slots right.
    # Back to front, a move only overwrites slots already moved out of.
    bounds = positions.tolist()
    stop = used
    for j in range(k, 0, -1):
        start = bounds[j - 1]
        if stop > start:
            out[start + j : stop + j] = flat[start:stop]
        stop = start
    if out is not buf:
        out[:stop] = flat[:stop]
    out[positions + np.arange(k, dtype=np.int64)] = entries
    return out
