"""Storage backends for :class:`~repro.storage.inverted_index.InvertedListStore`.

The store's execution engine only ever *reads* its arrays (sorted runs,
int32 shadows, coarse search keys), and an insert never writes to a
backend's arrays: it splices into private buffers, copying each array
out of the backend the first time.  That makes the array source
pluggable: an :class:`EagerBackend` owns plain
in-RAM ``ndarray`` objects (the classic path), while an
:class:`MmapBackend` holds read-only ``np.memmap`` views into the
page-aligned sections of a format-v3 index file
(:mod:`repro.persistence`).  Opening an mmap-backed store is O(1) in index
size — the kernel maps the file and faults pages in on first touch, so the
OS page cache plays the role of the buffer pool that
:class:`~repro.storage.pages.PageTracker` merely simulates.

Both backends can carry the precomputed two-level search state
(:class:`SearchState`) written by the v3 saver, so a store restored
through :meth:`InvertedListStore.from_backend` never scans the runs at
open time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.errors import InvalidParameterError

__all__ = ["SearchState", "StorageBackend", "EagerBackend", "MmapBackend"]


@dataclass(frozen=True)
class SearchState:
    """Precomputed two-level window-search state of a sorted store.

    Mirrors what ``InvertedListStore._rebuild_search_keys`` derives from
    the runs (``vmin``, ``stride``, coarse rows per run) so a reader can
    restore the search index without touching the value arrays.
    """

    vmin: int
    stride: int
    top_per_row: int


@dataclass
class StorageBackend:
    """Array source for an :class:`InvertedListStore`.

    ``values``/``ids`` are the mandatory ``(num_functions, num_points)``
    sorted runs.  ``ids32``/``rel32``/``row_top`` are the optional
    flat search-acceleration arrays (present whenever the hash-value
    stride fits int32); when given alongside ``search_state`` the store
    skips ``_rebuild_search_keys`` entirely.
    """

    kind = "eager"

    values: np.ndarray
    ids: np.ndarray
    ids32: np.ndarray | None = None
    rel32: np.ndarray | None = None
    row_top: np.ndarray | None = None
    search_state: SearchState | None = None
    source_path: Path | None = field(default=None)

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape != self.ids.shape:
            raise InvalidParameterError(
                "backend values/ids must be matching 2-D run matrices, got "
                f"{self.values.shape} / {self.ids.shape}"
            )

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every array the backend holds (present ones only)."""
        out: list[np.ndarray] = [self.values, self.ids]
        for arr in (self.ids32, self.rel32, self.row_top):
            if arr is not None:
                out.append(arr)
        return tuple(out)

    def resident_bytes(self) -> int:
        """Bytes held in ordinary RAM arrays."""
        return sum(
            a.nbytes for a in self.arrays() if not isinstance(a, np.memmap)
        )

    def mapped_bytes(self) -> int:
        """Bytes backed by file mappings (paged in lazily by the OS)."""
        return sum(a.nbytes for a in self.arrays() if isinstance(a, np.memmap))


class EagerBackend(StorageBackend):
    """Plain in-RAM arrays — the classic store representation."""

    kind = "eager"


class MmapBackend(StorageBackend):
    """Read-only ``np.memmap`` views into a v3 index file.

    The arrays stay valid as long as the mappings are alive; the file on
    disk must not be rewritten in place (the v3 writer's tmp+rename
    protocol guarantees readers never observe a partial file).
    """

    kind = "mmap"
