"""Simulated disk substrate with the paper's I/O accounting (Sec. 5.2).

The original LazyLSH evaluation measures cost as simulated I/Os against
4 KB pages: loading one block of an inverted list counts as one
*sequential* I/O, and visiting one data object to compute its true distance
counts as one *random* I/O.  This package reproduces exactly that model:

* :mod:`repro.storage.io_stats` — counters shared by index and baselines,
* :mod:`repro.storage.pages` — block-layout arithmetic for fixed-size
  records on 4 KB pages,
* :mod:`repro.storage.inverted_index` — the per-hash-function sorted
  ``(hash value, id)`` runs that back virtual/query-centric rehashing,
* :mod:`repro.storage.splice` — the in-place insert kernel that merges
  a batch into packed sorted runs held in grow-only buffers,
* :mod:`repro.storage.backend` — the eager (in-RAM) and mmap
  (page-cache-backed) array sources the store can run over.
"""

from repro.storage.backend import (
    EagerBackend,
    MmapBackend,
    SearchState,
    StorageBackend,
)
from repro.storage.inverted_index import InvertedListStore
from repro.storage.io_stats import IOStats
from repro.storage.pages import PageLayout, DEFAULT_PAGE_SIZE, DEFAULT_ENTRY_SIZE

__all__ = [
    "DEFAULT_ENTRY_SIZE",
    "DEFAULT_PAGE_SIZE",
    "EagerBackend",
    "IOStats",
    "InvertedListStore",
    "MmapBackend",
    "PageLayout",
    "SearchState",
    "StorageBackend",
]
