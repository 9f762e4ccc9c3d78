"""Versioned immutable graph snapshots for the serving daemon.

The daemon's consistency contract rests on two facts:

* :class:`~repro.graph.csr.CSRGraph` is immutable — the delta engine
  (:func:`repro.cache.incremental.apply_edge_delta`) builds a *new*
  graph, so an old snapshot's arrays can never change under a reader;
* a snapshot's decomposition artefacts (the partition with α/β filled)
  are built once per (threshold, α/β-method) pair and memoised on the
  snapshot, so repeated queries skip the partition and alphabeta
  phases entirely — the warm-path saving the paper's Figure 8 says is
  there to take (those phases are cheap relative to BC, but on a warm
  LRU they *are* the query).  A delta seeds its successor's memo with
  the partition it derived, so no version after the first pays the
  decomposition.

:class:`SnapshotManager` hands out snapshots under a monotonic
``GraphVersion`` counter.  Readers pin the version they were routed to
(:meth:`SnapshotManager.acquire` is a context manager incrementing a
per-version refcount); ``POST /delta`` publishes a successor with
:meth:`SnapshotManager.advance`.  A superseded version stays resident
until its last reader drains, then retires — an ``on_retire`` hook
lets the score LRU drop entries that can never be requested again.

Nothing here is transactional in the database sense: a reader sees
exactly one committed version end to end, and which one is decided at
most once, at acquire time.  docs/SERVING.md states the contract.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

from repro.cache.fingerprint import graph_fingerprint
from repro.errors import ServeError
from repro.graph.csr import CSRGraph

__all__ = ["Snapshot", "SnapshotManager", "partition_key"]


def partition_key(config) -> Tuple[int, str]:
    """The memo key of a config's partition: the two fields the
    decomposition depends on."""
    return int(config.threshold), str(config.alpha_beta_method)


class Snapshot:
    """One immutable (version, graph) pair plus memoised decomposition.

    ``partition_for`` returns the graph's partition with α/β summaries
    already filled, keyed by the two config fields the decomposition
    depends on (``threshold``, ``alpha_beta_method``).  Concurrent
    requests for the same key build it once; the double-checked lock
    keeps the build itself outside no lock (partitioning a large graph
    takes real time and must not block requests for other keys — the
    per-key event makes waiters block only on *their* key).
    """

    def __init__(
        self,
        version: int,
        graph: CSRGraph,
        partitions: Optional[Dict[Tuple[int, str], object]] = None,
    ) -> None:
        self.version = int(version)
        self.graph = graph
        self.fingerprint = graph_fingerprint(graph)
        self._partitions: Dict[Tuple[int, str], object] = dict(
            partitions or {}
        )
        self._building: Dict[Tuple[int, str], threading.Event] = {}
        self._lock = threading.Lock()

    def partition_for(self, config) -> object:
        """The memoised α/β-filled partition for one config's key."""
        key = partition_key(config)
        while True:
            with self._lock:
                part = self._partitions.get(key)
                if part is not None:
                    return part
                event = self._building.get(key)
                if event is None:
                    event = threading.Event()
                    self._building[key] = event
                    break  # this thread builds
            event.wait()
        try:
            from repro.decompose.alphabeta import compute_alpha_beta
            from repro.decompose.partition import graph_partition

            part = graph_partition(self.graph, threshold=key[0])
            compute_alpha_beta(self.graph, part, method=key[1])
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            event.set()  # waiters retry (and may rebuild)
            raise
        with self._lock:
            self._partitions[key] = part
            self._building.pop(key, None)
        event.set()
        return part

    def partition_keys(self) -> List[Tuple[int, str]]:
        """The (threshold, α/β-method) keys materialised so far."""
        with self._lock:
            return sorted(self._partitions)


class SnapshotManager:
    """Monotonic graph versions with reader pinning and delta advance.

    * :meth:`acquire` — context manager yielding a pinned
      :class:`Snapshot`; the pinned version cannot retire while the
      reader holds it, however many deltas land meanwhile.
    * :meth:`advance` — publish a successor graph under ``version+1``
      (callers serialise writes themselves; the daemon holds its delta
      lock across the recompute *and* the advance).
    * ``on_retire`` — called with each version number whose last
      reader drained after the version was superseded; the daemon
      purges that version's score-LRU entries there.

    Versions start at 1 for the graph the daemon booted with.
    """

    def __init__(
        self,
        graph: CSRGraph,
        *,
        on_retire: Optional[Callable[[int], None]] = None,
    ) -> None:
        self._lock = threading.Lock()
        self._on_retire = on_retire
        first = Snapshot(1, graph)
        self._current = first
        self._live: Dict[int, Snapshot] = {1: first}
        self._readers: Dict[int, int] = {1: 0}
        self._deltas_applied = 0

    @property
    def version(self) -> int:
        """The currently published (latest committed) version."""
        with self._lock:
            return self._current.version

    def current(self) -> Snapshot:
        """The latest committed snapshot (unpinned — prefer acquire)."""
        with self._lock:
            return self._current

    def get(self, version: int) -> Snapshot:
        """A specific still-live version; :class:`ServeError` if gone."""
        with self._lock:
            snap = self._live.get(int(version))
            if snap is None:
                raise ServeError(
                    f"graph version {version} is not resident (live: "
                    f"{sorted(self._live)})",
                    http_status=409,
                )
            return snap

    @contextmanager
    def acquire(self, version: Optional[int] = None):
        """Pin one version (latest by default) for the block's duration."""
        with self._lock:
            if version is None:
                snap = self._current
            else:
                snap = self._live.get(int(version))
                if snap is None:
                    raise ServeError(
                        f"graph version {version} is not resident "
                        f"(live: {sorted(self._live)})",
                        http_status=409,
                    )
            self._readers[snap.version] += 1
        try:
            yield snap
        finally:
            self._release(snap.version)

    def _release(self, version: int) -> None:
        retired = None
        with self._lock:
            self._readers[version] -= 1
            if (
                self._readers[version] == 0
                and version != self._current.version
            ):
                del self._live[version]
                del self._readers[version]
                retired = version
        if retired is not None and self._on_retire is not None:
            self._on_retire(retired)

    def advance(
        self,
        graph: CSRGraph,
        partitions: Optional[Dict[Tuple[int, str], object]] = None,
    ) -> Snapshot:
        """Publish ``graph`` as the next version; returns its snapshot.

        ``partitions`` seeds the new snapshot's memo: α/β-filled
        partitions of ``graph`` by :func:`partition_key` (the daemon
        passes the one its delta run derived).  The superseded version
        retires immediately when no reader holds it, otherwise it
        stays resident until its last reader drains (release handles
        the hand-off).
        """
        retired = None
        with self._lock:
            old = self._current
            snap = Snapshot(old.version + 1, graph, partitions)
            self._current = snap
            self._live[snap.version] = snap
            self._readers[snap.version] = 0
            self._deltas_applied += 1
            if self._readers[old.version] == 0:
                del self._live[old.version]
                del self._readers[old.version]
                retired = old.version
        if retired is not None and self._on_retire is not None:
            self._on_retire(retired)
        return snap

    def report(self) -> Dict:
        """JSON-shaped residency report for ``/stats``."""
        with self._lock:
            return {
                "version": self._current.version,
                "deltas_applied": self._deltas_applied,
                "live_versions": sorted(self._live),
                "pinned_readers": {
                    str(v): n for v, n in sorted(self._readers.items()) if n
                },
                "partitions_resident": {
                    str(v): [
                        list(key) for key in snap.partition_keys()
                    ]
                    for v, snap in sorted(self._live.items())
                },
            }
