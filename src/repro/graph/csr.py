"""Immutable CSR (compressed sparse row) graph storage.

:class:`CSRGraph` is the single graph representation used by every
algorithm in this package, mirroring the paper's storage choice
("the graphs are stored in Compressed Sparse Row (CSR) format", §5.1).

Conventions
-----------
* Vertices are the integers ``0 .. n-1``.
* ``directed=True`` graphs keep two adjacency structures: the forward
  (out-) CSR and the reverse (in-) CSR; the reverse is built once at
  construction because APGRE's β counting and the successor-based
  baselines need in-neighbourhoods in O(deg) time.
* ``directed=False`` graphs store each undirected edge as two arcs
  ``u->v`` and ``v->u`` in a single symmetric CSR shared by the forward
  and reverse views. ``num_arcs`` therefore counts both orientations —
  the same convention the paper's Table 1 uses for its undirected rows
  (e.g. Email-Enron is listed with 367,662 edges, twice its 183,831
  undirected pairs).
* Adjacency lists are sorted per row, which makes traversal order
  deterministic and lets :meth:`CSRGraph.has_edge` binary-search.
* All arrays are flagged read-only; graphs are safely shareable across
  fork()ed worker processes without copies.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.errors import GraphValidationError
from repro.types import INDPTR_DTYPE, VERTEX_DTYPE

__all__ = ["CSRGraph"]


def _freeze(a: np.ndarray) -> np.ndarray:
    """Return ``a`` with the writeable flag cleared (shared, not copied)."""
    a.flags.writeable = False
    return a


def _build_csr(
    n: int, src: np.ndarray, dst: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Build sorted CSR arrays from parallel arc arrays.

    Arcs are grouped by source and each row's targets are sorted
    ascending. Runs in O(m log m) via a single lexsort, with no Python
    loops over the arcs.
    """
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order].astype(VERTEX_DTYPE, copy=False)
    counts = np.bincount(src, minlength=n).astype(INDPTR_DTYPE, copy=False)
    indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr, dst


class CSRGraph:
    """An immutable graph in CSR form.

    Build instances through :func:`CSRGraph.from_arcs` or the helpers
    in :mod:`repro.graph.build`; the raw ``__init__`` trusts its inputs
    and is intended for internal use after validation.

    Parameters
    ----------
    n:
        Number of vertices.
    out_indptr, out_indices:
        Forward CSR arrays (``out_indptr`` has ``n + 1`` entries).
    in_indptr, in_indices:
        Reverse CSR arrays. For undirected graphs pass the same objects
        as the forward arrays.
    directed:
        Whether arcs are one-way.
    """

    __slots__ = (
        "n",
        "directed",
        "out_indptr",
        "out_indices",
        "in_indptr",
        "in_indices",
        # weak referencability for the per-graph derived-structure
        # caches (repro.graph.ops memoizes to_undirected per instance)
        "__weakref__",
    )

    def __init__(
        self,
        n: int,
        out_indptr: np.ndarray,
        out_indices: np.ndarray,
        in_indptr: np.ndarray,
        in_indices: np.ndarray,
        directed: bool,
    ) -> None:
        self.n = int(n)
        self.directed = bool(directed)
        self.out_indptr = _freeze(out_indptr)
        self.out_indices = _freeze(out_indices)
        self.in_indptr = _freeze(in_indptr)
        self.in_indices = _freeze(in_indices)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_arcs(
        cls,
        n: int,
        src,
        dst,
        *,
        directed: bool,
        dedupe: bool = True,
        drop_self_loops: bool = True,
    ) -> "CSRGraph":
        """Build a graph from parallel source/target arrays.

        For ``directed=False`` each input pair is treated as one
        undirected edge and symmetrised; callers may pass either
        orientation (or both — duplicates are removed when ``dedupe``).

        Parameters
        ----------
        n:
            Vertex count; every endpoint must be in ``[0, n)``.
        src, dst:
            Arc endpoints (any integer array-likes of equal length).
        directed:
            Arc interpretation, see above.
        dedupe:
            Collapse parallel arcs (BC is defined on simple graphs;
            multiplicities would silently skew σ counts).
        drop_self_loops:
            Remove ``v->v`` arcs, which never lie on a shortest path.

        Raises
        ------
        GraphValidationError
            If endpoints fall outside ``[0, n)`` or lengths mismatch.
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise GraphValidationError(
                f"src and dst lengths differ: {src.size} != {dst.size}"
            )
        if n < 0:
            raise GraphValidationError(f"vertex count must be >= 0, got {n}")
        if src.size:
            lo = min(src.min(), dst.min())
            hi = max(src.max(), dst.max())
            if lo < 0 or hi >= n:
                raise GraphValidationError(
                    f"arc endpoint out of range [0, {n}): saw [{lo}, {hi}]"
                )
        if drop_self_loops and src.size:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        if not directed and src.size:
            # canonicalise, dedupe on unordered pairs, then symmetrise
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            if dedupe:
                pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
                lo, hi = pairs[:, 0], pairs[:, 1]
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
        elif dedupe and src.size:
            pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
            src, dst = pairs[:, 0], pairs[:, 1]

        out_indptr, out_indices = _build_csr(n, src, dst)
        if directed:
            in_indptr, in_indices = _build_csr(n, dst, src)
        else:
            in_indptr, in_indices = out_indptr, out_indices
        return cls(n, out_indptr, out_indices, in_indptr, in_indices, directed)

    # ------------------------------------------------------------------
    # size properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``n``."""
        return self.n

    @property
    def num_arcs(self) -> int:
        """Number of stored arcs (both orientations for undirected)."""
        return int(self.out_indices.size)

    @property
    def num_edges(self) -> int:
        """Alias of :attr:`num_arcs` (the paper's Table-1 convention)."""
        return self.num_arcs

    @property
    def num_undirected_edges(self) -> int:
        """Number of unordered edges (``num_arcs`` for directed graphs)."""
        return self.num_arcs // 2 if not self.directed else self.num_arcs

    # ------------------------------------------------------------------
    # adjacency access
    # ------------------------------------------------------------------
    def out_neighbors(self, v: int) -> np.ndarray:
        """Sorted out-neighbourhood of ``v`` (a read-only view)."""
        return self.out_indices[self.out_indptr[v] : self.out_indptr[v + 1]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbourhood of ``v`` (a read-only view)."""
        return self.in_indices[self.in_indptr[v] : self.in_indptr[v + 1]]

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an int64 array."""
        return np.diff(self.out_indptr)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an int64 array."""
        return np.diff(self.in_indptr)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the arc ``u -> v`` exists (binary search, O(log deg))."""
        row = self.out_neighbors(u)
        i = np.searchsorted(row, v)
        return bool(i < row.size and row[i] == v)

    def has_arcs(self, tails, heads) -> np.ndarray:
        """:meth:`has_edge` for arrays of arcs: one bisection step over
        every arc's row at a time, O(k log deg)."""
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        lo = self.out_indptr[tails].astype(np.int64)
        end = self.out_indptr[tails + 1].astype(np.int64)
        hi = end.copy()
        while True:
            open_ = lo < hi
            if not open_.any():
                break
            mid = np.where(open_, (lo + hi) // 2, 0)
            right = open_ & (self.out_indices[mid] < heads)
            lo = np.where(right, mid + 1, lo)
            hi = np.where(open_ & ~right, mid, hi)
        found = lo < end
        found[found] = self.out_indices[lo[found]] == heads[found]
        return found

    def arcs(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(src, dst)`` arrays listing every stored arc."""
        src = np.repeat(
            np.arange(self.n, dtype=VERTEX_DTYPE), np.diff(self.out_indptr)
        )
        return src, self.out_indices.copy()

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Yield arcs as Python int pairs.

        For undirected graphs each unordered edge is yielded once, with
        ``u <= v``. Intended for tests and small-graph inspection, not
        hot paths.
        """
        src, dst = self.arcs()
        if self.directed:
            for u, v in zip(src.tolist(), dst.tolist()):
                yield u, v
        else:
            keep = src <= dst
            for u, v in zip(src[keep].tolist(), dst[keep].tolist()):
                yield u, v

    # ------------------------------------------------------------------
    # dunder conveniences
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.directed == other.directed
            and np.array_equal(self.out_indptr, other.out_indptr)
            and np.array_equal(self.out_indices, other.out_indices)
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, self.directed, self.num_arcs, self.out_indices.tobytes())
        )

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph({kind}, n={self.n}, arcs={self.num_arcs})"
