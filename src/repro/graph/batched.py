"""Batched multi-source level-synchronous traversal kernels.

:func:`repro.graph.traversal.bfs_sigma` advances one source at a time,
so every BFS level pays fixed numpy dispatch overhead on frontiers that
are often tiny (deep road networks spend most of their time in that
overhead).  This module runs a *batch* of ``B`` sources simultaneously
through ``(B, n)`` ``dist``/``sigma`` matrices: each level is one
shared CSR gather over the union frontier plus one ``np.add.at``
scatter keyed by the flattened ``(batch_row, vertex)`` index, so
per-level work is a single large vectorised operation instead of ``B``
small ones — the "process many roots concurrently" formulation of the
multi-GPU BC literature (Bernaschi et al.) mapped onto numpy.

Per-source results are bit-identical to :func:`bfs_sigma`: a frontier
pair ``(row, v)`` expands exactly the arcs the serial BFS of source
``sources[row]`` would expand at that level, so distances, σ counts,
shortest-path-DAG arcs *and the examined-edge tally* all match the
serial kernel — batching changes only how the work is grouped.

DAG arcs are recorded per level as flattened ``row * n + vertex``
indices (the paper's predecessor-list / ``"arcs"`` strategy), which the
backward sweeps replay directly against the flattened ``(B, n)``
dependency matrices.

Two kernels implement the batched contraction:

* the pure-numpy ``"arcs"`` kernel above (always available, per-row
  bit-identical to serial), and
* an ``"spmm"`` kernel that expresses each level as one C-compiled
  sparse matrix product (``frontier · A`` forward, ``weights · Aᵀ``
  backward) via :mod:`scipy.sparse`, moving the per-arc expansion,
  deduplication and σ summation out of numpy dispatch entirely.  It is
  the default for score computation when scipy is importable; scores
  agree with the per-source path to float64 tolerance and the examined
  -edge tally is still identical (counted runs carry the arc
  multiplicities in the imaginary part of a complex matmul).  Shallow
  graphs run it in a *dense form*: vertex-major ``(n, B)`` state and
  one sparse×dense product per level over every vertex.

Every kernel also runs the *weighted* sweep APGRE's sub-graph step
needs (:class:`SweepWeights`): rows seeded with external mass at the
boundary articulation points, the same backward recurrence, and rows
merged with per-source weights plus a per-source self term.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.types import SCORE_DTYPE

__all__ = [
    "AUTO_DENSE_WORKSET_BYTES",
    "AUTO_MIN_BATCH",
    "AUTO_WORKSET_BYTES",
    "DEFAULT_MAX_BATCH",
    "BatchedBFSResult",
    "BatchWorkspace",
    "SweepWeights",
    "available_memory_bytes",
    "row_bytes",
    "dense_row_bytes",
    "auto_batch_size",
    "resolve_batch_size",
    "bfs_sigma_batched",
    "arc_segments",
    "accumulate_dependencies_batched",
    "merge_rows",
    "arcs_contributions",
    "batched_contributions",
    "batched_bc_scores",
    "spmm_available",
    "spmm_contributions",
]

#: Upper bound on the ``auto`` heuristic: past ~this point the per-level
#: scatters are large enough that dispatch overhead is already amortised
#: and bigger batches only grow the ``(B, n)`` working set past cache.
DEFAULT_MAX_BATCH = 128

#: Working set ``"auto"`` sizes a batch to.  On the road analogue's
#: top sub-graph, peak RSS climbs with every row while the time each
#: extra row saves keeps shrinking (docs/PERFORMANCE.md §6).
AUTO_WORKSET_BYTES = 4 << 20

#: Fewest rows ``"auto"`` picks while the RAM ceiling allows them: on
#: graphs where 8 rows outgrow the working set, 8 rows still amortise
#: most of the per-level dispatch that a single row pays in full.
AUTO_MIN_BATCH = 8

#: Working set ``"auto"`` sizes a dense-form spmm batch to.  Every
#: dense level streams four float64 ``(n, B)`` matrices through the
#: cache.  On the web-cold and serve tops (docs/PERFORMANCE.md §6) this
#: budget's widths, 19 and 41 rows, ran within 6% of the best measured
#: width; the 4 MiB rule's, 39 and 83, ran 4-10% slower (26-29% in an
#: earlier session) at twice the peak memory.
AUTO_DENSE_WORKSET_BYTES = 2 << 20

# Rough per-batch-row memory model used by the ``auto`` heuristic:
# dist (int32) + sigma (float64) + up to three dependency matrices
# (float64) per vertex, and two flattened int64 DAG-arc arrays plus
# gather temporaries per arc.  The spmm kernel records no DAG arcs:
# its arc term holds only one level's product, so its working set is
# priced at the widest level's arcs instead of ``m``.
_BYTES_PER_ROW_VERTEX = 44
_BYTES_PER_ROW_ARC = 20

# Per-row model of the dense spmm form, per vertex: the workspace's
# int32 dist buffer (its front holds the one-byte levels), σ, δ and
# the two product operands (float64) and two boolean masks; per arc,
# the two one-byte gathers of its DAG-arc count.  tracemalloc puts the
# per-row slope on the web-cold and serve tops within 1% of it.
_DENSE_BYTES_PER_ROW_VERTEX = 38
_DENSE_BYTES_PER_ROW_ARC = 2

# CSR footprint model for the shared-address-space correction: int64
# indptr + indices, counted for both directions (out + in).
_CSR_BYTES_PER_VERTEX = 16
_CSR_BYTES_PER_ARC = 16


def available_memory_bytes() -> int:
    """Best-effort available physical memory (fallback: 1 GiB)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):  # pragma: no cover
        pass
    try:  # pragma: no cover - non-Linux fallback
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # pragma: no cover
        return 1 << 30


def row_bytes(n: int, m: int) -> int:
    """Working set of one batch row on a graph of ``n`` vertices and
    ``m`` arcs under the ``auto`` model: ``44·n + 20·m`` bytes."""
    return _BYTES_PER_ROW_VERTEX * n + _BYTES_PER_ROW_ARC * max(m, 1)


def dense_row_bytes(n: int, m: int) -> int:
    """Working set of one dense-form spmm row: ``38·n + 2·m`` bytes."""
    return _DENSE_BYTES_PER_ROW_VERTEX * n + _DENSE_BYTES_PER_ROW_ARC * m


def auto_batch_size(
    n: int,
    m: int,
    *,
    available_bytes: Optional[int] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    workers: int = 1,
    shared_csr: bool = False,
    level_arcs: Optional[int] = None,
    dense: bool = False,
) -> int:
    """Pick a batch size whose ``(B, n)`` working set stays small.

    Sizes the batch to :data:`AUTO_WORKSET_BYTES` under a conservative
    per-row estimate of ``44·n + 20·m`` bytes (state matrices plus
    recorded DAG arcs), with a floor of :data:`AUTO_MIN_BATCH` rows.
    ``level_arcs`` estimates the arcs of a kernel's widest level
    product when it stores no DAG (spmm): the working set then prices
    a row at ``44·n + 20·min(m, level_arcs)``.  ``dense`` sizes a
    dense-form spmm batch instead: :func:`dense_row_bytes` per row
    against :data:`AUTO_DENSE_WORKSET_BYTES`.
    A quarter of available memory (capped at 2 GiB) stays the
    ceiling, priced by the base model, and the result is clamped to
    ``[1, max_batch]``.
    ``workers`` divides that ceiling: in a parallel run every
    concurrent worker materialises its own ``(B, n)`` working set, so
    sizing each against the full budget would oversubscribe RAM
    ``workers``-fold.

    ``shared_csr`` selects the threaded-backend accounting: worker
    threads share one address space, so the graph's CSR structure
    exists *once* for the whole pool rather than once per worker.  The
    CSR footprint (``~16·n + 16·m`` bytes) is then charged once
    against the pooled budget and only the per-worker workspace
    remainder divides by ``workers`` — the process model instead
    leaves per-worker duplication to the quartered headroom, which on
    arc-heavy graphs misprices what each thread may actually use.
    """
    if n <= 0:
        return 1
    if available_bytes is None:
        available_bytes = available_memory_bytes()
    budget = min(available_bytes // 4, 2 << 30)
    csr = _CSR_BYTES_PER_VERTEX * n + _CSR_BYTES_PER_ARC * max(m, 1)
    if shared_csr:
        budget = max(budget - csr, 0)
    budget //= max(int(workers), 1)
    per_row = row_bytes(n, m)
    work_row = row_bytes(n, m if level_arcs is None else min(m, level_arcs))
    workset = AUTO_WORKSET_BYTES
    if dense:
        work_row, workset = dense_row_bytes(n, m), AUTO_DENSE_WORKSET_BYTES
    rows = max(workset // work_row, AUTO_MIN_BATCH)
    return int(max(1, min(rows, budget // per_row, max_batch)))


def resolve_batch_size(
    batch_size: Union[int, str, None],
    n: int,
    m: int,
    *,
    workers: int = 1,
    shared_csr: bool = False,
) -> Optional[int]:
    """Normalise a ``batch_size`` option to an int (or ``None``).

    ``None`` means "per-source path" and passes through; ``"auto"``
    resolves via :func:`auto_batch_size` for the given graph size, the
    number of concurrent ``workers`` sharing the RAM budget and the
    backend's address-space model (``shared_csr``); a
    positive integer (numpy integers included) is validated and
    returned as an int (an explicit size is the caller's statement
    that it fits).  Bools and non-integral numbers are rejected rather
    than truncated.
    """
    if batch_size is None:
        return None
    if isinstance(batch_size, str) and batch_size == "auto":
        return auto_batch_size(
            n, m, workers=workers, shared_csr=shared_csr
        )
    # bool subclasses int, but True is no batch width
    if isinstance(batch_size, bool) or not isinstance(
        batch_size, numbers.Integral
    ):
        raise AlgorithmError(
            f"batch_size must be 'auto', a positive int or None, "
            f"got {batch_size!r}"
        )
    if batch_size < 1:
        raise AlgorithmError(f"batch_size must be >= 1, got {batch_size}")
    return int(batch_size)


class BatchWorkspace:
    """Reusable flattened ``B·n`` state buffers for the batched kernels.

    Both kernels allocate three batch-sized state arrays (``dist``,
    ``sigma``, ``delta``) per chunk; across the many chunks of a full
    BC run that is measurable allocator pressure at large ``B``.
    Passing a workspace makes successive chunks reuse one allocation,
    grown on demand and never shrunk.  The kernels re-initialise the
    buffers exactly as freshly allocated ones (``fill(-1)`` /
    ``fill(0)``), so results — including the arcs kernel's per-row bit
    identity with the serial path — are unchanged.

    A workspace is single-owner mutable state: concurrent batches need
    one workspace each.  The threaded backend keeps *two* per worker
    thread and alternates them, so the fold of batch *i*'s result can
    overlap the compute of batch *i+1* without the second batch
    clobbering buffers the first may still alias.
    """

    __slots__ = ("_dist", "_sigma", "_delta")

    def __init__(self) -> None:
        self._dist = np.empty(0, dtype=np.int32)
        self._sigma = np.empty(0, dtype=SCORE_DTYPE)
        self._delta = np.empty(0, dtype=SCORE_DTYPE)

    @property
    def capacity(self) -> int:
        """Current buffer capacity in elements (``B·n`` units)."""
        return self._dist.size

    def arrays(
        self, b: int, n: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Uninitialised ``(dist, sigma, delta)`` views of size ``b·n``.

        The caller owns initialisation; contents are whatever the
        previous batch left behind.
        """
        need = b * n
        if self._dist.size < need:
            self._dist = np.empty(need, dtype=np.int32)
            self._sigma = np.empty(need, dtype=SCORE_DTYPE)
            self._delta = np.empty(need, dtype=SCORE_DTYPE)
        return (
            self._dist[:need],
            self._sigma[:need],
            self._delta[:need],
        )


@dataclass
class BatchedBFSResult:
    """Phase-1 output for a batch of sources (the 2D ``BFSResult``).

    Attributes
    ----------
    sources:
        The batch's BFS roots, one per row.
    dist:
        ``(B, n)`` int32 distances; row ``i`` equals the serial
        ``bfs_sigma(g, sources[i]).dist``.
    sigma:
        ``(B, n)`` float64 shortest-path counts, likewise per row.
    level_arcs:
        When requested, ``level_arcs[d]`` holds the shortest-path-DAG
        arcs from distance ``d`` to ``d + 1`` across the whole batch,
        as flattened ``(row * n + src, row * n + dst)`` index pairs —
        ready to replay against flattened ``(B, n)`` matrices.
    edges_traversed:
        Arcs examined, summed over the batch: the sum of the serial
        per-source tallies.
    """

    sources: np.ndarray
    dist: np.ndarray
    sigma: np.ndarray
    level_arcs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    edges_traversed: int = 0

    @property
    def batch(self) -> int:
        """Number of sources in the batch."""
        return self.dist.shape[0]

    @property
    def depth(self) -> int:
        """Maximum eccentricity across the batch's sources."""
        return int(self.dist.max(initial=0))

    def reached(self) -> np.ndarray:
        """``(B, n)`` mask of vertices reachable from each source."""
        return self.dist >= 0


def _add_row_sums(
    row_edges: np.ndarray, counts: np.ndarray, indptr: np.ndarray
) -> None:
    """``row_edges[i] += counts[indptr[i]:indptr[i + 1]].sum()``, every row."""
    cum = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    row_edges += np.diff(cum[indptr])


def bfs_sigma_batched(
    graph: CSRGraph,
    sources,
    *,
    keep_level_arcs: bool = False,
    workspace: Optional[BatchWorkspace] = None,
    row_edges: Optional[np.ndarray] = None,
) -> BatchedBFSResult:
    """Forward BFS with σ counting for a whole batch of sources.

    One level step gathers the out-arcs of every ``(row, vertex)``
    frontier pair at once and scatters σ contributions through the
    flattened ``(B, n)`` index space, amortising the per-level kernel
    launches across the batch.  Rows are fully independent: a row whose
    BFS has terminated simply contributes no frontier pairs.

    With ``workspace`` the ``dist``/``sigma`` matrices are views into
    the workspace's reusable buffers (re-initialised here exactly as
    fresh allocations would be); the returned result then only stays
    valid until the workspace's next use.  ``row_edges`` (int64, one
    slot per source) receives each row's share of
    ``edges_traversed``.
    """
    n = graph.n
    srcs = np.asarray(sources, dtype=np.int64).ravel()
    b = srcs.size
    if b == 0:
        raise AlgorithmError("batched BFS needs at least one source")
    if workspace is None:
        dist = np.full((b, n), -1, dtype=np.int32)
        sigma = np.zeros((b, n), dtype=SCORE_DTYPE)
    else:
        dist_buf, sigma_buf, _ = workspace.arrays(b, n)
        dist_buf.fill(-1)
        sigma_buf.fill(0.0)
        dist = dist_buf.reshape(b, n)
        sigma = sigma_buf.reshape(b, n)
    dist_flat = dist.reshape(-1)
    sigma_flat = sigma.reshape(-1)
    # flattened (row, vertex) indices live in [0, b*n) and stay intp,
    # the dtype numpy's gathers and scatters take without a conversion
    # pass (docs/PERFORMANCE.md §1).  Sorted ascending (one pair per
    # row), and every later frontier is a np.unique output, so the
    # sortedness invariant holds throughout
    row_bounds = np.arange(b + 1, dtype=np.intp) * n
    frontier = row_bounds[:-1] + srcs
    dist_flat[frontier] = 0
    sigma_flat[frontier] = 1.0
    level_arcs: Optional[List[Tuple[np.ndarray, np.ndarray]]] = (
        [] if keep_level_arcs else None
    )
    indptr, indices = graph.out_indptr, graph.out_indices
    # hoisted per-call: CSR metadata in the narrow dtype (arc positions
    # index `indices`, so they fit whenever m does) and a reusable
    # iota buffer so the hot loop never re-materialises an arange
    m = indices.size
    pdtype = np.int64 if m > np.iinfo(np.int32).max else np.int32
    indptr_n = indptr.astype(pdtype, copy=False)
    deg = (indptr[1:] - indptr[:-1]).astype(pdtype, copy=False)
    iota = np.arange(min(m, 1024) or 1, dtype=pdtype)
    edges = 0
    level = 0
    while frontier.size:
        # shared CSR gather over the union frontier (cf. expand_frontier)
        verts = frontier % n
        starts = indptr_n.take(verts)
        counts = deg.take(verts)
        total = int(counts.sum(dtype=np.int64))
        edges += total
        if row_edges is not None:
            # the frontier is sorted, so each row's pairs are one run
            _add_row_sums(
                row_edges, counts, np.searchsorted(frontier, row_bounds)
            )
        if total > np.iinfo(pdtype).max:  # pragma: no cover - huge level
            pdtype = np.int64
            indptr_n = indptr.astype(np.int64, copy=False)
            deg = deg.astype(np.int64)
            iota = np.arange(total, dtype=np.int64)
            starts = indptr_n.take(verts)
            counts = deg.take(verts)
        if total == 0:
            empty = np.empty(0, dtype=np.intp)
            if level_arcs is not None:
                level_arcs.append((empty, empty))
            break
        if total > iota.size:
            iota = np.arange(total, dtype=pdtype)
        # arc positions: per-pair run starts shifted into one iota span
        cum = np.cumsum(counts)
        pos = iota[:total] + np.repeat(starts - cum + counts, counts)
        dst = indices.take(pos)
        flat_src = np.repeat(frontier, counts)
        flat_dst = np.repeat(frontier - verts, counts) + dst
        # an arc is a tree arc iff its head is undiscovered before this
        # level (a head at dist == level+1 can only have got there now);
        # one index list selects from both arc arrays
        tree = np.flatnonzero(dist_flat.take(flat_dst) < 0)
        t_src = flat_src.take(tree)
        t_dst = flat_dst.take(tree)
        if t_dst.size:
            nxt, inv = np.unique(t_dst, return_inverse=True)
            dist_flat[nxt] = level + 1
            # fresh vertices carry sigma == 0, so the per-bin ordered
            # sum equals the serial np.add.at bit for bit
            sigma_flat[nxt] = np.bincount(
                inv, weights=sigma_flat.take(t_src), minlength=nxt.size
            )
        else:
            nxt = np.empty(0, dtype=np.intp)
        if level_arcs is not None:
            level_arcs.append((t_src, t_dst))
        if nxt.size == 0:
            break
        frontier = nxt
        level += 1
    return BatchedBFSResult(
        sources=srcs,
        dist=dist,
        sigma=sigma,
        level_arcs=level_arcs,
        edges_traversed=edges,
    )


def arc_segments(flat_src: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Segment a level's (sorted) arc tails into per-vertex runs.

    Level arcs recorded by :func:`bfs_sigma_batched` are ordered by
    flattened tail index (the frontier is sorted and CSR expansion
    preserves it), so each tail's arcs form one contiguous run.
    Returns ``(unique_tails, run_start_offsets)`` — the inputs
    ``np.add.reduceat`` needs to replace a ``np.add.at`` scatter with
    one ordered segmented sum (same additions, same order, ~10x less
    per-element overhead).
    """
    seg = np.empty(flat_src.size, dtype=bool)
    seg[0] = True
    np.not_equal(flat_src[1:], flat_src[:-1], out=seg[1:])
    starts = np.flatnonzero(seg)
    return flat_src.take(starts), starts


@dataclass(frozen=True)
class SweepWeights:
    """Per-graph weights of the reach-weighted sweep (one sub-graph).

    APGRE's sub-graph step (Algorithm 2) is one Brandes sweep of
    ``y_s = δ_i2i + δ_i2o``: ``δ_o2i = β(s)·δ_i2i`` and
    ``δ_o2o = β(s)·δ_i2o`` fold into a per-source row weight (the
    reach-weighted accumulation of Sarıyüce et al.).  With these
    weights a kernel

    * seeds every row with ``ext`` (zero at the row's own source),
    * runs the plain backward step
      ``y[tail] += σ(tail)·Σ_w (1 + y[w])/σ(w)``,
    * returns ``Σ_rows scale[s]·y_s(v)`` over reached ``v ≠ s``, plus
      ``gamma[s]·(y_s(s) + shift[s])`` at each source ``s``.

    All four arrays are indexed by vertex.
    """

    #: mass beyond each vertex seeded into every row (α at boundary
    #: articulation points, else 0)
    ext: np.ndarray
    #: weight of source ``s``'s row (``1 + γ(s) + β(s)·[s ∈ A]``)
    scale: np.ndarray
    #: weight of source ``s``'s self term (``γ(s)``)
    gamma: np.ndarray
    #: added to ``y_s(s)`` in the self term
    #: (``α(s)·[s ∈ A] − [undirected]``)
    shift: np.ndarray
    #: vertices with non-zero ``ext`` (derived)
    arts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "arts", np.flatnonzero(self.ext))


def _seed_rows(
    delta: np.ndarray, sources: np.ndarray, weights: Optional[SweepWeights]
) -> None:
    """Initialise a zeroed ``(B, n)`` dependency matrix for ``weights``.

    Every row gets the external mass ``ext``, except at its own source
    ("for all i ∈ A_sgi && i != s"); plain sweeps stay all-zero.
    """
    if weights is not None and weights.arts.size:
        delta[:, weights.arts] = weights.ext[weights.arts]
        delta[np.arange(sources.size), sources] = 0.0


def merge_rows(
    delta: np.ndarray,
    dist: np.ndarray,
    sources: np.ndarray,
    weights: Optional[SweepWeights],
) -> np.ndarray:
    """Sum a batch's ``(B, n)`` dependency rows into one ``(n,)`` vector.

    Plain sweeps zero each row's own source and add the rows.  Weighted
    sweeps merge reached ``v ≠ s`` with the row weights and add each
    source's self term (see :class:`SweepWeights`).  ``delta`` is
    overwritten; the result never aliases it.
    """
    rows = np.arange(sources.size)
    if weights is None:
        delta[rows, sources] = 0.0
        return delta.sum(axis=0)
    arts = weights.arts
    if arts.size:
        # an unreached articulation point still holds its seed, and only
        # reached vertices merge (Algorithm 2 walks the level buckets)
        seeded = delta[:, arts]
        seeded[dist[:, arts] < 0] = 0.0
        delta[:, arts] = seeded
    own = delta[rows, sources]
    delta[rows, sources] = 0.0
    out = weights.scale[sources] @ delta
    np.add.at(
        out, sources, weights.gamma[sources] * (own + weights.shift[sources])
    )
    return out


def accumulate_dependencies_batched(
    res: BatchedBFSResult,
    *,
    counter=None,
    workspace: Optional[BatchWorkspace] = None,
    weights: Optional[SweepWeights] = None,
    row_edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Batched backward phase: δ_s(v) for every source in the batch.

    Replays the recorded DAG arcs deepest level first (the ``"arcs"``
    accumulation strategy), with one gather/segmented-sum per level for
    the whole batch.  Returns a ``(B, n)`` dependency matrix whose row
    ``i`` equals the serial ``accumulate_dependencies(..., mode="arcs")``
    for ``sources[i]``; the examined-edge tally matches it too, and
    ``row_edges`` (one slot per row) receives it row by row.
    ``weights`` seeds the rows first (see :class:`SweepWeights`).

    ``workspace`` reuses the workspace's delta buffer (zeroed here);
    pass the same workspace the forward phase used — the delta buffer
    is distinct from its ``dist``/``sigma`` buffers.
    """
    if res.level_arcs is None:
        raise AlgorithmError(
            "batched dependency accumulation needs keep_level_arcs=True"
        )
    b, n = res.dist.shape
    if workspace is None:
        delta_flat = np.zeros(res.dist.size, dtype=SCORE_DTYPE)
    else:
        delta_flat = workspace.arrays(b, n)[2]
        delta_flat.fill(0.0)
    _seed_rows(delta_flat.reshape(b, n), res.sources, weights)
    sigma_flat = res.sigma.reshape(-1)
    row_bounds = np.arange(b + 1, dtype=np.int64) * n
    for flat_src, flat_dst in reversed(res.level_arcs):
        if counter is not None:
            counter.add(flat_src.size)
        if row_edges is not None:
            row_edges += np.diff(np.searchsorted(flat_src, row_bounds))
        if flat_src.size == 0:
            continue
        coef = sigma_flat.take(flat_src) / sigma_flat.take(flat_dst)
        tails, runs = arc_segments(flat_src)
        # a vertex only receives contributions at its own level, so
        # delta[tails] still holds its seed (zero in a plain sweep) and
        # the segmented sum equals the serial np.add.at bit for bit
        delta_flat[tails] += np.add.reduceat(
            coef * (1.0 + delta_flat.take(flat_dst)), runs
        )
    return delta_flat.reshape(b, n)


#: scipy's C sparse-matmul extension module
_SPARSETOOLS = "scipy.sparse._sparsetools"


@functools.lru_cache(maxsize=None)
def _sparsetools():
    """scipy's C sparse-matmul extension, loaded on first use.

    The extension file beside the ``scipy`` package is loaded directly,
    without running the ``scipy.sparse`` package ``__init__`` (75
    modules and ~13 MB of resident memory), and registered under its
    own name so that a later ``import scipy.sparse`` reuses it.
    ``import repro`` never loads it.  ``None`` when scipy or the
    extension is missing or fails to load (the ``arcs`` kernel then
    serves).
    """
    module = sys.modules.get(_SPARSETOOLS)
    if module is not None:
        return module
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        return None
    folder = Path(spec.origin).parent / "sparse"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_sparsetools{suffix}"
        if path.is_file():
            break
    else:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_SPARSETOOLS, str(path))
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(
                _SPARSETOOLS, path, loader=loader
            )
        )
        loader.exec_module(module)
    except (ImportError, OSError):
        return None
    sys.modules[_SPARSETOOLS] = module
    return module


def spmm_available() -> bool:
    """True when scipy's C sparse-matmul backend is importable."""
    return _sparsetools() is not None


_I32_MAX = np.iinfo(np.int32).max


class _SpmmOperands:
    """CSR matmul operands (A, Aᵀ, degrees) shared across chunks.

    ``scipy.sparse._sparsetools.csr_matmat`` dispatches on one index
    dtype for every operand, so the arrays are materialised once per
    BC run in the narrowest dtype the worst-case level expansion
    (``B * m`` candidate arcs) allows.  For undirected graphs the
    stored arc set is symmetric and the backward operand aliases the
    forward one.  ``dense`` selects the dense level layout (see
    :func:`spmm_contributions`).
    """

    __slots__ = ("idx", "fwd", "bwd", "deg_fwd", "deg_bwd", "_ones_c", "dense")

    def __init__(self, graph: CSRGraph, idx=np.int32, dense: bool = False):
        self.idx = np.dtype(idx)
        self.dense = dense
        ones = np.ones(graph.num_arcs, dtype=SCORE_DTYPE)
        self.fwd = (
            graph.out_indptr.astype(self.idx, copy=False),
            graph.out_indices.astype(self.idx, copy=False),
            ones,
        )
        self.deg_fwd = np.diff(graph.out_indptr).astype(np.int64)
        if graph.directed:
            self.bwd = (
                graph.in_indptr.astype(self.idx, copy=False),
                graph.in_indices.astype(self.idx, copy=False),
                ones,
            )
            self.deg_bwd = np.diff(graph.in_indptr).astype(np.int64)
        else:
            self.bwd = self.fwd
            self.deg_bwd = self.deg_fwd
        self._ones_c: Optional[np.ndarray] = None

    def fwd_complex(self):
        """Forward operand with complex data (for counted runs)."""
        if self._ones_c is None:
            self._ones_c = np.ones(self.fwd[2].size, dtype=np.complex128)
        return self.fwd[0], self.fwd[1], self._ones_c


def _spmm_operands_for(
    graph: CSRGraph, batch: int, dense: bool = False
) -> "_SpmmOperands":
    """Operands wide enough for ``batch``-row level expansions."""
    wide = batch * max(int(graph.num_arcs), 1) > _I32_MAX
    return _SpmmOperands(graph, np.int64 if wide else np.int32, dense)


#: ``dist`` of a vertex the dense form has not reached: below -1, so an
#: unreached tail's ``dist + 1`` never equals a head's level
_DENSE_UNREACHED = -2


def _dense_dag_tally(dist: np.ndarray, ops: "_SpmmOperands") -> np.ndarray:
    """Per-row examined arcs of a finished dense forward sweep.

    The out-arcs of every reached vertex (the forward examinations)
    plus the arcs ``u → w`` with ``dist(w) == dist(u) + 1`` (the DAG
    replays): exactly the sparse form's and the per-source tally.
    """
    n, b = dist.shape
    # each vertex's row of levels as one opaque item, so the per-arc
    # gathers copy one item per arc instead of indexing B elements
    rows = dist.view(np.dtype((np.void, b * dist.itemsize))).reshape(n)
    shape = (ops.fwd[1].size, b)
    tails = np.repeat(rows, ops.deg_fwd).view(dist.dtype).reshape(shape)
    heads = np.take(rows, ops.fwd[1]).view(dist.dtype).reshape(shape)
    tails += 1
    # a one-byte dist compares in place, into a bool view of the gather
    out = heads.view(np.bool_) if heads.itemsize == 1 else None
    dag = np.equal(heads, tails, out=out).view(np.uint8)
    per_row = np.einsum("ij->j", dag, dtype=np.int64)
    forward = ops.deg_fwd.astype(np.float64) @ (dist >= 0)
    per_row += forward.astype(np.int64)
    return per_row


def _spmm_dense(
    tools,
    graph: CSRGraph,
    srcs: np.ndarray,
    ops: "_SpmmOperands",
    counter,
    workspace: Optional[BatchWorkspace],
    weights: Optional[SweepWeights],
    row_edges: Optional[np.ndarray],
) -> np.ndarray:
    """The dense form of :func:`spmm_contributions`: ``(n, B)`` state,
    one sparse×dense product (``csr_matvecs``) per level."""
    n, b = graph.n, srcs.size
    if workspace is None:
        workspace = BatchWorkspace()
    dist_buf, sigma_buf, delta_buf = workspace.arrays(b, n)
    # vertex-major views; the one-byte levels fill the front of the
    # int32 dist buffer
    dist = dist_buf.view(np.int8)[: b * n].reshape(n, b)
    sigma = sigma_buf.reshape(n, b)
    delta = delta_buf.reshape(n, b)
    dist.fill(_DENSE_UNREACHED)
    sigma.fill(0.0)
    delta.fill(0.0)
    cols = np.arange(b)
    sigma[srcs, cols] = 1.0
    dist[srcs, cols] = 0
    y = np.empty((n, b), dtype=SCORE_DTYPE)
    # forward over in-arcs: an unreached vertex's only in-neighbours
    # with σ > 0 sit on the current frontier (one on an earlier level
    # would have reached it sooner), so the product over the whole σ
    # matrix sums exactly its frontier parents
    ip, ij, ix = ops.bwd
    level = 0
    while True:
        y.fill(0.0)
        tools.csr_matvecs(n, n, b, ip, ij, ix, sigma, y)
        y *= sigma == 0
        fresh = y > 0
        if not fresh.any():
            break
        level += 1
        if level == np.iinfo(dist.dtype).max:
            # keep dist + 1 representable for the DAG-arc count
            dist = dist.astype(np.int32)
        sigma += y
        np.copyto(dist, level, where=fresh)
    if counter is not None or row_edges is not None:
        per_row = _dense_dag_tally(dist, ops)
        if counter is not None:
            counter.add(int(per_row.sum()))
        if row_edges is not None:
            row_edges += per_row
    _seed_rows(delta.T, srcs, weights)
    # any finite σ at unreached vertices keeps their masked terms zero
    np.copyto(sigma, 1.0, where=sigma == 0)
    # backward over out-arcs, level d feeding level d - 1
    op, oj, ox = ops.fwd
    x = np.empty((n, b), dtype=SCORE_DTYPE)
    at = dist == level
    for d in range(level, 0, -1):
        np.add(delta, 1.0, out=x)
        x /= sigma
        x *= at
        y.fill(0.0)
        tools.csr_matvecs(n, n, b, op, oj, ox, x, y)
        np.equal(dist, d - 1, out=at)
        y *= sigma
        y *= at
        delta += y
    return merge_rows(delta.T, dist.T, srcs, weights)


def spmm_contributions(
    graph: CSRGraph,
    sources,
    *,
    counter=None,
    operands: Optional["_SpmmOperands"] = None,
    workspace: Optional[BatchWorkspace] = None,
    weights: Optional[SweepWeights] = None,
    row_edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Summed BC contributions of one batch via sparse matmuls.

    Each forward level is one CSR product ``F · A`` where row ``i`` of
    ``F`` holds σ over row ``i``'s frontier: the C kernel expands,
    deduplicates and σ-sums every candidate arc in a single call, and
    the output is pre-sized by the frontier degree sum (exactly the
    serial examined-edge tally, so no sizing pass is needed).  Fresh
    vertices are those still undiscovered in ``dist``: one
    ``np.flatnonzero`` of that test indexes the product's columns,
    values and flat ``row·n + v`` indices alike (intp, like every index
    the level glue gathers or scatters through; docs/PERFORMANCE.md
    §1), and one search of the fresh flat indices over the row bounds
    gives the next frontier's indptr without any sort.  A level keeps
    only its ``(flat, cols, fp)`` frontier: its σ lives in the
    ``(B, n)`` σ matrix.  The backward sweep mirrors it: one
    ``W · Aᵀ`` product per level with ``W = (1 + δ)/σ`` over the
    deeper frontier, its candidates selected the same way down to the
    vertices one level up — δ lands in the same level order as the
    serial ``"arcs"`` replay, differing only in summation association,
    so scores match within float64 tolerance.

    With ``counter`` the matmul runs on complex data whose imaginary
    part carries per-arc multiplicities: summing it over fresh
    candidates recovers the shortest-path-DAG arc count, making the
    tally (forward examinations + DAG replays) *identical* to the
    serial per-source path at the cost of one wider product.  The
    imaginary part is reset to 1 in place for the next level's
    product, so counted and uncounted runs give bit-identical scores.

    ``weights`` runs the weighted sweep of :class:`SweepWeights`: δ
    starts from the seeded rows and each level adds to it.
    ``row_edges`` (int64, one slot per source; implies the counted
    product) receives that tally row by row: the frontier degree sums
    and the DAG-arc counts, each summed over the frontier's row
    bounds ``fp``.

    Operands prepared with ``dense=True`` run the *dense form*
    instead, for shallow graphs: σ, δ and ``dist`` are vertex-major
    ``(n, B)`` matrices and each level is one sparse×dense product
    over every vertex (``csr_matvecs``) with no frontier lists.
    Forward, ``Y = A_in · σ`` (row ``v`` sums its in-neighbours' σ)
    masked to the unreached vertices is exactly the next level's σ;
    backward, ``A_out · ((1 + δ)/σ at level d)`` times σ lands on
    level ``d − 1``.
    Its tally is counted once per batch from the final ``dist`` (out
    -arcs of reached vertices plus arcs one level apart), so it equals
    the sparse form's exactly; scores agree to float64 rounding.
    """
    spmm_tools = _sparsetools()
    if spmm_tools is None:
        raise AlgorithmError(
            "the SpMM batched kernel needs scipy; use kernel='arcs'"
        )
    srcs = np.asarray(sources, dtype=np.int64).ravel()
    b = srcs.size
    if b == 0:
        raise AlgorithmError("batched BFS needs at least one source")
    n = graph.n
    ops = operands
    if ops is None or (
        ops.idx == np.int32 and b * max(graph.num_arcs, 1) > _I32_MAX
    ):
        ops = _spmm_operands_for(graph, b, ops is not None and ops.dense)
    if ops.dense:
        return _spmm_dense(
            spmm_tools, graph, srcs, ops, counter, workspace, weights,
            row_edges,
        )
    idx = ops.idx
    counted = counter is not None or row_edges is not None
    if workspace is None:
        dist = np.full(b * n, -1, dtype=np.int32)
        sigma = np.zeros(b * n, dtype=SCORE_DTYPE)
        delta_buf: Optional[np.ndarray] = None
    else:
        dist, sigma, delta_buf = workspace.arrays(b, n)
        dist.fill(-1)
        sigma.fill(0.0)
    # flattened row bounds pre-multiplied once: candidate indices then
    # need a single add per arc instead of a multiply-add, and a
    # frontier's row pointer is one search over them (rows own
    # disjoint, ordered flat ranges, so the search's predicate is
    # monotone even where a row's own entries are unsorted).  Flat
    # indices stay intp, the dtype numpy's gathers and scatters take
    # without a conversion pass (docs/PERFORMANCE.md §1).
    row_bounds = np.arange(b + 1, dtype=np.intp) * n
    rowbase = row_bounds[:-1]
    flat = rowbase + srcs
    dist[flat] = 0
    sigma[flat] = 1.0
    cols = srcs.astype(idx)
    fp = np.arange(b + 1, dtype=idx)
    if counted:
        ap, aj, ax = ops.fwd_complex()
        vals: np.ndarray = np.full(b, 1.0 + 1.0j, dtype=np.complex128)
    else:
        ap, aj, ax = ops.fwd
        vals = np.ones(b, dtype=SCORE_DTYPE)
    # one (flat, cols, fp) per level; its σ stays in the sigma matrix,
    # and bounds[k] is level k's forward degree sum
    levels = [(flat, cols, fp)]
    bounds: List[int] = []
    edges = 0
    dag_arcs = 0.0
    while True:
        degs = ops.deg_fwd.take(cols)
        bound = int(degs.sum(dtype=np.int64))
        bounds.append(bound)
        edges += bound
        if row_edges is not None:
            _add_row_sums(row_edges, degs, fp)
        if bound == 0:
            break
        cp = np.empty(b + 1, dtype=idx)
        cj = np.empty(bound, dtype=idx)
        cx = np.empty(bound, dtype=vals.dtype)
        spmm_tools.csr_matmat(b, n, fp, cols, vals, ap, aj, ax, cp, cj, cx)
        nnz = int(cp[b])
        cand = rowbase.repeat(cp[1:] - cp[:-1])
        cand += cj[:nnz]
        # one index list selects from all three arrays (a boolean mask
        # would be rescanned per array)
        fresh = np.flatnonzero(dist.take(cand) < 0)
        if fresh.size == 0:
            break
        flat = cand.take(fresh)
        cols = cj.take(fresh)
        vals = cx.take(fresh)
        fp = np.searchsorted(flat, row_bounds).astype(idx, copy=False)
        dist[flat] = len(levels)
        if counted:
            # multiplicities are sums of ones: exact integers
            arcs = vals.imag
            dag_arcs += arcs.sum()
            if row_edges is not None:
                _add_row_sums(row_edges, arcs.astype(np.int64), fp)
            sigma[flat] = vals.real
            arcs.fill(1.0)
        else:
            sigma[flat] = vals
        levels.append((flat, cols, fp))
    if counter is not None:
        counter.add(edges)
        counter.add(int(dag_arcs))
    # backward: one (B, n) · Aᵀ product per level, deepest first
    if delta_buf is None:
        delta = np.zeros(b * n, dtype=SCORE_DTYPE)
    else:
        delta_buf.fill(0.0)
        delta = delta_buf
    _seed_rows(delta.reshape(b, n), srcs, weights)
    bp, bj, bx = ops.bwd
    for lvl in range(len(levels) - 1, 0, -1):
        flat, cols, fp = levels[lvl]
        if ops.bwd is ops.fwd:  # undirected: the forward bound holds
            bound = bounds[lvl]
        else:
            bound = int(ops.deg_bwd.take(cols).sum(dtype=np.int64))
        if bound == 0:
            continue
        w = delta.take(flat)
        w += 1.0
        w /= sigma.take(flat)
        cp = np.empty(b + 1, dtype=idx)
        cj = np.empty(bound, dtype=idx)
        cx = np.empty(bound, dtype=SCORE_DTYPE)
        spmm_tools.csr_matmat(b, n, fp, cols, w, bp, bj, bx, cp, cj, cx)
        nnz = int(cp[b])
        cand = rowbase.repeat(cp[1:] - cp[:-1])
        cand += cj[:nnz]
        up = np.flatnonzero(dist.take(cand) == lvl - 1)
        tgt = cand.take(up)
        # a vertex collects its whole δ at its own level (candidates
        # one level up are unique per row) on top of its seed
        contrib = cx.take(up)
        contrib *= sigma.take(tgt)
        delta[tgt] += contrib
    return merge_rows(delta.reshape(b, n), dist.reshape(b, n), srcs, weights)


def arcs_contributions(
    graph: CSRGraph,
    sources,
    *,
    counter=None,
    workspace: Optional[BatchWorkspace] = None,
    context=None,
    weights: Optional[SweepWeights] = None,
    row_edges: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Summed BC contributions of one batch via the ``"arcs"`` kernel.

    Pure-numpy push BFS + recorded-DAG backward replay; per-row bit
    -identical to the serial per-source path, tally included.
    ``context`` is accepted for kernel-signature uniformity (the arcs
    kernel needs no prepared operands); ``weights`` runs the weighted
    sweep of :class:`SweepWeights`; ``row_edges`` (int64, one slot per
    source) receives the tally row by row.
    """
    srcs = np.asarray(sources, dtype=np.int64).ravel()
    res = bfs_sigma_batched(
        graph, srcs, keep_level_arcs=True, workspace=workspace,
        row_edges=row_edges,
    )
    if counter is not None:
        counter.add(res.edges_traversed)
    delta = accumulate_dependencies_batched(
        res, counter=counter, workspace=workspace, weights=weights,
        row_edges=row_edges,
    )
    return merge_rows(delta, res.dist, srcs, weights)


def batched_contributions(
    graph: CSRGraph,
    sources,
    *,
    counter=None,
    kernel: Optional[str] = None,
    workspace: Optional[BatchWorkspace] = None,
) -> np.ndarray:
    """Summed BC contributions of one batch of sources.

    Forward + backward batched kernels, source self-dependencies
    zeroed, rows summed — the batched equivalent of accumulating
    ``per_source_delta(graph, s, mode="arcs")`` over the batch.

    ``kernel`` names any registered compute kernel
    (:mod:`repro.graph.kernels`): ``"arcs"``, ``"spmm"``, or
    ``"auto"`` for the host default; ``None`` resolves through the
    registry too (``REPRO_KERNEL``, then the host default).  Every
    kernel produces the exact
    examined-edge tally.  The returned ``(n,)`` sum never aliases
    ``workspace``.
    """
    from repro.graph import kernels as _kernels

    srcs = np.asarray(sources, dtype=np.int64).ravel()
    kern = _kernels.get_kernel(_kernels.resolve_kernel_name(kernel))
    return kern.contributions(
        graph, srcs, counter=counter, workspace=workspace, context=None
    )


def batched_bc_scores(
    graph: CSRGraph,
    sources,
    *,
    batch: int,
    counter=None,
    kernel: Optional[str] = None,
    workspace: Optional[BatchWorkspace] = None,
    weights: Optional[SweepWeights] = None,
) -> np.ndarray:
    """BC contribution sum over ``sources``, ``batch`` roots at a time.

    The chunk loop behind ``run_per_source(..., batch_size=...)`` and
    APGRE's sub-graph step: resolves ``kernel`` through
    :mod:`repro.graph.kernels` once, then shares the kernel's prepared
    context (SpMM operands and their level layout, chosen for the
    whole root set) and one reusable
    :class:`BatchWorkspace` across all chunks so per-chunk setup and
    state allocation are amortised over the whole run.  ``weights``
    runs every chunk as the weighted sweep of :class:`SweepWeights`.
    """
    from repro.graph import kernels as _kernels

    src_arr = np.asarray(list(sources), dtype=np.int64).ravel()
    bc = np.zeros(graph.n, dtype=SCORE_DTYPE)
    if src_arr.size == 0:
        return bc
    kern = _kernels.get_kernel(_kernels.resolve_kernel_name(kernel))
    ctx = (
        kern.prepare(graph, min(batch, src_arr.size), roots=src_arr.size)
        if kern.prepare is not None
        else None
    )
    if workspace is None:
        workspace = BatchWorkspace()
    for lo in range(0, src_arr.size, batch):
        bc += kern.contributions(
            graph,
            src_arr[lo : lo + batch],
            counter=counter,
            workspace=workspace,
            context=ctx,
            weights=weights,
        )
    return bc
