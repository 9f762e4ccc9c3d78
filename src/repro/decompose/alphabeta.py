"""α/β counting for boundary articulation points (paper §3.1/§4).

For each sub-graph ``SGi`` and each of its boundary articulation
points ``a``:

* ``α_SGi(a)`` — "the number of vertices which a can reach without
  passing through SGi in G", obtained by a *blocked BFS* from ``a``
  that may not enter ``SGi \\ {a}``;
* ``β_SGi(a)`` — "the number of vertices which can reach a ... without
  passing through SGi in G", obtained by a blocked *reverse* BFS.

Two implementations are provided:

``method="bfs"``
    The paper's direct method (one blocked BFS + one blocked reverse
    BFS per (sub-graph, articulation-point) pair), kept as the
    reference the tree DP is tested against; cost O(Σ|A_sgi| · (V+E)).
``method="tree"``
    A dynamic program over the sub-graph tree (sub-graphs and
    boundary articulation points, joined by membership), for directed
    and undirected graphs alike. Reachability crosses an articulation
    point only through that point, so with ``R_j(a)`` the vertices of
    ``SGj`` that ``a`` reaches over ``SGj``'s own arcs,

        α_SGi(a) = Σ_{SGj ∋ a, j ≠ i} D_j(a),
        D_j(a)  = |R_j(a)| − 1 + Σ_{b ∈ R_j(a) ∩ A_j, b ≠ a} α_SGj(b),

    and β is the same over reverse arcs. One post-order and one
    pre-order pass evaluate it. Undirected sub-graphs are connected, so
    ``R_j(a)`` is all of ``SGj`` and the DP is O(V+E) with no
    traversal. Directed ``R_j(a)`` comes from one forward and one
    reverse sweep per strongly connected component of ``SGj`` holding
    a boundary articulation point (its members reach the same set).
    The sweeps stay inside ``SGj`` and run bit-parallel, 64 to a
    machine word, with small sub-graphs batched block-diagonally. The
    values are integers, identical to the blocked-BFS method's.
``method="auto"``
    ``tree`` for every graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.decompose.partition import Partition
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.ops import block_diagonal
from repro.graph.scc import strongly_connected_components
from repro.graph.traversal import (
    bfs_blocked,
    expand_frontier,
    reverse_bfs_blocked,
)

__all__ = ["AlphaBetaStats", "compute_alpha_beta"]

#: Working-set cap of one batch of tree-DP reachability sweeps, in
#: (sweep row × sub-graph vertex) cells of one bit each. A block of
#: sweeps over a larger sub-graph runs alone.
SWEEP_CELLS = 1 << 20

#: Sweep rows of one sub-graph that share a block, one bit each.
_WORD = 64


@dataclass
class AlphaBetaStats:
    """Accounting for the α/β phase (feeds the Figure-8 breakdown)."""

    method: str
    pairs: int  # (sub-graph, articulation point) pairs processed
    bfs_runs: int  # blocked BFS runs ("bfs") or reachability sweeps ("tree")


def _alpha_beta_bfs(graph: CSRGraph, partition: Partition) -> AlphaBetaStats:
    """The paper's blocked-BFS method (§4, step 2)."""
    pairs = 0
    runs = 0
    blocked = np.zeros(graph.n, dtype=bool)
    for sg in partition.subgraphs:
        arts = sg.boundary_arts()
        if arts.size == 0:
            continue
        blocked[sg.vertices] = True
        for a_local in arts.tolist():
            a_global = int(sg.vertices[a_local])
            blocked[a_global] = False
            sg.alpha[a_local] = bfs_blocked(graph, a_global, blocked)
            if graph.directed:
                sg.beta[a_local] = reverse_bfs_blocked(
                    graph, a_global, blocked
                )
                runs += 2
            else:
                sg.beta[a_local] = sg.alpha[a_local]
                runs += 1
            blocked[a_global] = True
            pairs += 1
        blocked[sg.vertices] = False
    return AlphaBetaStats(method="bfs", pairs=pairs, bfs_runs=runs)


def _sweep(
    csrs: List[Tuple[np.ndarray, np.ndarray]],
    row_sg: np.ndarray,
    row_src: np.ndarray,
    probes: List[Optional[np.ndarray]],
) -> Tuple[np.ndarray, List[Optional[np.ndarray]]]:
    """Bit-parallel multi-source BFS, one row per (sub-graph, source).

    ``csrs[j]`` is sub-graph ``j``'s ``(indptr, indices)`` in the
    sweep's direction; ``row_sg`` (sorted) and ``row_src`` give each
    row's sub-graph and local source, distinct within a sub-graph. Up
    to 64 rows of one sub-graph form a block: one ``uint64`` per
    vertex whose bit ``t`` marks the vertex reached by the block's row
    ``t``. Blocks run in batches of at most :data:`SWEEP_CELLS` bits
    over the block-diagonal union of their sub-graphs, and each level
    expands only the arcs leaving vertices that gained a bit. Returns
    each row's reached-vertex count and, where ``probes[j]`` is set,
    whether the row reached each of those local vertices of ``j``.
    """
    runs = np.flatnonzero(np.diff(row_sg, prepend=-1)).tolist()
    blocks = [
        (b, min(b + _WORD, end))
        for start, end in zip(runs, runs[1:] + [row_sg.size])
        for b in range(start, end, _WORD)
    ]
    cells = [_WORD * (csrs[row_sg[r0]][0].size - 1) for r0, _r1 in blocks]
    counts = np.zeros(row_sg.size, dtype=np.int64)
    hits: List[Optional[np.ndarray]] = [None] * row_sg.size
    i = 0
    while i < len(blocks):
        k, bits = i + 1, cells[i]
        while k < len(blocks) and bits + cells[k] <= SWEEP_CELLS:
            bits += cells[k]
            k += 1
        batch, i = blocks[i:k], k
        indptr, indices, base = block_diagonal(
            [csrs[row_sg[r0]] for r0, _r1 in batch]
        )
        rows = np.concatenate([np.arange(r0, r1) for r0, r1 in batch])
        blk = np.repeat(np.arange(len(batch)), [r1 - r0 for r0, r1 in batch])
        bit = rows - np.asarray([r0 for r0, _r1 in batch])[blk]
        seen = np.zeros(int(base[-1]), dtype=np.uint64)
        active = base[blk] + row_src[rows]
        words = np.left_shift(np.uint64(1), bit.astype(np.uint64))
        seen[active] = words
        while active.size:
            dst, _src = expand_frontier(indptr, indices, active)
            gain = np.repeat(words, indptr[active + 1] - indptr[active])
            gain &= ~seen[dst]
            keep = gain != 0
            dst, gain = dst[keep], gain[keep]
            active = np.unique(dst)
            words = seen[active]
            np.bitwise_or.at(seen, dst, gain)
            words ^= seen[active]  # the bits each vertex gained
        width = int(bit.max()) + 1
        per_bit = np.stack(
            [np.add.reduceat((seen >> t) & 1, base[:-1]) for t in range(width)],
            axis=1,
        )
        counts[rows] = per_bit[blk, bit]
        for b, (r0, r1) in enumerate(batch):
            probe = probes[row_sg[r0]]
            if probe is not None:
                at = seen[base[b] + probe]
                shifts = np.arange(r1 - r0, dtype=np.uint64)
                hits[r0:r1] = ((at[None, :] >> shifts[:, None]) & 1).astype(bool)
    return counts, hits


@dataclass
class _SubgraphTree:
    """The sub-graph tree, one entry per (sub-graph, boundary art) pair.

    Pairs of sub-graph ``j`` are ``first[j]:first[j+1]``; ``pair_art``
    and ``art_pairs`` join pairs through their articulation point.
    ``order`` lists the sub-graphs holding arts, parents first, and
    ``up[j]`` is ``j``'s pair at its parent art (-1 at a root). Pair
    ``p`` of ``j`` lies in reach class ``cls[j][p - first[j]]``: the
    arts of one class reach the same vertices of ``j``, and class
    ``c``'s first art has local id ``reps[j][c]``.
    """

    first: List[int]
    pair_art: List[int]
    art_pairs: List[List[int]]
    order: List[int] = field(default_factory=list)
    up: List[int] = field(default_factory=list)
    cls: List[List[int]] = field(default_factory=list)
    reps: List[np.ndarray] = field(default_factory=list)


def _build_tree(graph: CSRGraph, partition: Partition) -> _SubgraphTree:
    """Root every tree component at a sub-graph and class the arts.

    Sub-graphs share at most one vertex pairwise and own their induced
    arcs, so sub-graphs and boundary arts, joined by membership, form
    a forest. On a directed graph the arts in one SCC of a sub-graph
    share a class; undirected sub-graphs are connected, one class each.
    """
    subgraphs = partition.subgraphs
    arts = [sg.boundary_arts() for sg in subgraphs]
    first = np.cumsum([0] + [a.size for a in arts]).tolist()
    pair_sg = np.repeat(np.arange(len(subgraphs)), np.diff(first)).tolist()
    art_ids, pair_art = np.unique(
        np.concatenate([sg.vertices[a] for sg, a in zip(subgraphs, arts)]),
        return_inverse=True,
    )
    art_pairs: List[List[int]] = [[] for _ in range(art_ids.size)]
    for p, a in enumerate(pair_art.tolist()):
        art_pairs[a].append(p)
    tree = _SubgraphTree(first, pair_art.tolist(), art_pairs,
                         up=[-1] * len(subgraphs))

    seen = [False] * len(subgraphs)
    for root, a in enumerate(arts):
        if seen[root] or a.size == 0:
            continue
        seen[root] = True
        head = len(tree.order)
        tree.order.append(root)
        while head < len(tree.order):
            j = tree.order[head]
            head += 1
            for p in range(first[j], first[j + 1]):
                if p == tree.up[j]:
                    continue
                for q in art_pairs[tree.pair_art[p]]:
                    k = pair_sg[q]
                    if k == j:
                        continue
                    if seen[k]:  # pragma: no cover - sub-graphs form a tree
                        raise PartitionError("sub-graph tree has a cycle")
                    seen[k] = True
                    tree.up[k] = q
                    tree.order.append(k)

    for sg, a in zip(subgraphs, arts):
        if graph.directed and a.size > 1:
            labels = strongly_connected_components(sg.graph).labels[a]
            _l, rep, cls = np.unique(
                labels, return_index=True, return_inverse=True
            )
            tree.cls.append(cls.tolist())
            tree.reps.append(a[rep])
        else:
            tree.cls.append([0] * a.size)
            tree.reps.append(a[:1])
    return tree


def _tree_dp(
    tree: _SubgraphTree,
    size: List[List[int]],
    reach: List[Optional[np.ndarray]],
) -> List[int]:
    """α (or β) of every pair of ``tree``.

    Class ``c`` of sub-graph ``j`` reaches ``size[j][c]`` vertices of
    ``j`` and the classes flagged in row ``c`` of ``reach[j]`` (None
    for a sub-graph with one class).
    """
    first, cls, up = tree.first, tree.cls, tree.up
    alpha = [0] * first[-1]  # α_SGj(a), filled child-side first
    down = [0] * first[-1]  # D_j(a)

    def class_sums(j: int) -> List[int]:
        xs = alpha[first[j] : first[j + 1]]
        if reach[j] is None:
            return [sum(xs)]
        return (reach[j][:, cls[j]] @ np.asarray(xs, dtype=np.int64)).tolist()

    # post-order: α at each child art, then D toward the parent art
    # (α of j's own parent pair is still 0, standing in for "b ≠ a")
    for j in reversed(tree.order):
        for p in range(first[j], first[j + 1]):
            if p != up[j]:
                group = tree.art_pairs[tree.pair_art[p]]
                alpha[p] = sum(down[q] for q in group if q != p)
        p = up[j]
        if p >= 0:
            c = cls[j][p - first[j]]
            down[p] = size[j][c] - 1 + class_sums(j)[c]
    # pre-order: D away from the parent, then α of each child
    # sub-graph at that art as the art's total minus its own term
    for j in tree.order:
        sums = class_sums(j)
        for p in range(first[j], first[j + 1]):
            if p == up[j]:
                continue
            c = cls[j][p - first[j]]
            down[p] = size[j][c] - 1 + sums[c] - alpha[p]
            group = tree.art_pairs[tree.pair_art[p]]
            total = sum(down[q] for q in group)
            for q in group:
                if q != p:
                    alpha[q] = total - down[q]
    return alpha


def _alpha_beta_tree(graph: CSRGraph, partition: Partition) -> AlphaBetaStats:
    """Sub-graph-tree dynamic program (module docstring)."""
    subgraphs = partition.subgraphs
    if not partition.boundary_art_flags.any():
        return AlphaBetaStats(method="tree", pairs=0, bfs_runs=0)
    tree = _build_tree(graph, partition)
    stats = AlphaBetaStats(method="tree", pairs=tree.first[-1], bfs_runs=0)
    if graph.directed:
        # one sweep per class, from its first art
        per_sg = [r.size for r in tree.reps]
        row_sg = np.repeat(np.arange(len(subgraphs)), per_sg)
        row_src = np.concatenate(tree.reps)
        probes = [r if r.size > 1 else None for r in tree.reps]
        fwd, hits = _sweep(
            [(sg.graph.out_indptr, sg.graph.out_indices) for sg in subgraphs],
            row_sg, row_src, probes,
        )
        rev, _ = _sweep(
            [(sg.graph.in_indptr, sg.graph.in_indices) for sg in subgraphs],
            row_sg, row_src, [None] * len(subgraphs),
        )
        stats.bfs_runs = 2 * row_sg.size
        bounds = np.cumsum([0] + per_sg)
        rows = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        reach = [None if p is None else np.vstack(hits[s])
                 for p, s in zip(probes, rows)]
        alpha = _tree_dp(tree, [fwd[s].tolist() for s in rows], reach)
        beta = _tree_dp(tree, [rev[s].tolist() for s in rows],
                        [None if m is None else m.T for m in reach])
    else:
        alpha = beta = _tree_dp(
            tree, [[sg.num_vertices] for sg in subgraphs],
            [None] * len(subgraphs),
        )
    for j, sg in enumerate(subgraphs):
        arts = sg.boundary_arts()
        sg.alpha[arts] = alpha[tree.first[j] : tree.first[j + 1]]
        sg.beta[arts] = beta[tree.first[j] : tree.first[j + 1]]
    return stats


def compute_alpha_beta(
    graph: CSRGraph, partition: Partition, *, method: str = "auto"
) -> AlphaBetaStats:
    """Fill every sub-graph's ``alpha``/``beta`` arrays in place.

    See the module docstring for the available methods. Returns the
    phase statistics used by the execution-breakdown metrics.
    """
    if method == "auto":
        method = "tree"
    if method == "bfs":
        return _alpha_beta_bfs(graph, partition)
    if method == "tree":
        return _alpha_beta_tree(graph, partition)
    raise PartitionError(f"unknown alpha/beta method {method!r}")
