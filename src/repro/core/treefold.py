"""Exact BC via pendant-*tree* contraction (extension).

APGRE's total-redundancy elimination (γ/R) removes one layer of pendant
sources. The natural generalisation — due to the BADIOS framework of
Sariyüce et al., whose JPDC'14 paper the APGRE paper cites for its TEPS
metric [35] — contracts *entire pendant trees*: iteratively peel
degree-1 vertices, fold each peeled vertex's weight into its remaining
neighbour, then run a **weighted Brandes** on the surviving 2-core and
add the folded trees' contributions analytically.

For an undirected graph, with every core vertex ``v`` carrying weight
``w(v)`` = 1 + (peeled vertices folded into it):

* core sweep — per core source ``s`` the dependency recursion becomes
  ``δ(v) = Σ_w (σ_v/σ_w)(w(w) + δ(w))`` and the merges are::

      bc[v] += w(s) · δ(v) + w(s) · (w(v) − 1)      (v ≠ s, reached)
      bc[s] += (w(s) − 1) · δ(s)                     (tree sources)

  The ``w(s)·δ(v)`` term counts every (source-side, target-side) pair
  through core intermediates; ``w(s)·(w(v)−1)`` credits ``v`` for
  paths ending inside *its own* folded tree; ``(w(s)−1)·δ(s)``
  credits the anchor for its tree's outbound paths (``δ(s)``
  evaluated at the source equals the weighted reachable mass —
  Brandes' self-dependency identity).

* tree contributions — inside a folded tree paths are unique, so for
  a tree vertex ``x`` with subtree weight ``w(x)`` (descendants
  ``w(x) − 1``) and anchor ``a``::

      bc[x] += (N−1)² − Σ_c size_c²                 (within-tree pairs)
      bc[x] += 2 · (w(x) − 1) · D(a)                (tree ↔ outside)
      bc[a] += (N−1)² − Σ_branches w(branch)²       (within-tree at a)

  where ``N = w(a)`` is the tree size including the anchor, the
  ``size_c`` are the components of (tree − x) — the folded children's
  subtree weights plus the remainder toward the anchor — and
  ``D(a) = δ(a)`` from ``a``'s own core sweep (the weighted mass
  outside the tree; zero when the component *is* the tree).

Every formula is verified against the exact-Brandes oracle on the test
zoo and by hypothesis sweeps. Directed graphs are rejected — directed
pendant trees need asymmetric reach bookkeeping that APGRE's γ already
covers one level of; use :func:`repro.core.apgre.apgre_bc` there.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.baselines.common import WorkCounter
from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import bfs_sigma
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["FoldResult", "peel_pendant_trees", "treefold_bc"]


class FoldResult:
    """Outcome of the degree-1 peeling pass.

    Attributes
    ----------
    peel_order:
        Peeled vertices in removal order (leaves of the current graph
        first). A vertex appears here iff it belongs to a pendant tree
        (for an entirely tree-shaped component, all but one vertex).
    fold_parent:
        ``fold_parent[v]`` is the neighbour ``v``'s weight folded
        into (-1 for unpeeled vertices).
    weight:
        ``weight[v]`` = 1 + total vertices folded (transitively) into
        ``v``. For core vertices this is the Brandes vertex weight;
        for peeled vertices it is their subtree size within the tree.
    core_mask:
        Boolean mask of surviving (unpeeled) vertices.
    children:
        ``children[v]`` lists the vertices folded *directly* into
        ``v`` (its tree children), for the within-tree size products.
    """

    def __init__(self, n: int) -> None:
        self.peel_order: List[int] = []
        self.fold_parent = np.full(n, -1, dtype=np.int64)
        self.weight = np.ones(n, dtype=np.int64)
        self.core_mask = np.ones(n, dtype=bool)
        self.children: List[List[int]] = [[] for _ in range(n)]

    def anchor_of(self, v: int) -> int:
        """The core vertex a peeled vertex's chain folds into."""
        while self.fold_parent[v] >= 0:
            v = int(self.fold_parent[v])
        return v


def peel_pendant_trees(graph: CSRGraph) -> FoldResult:
    """Iteratively remove degree-1 vertices, folding weights upward.

    The peel itself is :func:`repro.graph.kcore.two_core` (an
    O(|V| + |E|) queue peel); this wrapper accumulates the
    subtree weights and child lists the treefold formulas need. A
    two-vertex component peels one endpoint (arbitrarily, the smaller
    id) and keeps the other as a weight-2 core singleton; a pure tree
    component collapses to one core vertex carrying the whole tree.
    """
    if graph.directed:
        raise AlgorithmError(
            "tree folding requires an undirected graph "
            "(see repro.core.apgre for directed pendant handling)"
        )
    from repro.graph.kcore import two_core

    n = graph.n
    result = FoldResult(n)
    peel = two_core(graph)
    result.core_mask = peel.core_mask
    result.fold_parent = peel.peel_parent
    result.peel_order = peel.peel_order.tolist()
    # peel_order lists each vertex after everything folded into it,
    # so one forward pass accumulates subtree weights exactly as the
    # incremental queue did
    for v in result.peel_order:
        parent = int(peel.peel_parent[v])
        result.children[parent].append(v)
        result.weight[parent] += result.weight[v]
    return result


def _within_tree_pairs(total: int, component_sizes: List[int]) -> int:
    """Ordered pairs of tree vertices whose path crosses the pivot.

    With ``total`` tree vertices overall, removing the pivot leaves
    components of the given sizes (summing to ``total − 1``); the
    ordered pairs separated by the pivot number
    ``(total−1)² − Σ size²``.
    """
    rest = total - 1
    return rest * rest - sum(c * c for c in component_sizes)


def treefold_bc(
    graph: CSRGraph,
    *,
    counter: Optional[WorkCounter] = None,
) -> np.ndarray:
    """Exact BC with pendant-tree contraction (undirected graphs).

    Equivalent to Brandes on any undirected graph; asymptotically
    removes all tree-shaped work (road networks with cul-de-sac
    hierarchies, collaboration networks with chains of one-paper
    authors). See the module docstring for the derivation.
    """
    fold = peel_pendant_trees(graph)
    n = graph.n
    bc = np.zeros(n, dtype=SCORE_DTYPE)
    weight = fold.weight.astype(SCORE_DTYPE)
    core = np.flatnonzero(fold.core_mask)

    # ---- build the core graph (local ids) ----
    local = np.full(n, -1, dtype=np.int64)
    local[core] = np.arange(core.size)
    src, dst = graph.arcs()
    keep = fold.core_mask[src] & fold.core_mask[dst] & (src <= dst)
    core_graph = CSRGraph.from_arcs(
        core.size, local[src[keep]], local[dst[keep]], directed=False
    )
    w_local = weight[core]

    # ---- weighted Brandes over the core ----
    anchor_mass = np.zeros(core.size, dtype=SCORE_DTYPE)  # D(a) per core
    for s_local in range(core.size):
        res = bfs_sigma(core_graph, s_local, keep_level_arcs=True)
        if counter is not None:
            counter.add(res.edges_traversed)
        sigma = res.sigma
        delta = np.zeros(core.size, dtype=SCORE_DTYPE)
        for d in range(res.depth - 1, -1, -1):
            lsrc, ldst = res.level_arcs[d]
            if lsrc.size == 0:
                continue
            contrib = sigma[lsrc] / sigma[ldst] * (w_local[ldst] + delta[ldst])
            np.add.at(delta, lsrc, contrib)
        ws = float(w_local[s_local])
        if len(res.levels) > 1:
            reached = np.concatenate(res.levels[1:])
            bc[core[reached]] += ws * delta[reached]
            # paths from s's side ending inside v's own folded tree
            bc[core[reached]] += ws * (w_local[reached] - 1.0)
        # the anchor's own folded-tree sources reaching the rest
        anchor_mass[s_local] = delta[s_local]
        if w_local[s_local] > 1:
            bc[core[s_local]] += (ws - 1.0) * delta[s_local]

    # ---- analytic tree contributions ----
    # within-tree separated pairs at each peeled vertex and anchor,
    # and tree<->outside traffic through peeled vertices
    for v in fold.peel_order:
        a = fold.anchor_of(v)
        total = int(fold.weight[a])
        child_sizes = [int(fold.weight[c]) for c in fold.children[v]]
        comp_sizes = child_sizes + [total - int(fold.weight[v])]
        bc[v] += _within_tree_pairs(total, comp_sizes)
        # tree <-> outside through v: descendants times outside mass
        d_a = float(anchor_mass[local[a]])
        bc[v] += 2.0 * (fold.weight[v] - 1.0) * d_a
    for a_local, a in enumerate(core.tolist()):
        if fold.weight[a] <= 1:
            continue
        total = int(fold.weight[a])
        branch_sizes = [int(fold.weight[c]) for c in fold.children[a]]
        bc[a] += _within_tree_pairs(total, branch_sizes)
    return bc
