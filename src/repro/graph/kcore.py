"""k-core decomposition (iterated degree peeling).

The degree-1 peel behind :mod:`repro.core.treefold` is the ``k = 2``
case of the general k-core decomposition (Matula–Beck): repeatedly
remove vertices of degree < k. ``core_numbers`` computes every
vertex's coreness in O(|V| + |E|) with the bucket-queue algorithm —
a useful structural fingerprint for the workload suite (power-law
analogues have deep cores, road lattices are all 2–3-core).

:func:`two_core` is the degree-1 peel primitive behind treefold's
pendant-tree contraction, which consumes its ``(core_mask,
peel_order, peel_parent)`` triple.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_undirected
from repro.types import VERTEX_DTYPE

__all__ = ["core_numbers", "k_core", "two_core", "TwoCoreResult"]


@dataclass
class TwoCoreResult:
    """Outcome of the shared degree-1 peel.

    Attributes
    ----------
    core_mask:
        Boolean mask of surviving vertices (the 2-core).
    peel_order:
        Peeled vertices in removal order — every vertex peels strictly
        after all vertices that folded into it, so a single forward
        pass over this order can accumulate subtree weights.
    peel_parent:
        ``peel_parent[v]`` is the neighbour ``v`` folded into
        (``-1`` for surviving vertices).
    """

    core_mask: np.ndarray
    peel_order: np.ndarray
    peel_parent: np.ndarray


def two_core(graph: CSRGraph) -> TwoCoreResult:
    """Iteratively remove degree-1 vertices (the 2-core peel).

    Whole pendant trees peel.  A two-vertex component peels one
    endpoint (the smaller id) and keeps the other as a degree-0
    survivor; directed graphs peel on the undirected shadow.
    """
    und = to_undirected(graph)
    n = und.n
    deg = und.out_degrees().astype(np.int64).copy()
    alive = np.ones(n, dtype=bool)
    peel_parent = np.full(n, -1, dtype=np.int64)
    order = []
    queue = deque(np.flatnonzero(deg == 1).tolist())
    while queue:
        v = int(queue.popleft())
        if not alive[v] or deg[v] != 1:
            continue
        parent = -1
        for w in und.out_neighbors(v).tolist():
            if alive[w]:
                parent = w
                break
        if parent < 0:  # last vertex of a 2-cycle chain; keep it
            continue
        alive[v] = False
        deg[parent] -= 1
        deg[v] = 0
        order.append(v)
        peel_parent[v] = parent
        if deg[parent] == 1:
            queue.append(parent)
    return TwoCoreResult(
        core_mask=alive,
        peel_order=np.asarray(order, dtype=np.int64),
        peel_parent=peel_parent,
    )


def core_numbers(graph: CSRGraph) -> np.ndarray:
    """Coreness of every vertex (undirected shadow for directed input).

    ``core[v]`` is the largest k such that v belongs to a subgraph
    with minimum degree k. Isolated vertices have coreness 0.
    """
    und = to_undirected(graph)
    n = und.n
    deg = und.out_degrees().astype(np.int64).copy()
    core = np.zeros(n, dtype=np.int64)
    # bucket-sorted vertices by current degree (Matula–Beck / Batagelj–
    # Zaveršnik): process in nondecreasing degree order, decrementing
    # neighbours' degrees as we go
    order = np.argsort(deg, kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    # bin_start[d] = first position in `order` with degree >= d
    max_deg = int(deg.max()) if n else 0
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    counts = np.bincount(deg, minlength=max_deg + 1)
    np.cumsum(counts, out=bin_start[1:])
    bin_start = bin_start[:-1].copy()

    order = order.copy()
    for i in range(n):
        v = int(order[i])
        core[v] = deg[v]
        for w in und.out_neighbors(v).tolist():
            if deg[w] > deg[v]:
                # swap w to the front of its degree bin, shrink bin
                dw = int(deg[w])
                front = int(bin_start[dw])
                u = int(order[front])
                if u != w:
                    order[front], order[pos[w]] = w, u
                    pos[u], pos[w] = pos[w], front
                bin_start[dw] += 1
                deg[w] -= 1
    return core


def k_core(graph: CSRGraph, k: int) -> np.ndarray:
    """Vertices of the k-core (coreness >= k).

    Raises
    ------
    GraphValidationError
        For negative k.
    """
    if k < 0:
        raise GraphValidationError(f"k must be >= 0, got {k}")
    return np.flatnonzero(core_numbers(graph) >= k).astype(VERTEX_DTYPE)
