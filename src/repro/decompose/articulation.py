"""Articulation points and biconnected components (Hopcroft–Tarjan).

The paper's ``FINDBCC()`` "finds all biconnected components and all
articulation points using Tarjan's algorithm, requiring O(|V|+|E|)
time" (§4, citing Hopcroft & Tarjan, CACM 1973). This implementation
is the standard single-pass DFS with an edge stack, written
*iteratively* (an explicit stack plus a per-vertex adjacency cursor)
so million-edge graphs cannot hit CPython's recursion limit.

Directedness: biconnectivity is an undirected notion; callers pass the
undirected shadow (:func:`repro.graph.ops.to_undirected`) for directed
graphs, exactly as Algorithm 1's ``GETUNDG`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import PartitionError
from repro.graph.csr import CSRGraph

__all__ = [
    "BCCResult",
    "biconnected_components",
    "articulation_points",
    "bridges",
]


@dataclass
class BCCResult:
    """Output of the biconnected-component decomposition.

    Attributes
    ----------
    component_edges:
        One ``(k, 2)`` int array per biconnected component listing its
        undirected edges (each edge exactly once, in DFS discovery
        order). Every edge of the graph belongs to exactly one
        component ("an edge in G is assigned to one sub-graph", §3.1
        property 4).
    component_vertices:
        One int array per component with its distinct vertices.
    articulation_flags:
        Boolean mask over vertices; ``True`` marks articulation points.
    isolated_vertices:
        Vertices with no incident edges (they belong to no component;
        Algorithm 1 collects them into a final leftover sub-graph).
    """

    component_edges: List[np.ndarray]
    component_vertices: List[np.ndarray]
    articulation_flags: np.ndarray
    isolated_vertices: np.ndarray

    @property
    def num_components(self) -> int:
        return len(self.component_edges)

    def articulation_points(self) -> np.ndarray:
        """Sorted array of articulation-point vertex ids."""
        return np.flatnonzero(self.articulation_flags)


def biconnected_components(graph: CSRGraph) -> BCCResult:
    """Decompose an **undirected** graph into biconnected components.

    Raises
    ------
    PartitionError
        If handed a directed graph (convert with ``to_undirected``
        first — implicit conversion here would hide an easy-to-make
        caller bug, since α/β must still be computed on the *directed*
        graph).
    """
    if graph.directed:
        raise PartitionError(
            "biconnected_components requires an undirected graph; "
            "pass to_undirected(graph)"
        )
    n = graph.n
    # the DFS reads and writes one element at a time: Python lists do
    # that several times faster than numpy scalar indexing
    indptr = graph.out_indptr.tolist()
    indices = graph.out_indices.tolist()

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    is_art = np.zeros(n, dtype=bool)
    cursor = indptr[:-1]  # per-vertex next-neighbour position
    parent_skipped = [False] * n
    # where each vertex's tree edge sits on the edge stack: a component
    # is the stack from its closing tree edge up
    at = [0] * n

    component_edges: List[np.ndarray] = []
    edge_stack: List[tuple] = []
    timer = 0

    for root in range(n):
        if disc[root] >= 0 or indptr[root] == indptr[root + 1]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack = [root]
        while stack:
            v = stack[-1]
            if cursor[v] < indptr[v + 1]:
                w = indices[cursor[v]]
                cursor[v] += 1
                if w == parent[v] and not parent_skipped[v]:
                    # skip the single reverse copy of the tree edge
                    # (graphs are simple; a second occurrence would be
                    # a genuine parallel edge, i.e. a cycle)
                    parent_skipped[v] = True
                elif disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = timer
                    timer += 1
                    at[w] = len(edge_stack)
                    edge_stack.append((v, w))
                    stack.append(w)
                    if v == root:
                        root_children += 1
                elif disc[w] < disc[v]:
                    # genuine back edge (the mirror copies with
                    # disc[w] > disc[v] were already handled from w)
                    edge_stack.append((v, w))
                    if disc[w] < low[v]:
                        low[v] = disc[w]
            else:
                stack.pop()
                if not stack:
                    continue
                u = stack[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
                if low[v] >= disc[u]:
                    # u separates v's subtree: pop one biconnected
                    # component, the tree edge (u, v) and all above it
                    component_edges.append(
                        np.asarray(edge_stack[at[v]:], dtype=np.int64)
                    )
                    del edge_stack[at[v]:]
                    if u != root:
                        is_art[u] = True
        if root_children >= 2:
            is_art[root] = True
        if edge_stack:  # pragma: no cover - defensive invariant
            raise PartitionError("edge stack not drained after DFS root")

    component_vertices = _grouped_component_vertices(component_edges)
    deg = graph.out_degrees()
    isolated = np.flatnonzero(deg == 0)
    return BCCResult(
        component_edges=component_edges,
        component_vertices=component_vertices,
        articulation_flags=is_art,
        isolated_vertices=isolated,
    )


def _grouped_component_vertices(
    component_edges: List[np.ndarray],
) -> List[np.ndarray]:
    """Distinct sorted vertices of every component in one grouped pass.

    Equivalent to ``[np.unique(e.ravel()) for e in component_edges]``
    but with a single lexsort over all endpoints instead of one
    ``np.unique`` per component — the per-component calls dominated
    preprocessing on partitions with many small blocks (bridge-heavy
    graphs produce one block per bridge), and preprocessing now sits on
    the incremental-recompute hot path.
    """
    k = len(component_edges)
    if k == 0:
        return []
    counts = np.asarray(
        [2 * edges.shape[0] for edges in component_edges], dtype=np.int64
    )
    flat = np.concatenate(component_edges, axis=0).ravel()
    comp_of = np.repeat(np.arange(k, dtype=np.int64), counts)
    order = np.lexsort((flat, comp_of))
    comp_sorted = comp_of[order]
    vert_sorted = flat[order]
    keep = np.empty(vert_sorted.size, dtype=bool)
    keep[0] = True
    keep[1:] = (comp_sorted[1:] != comp_sorted[:-1]) | (
        vert_sorted[1:] != vert_sorted[:-1]
    )
    comp_sorted = comp_sorted[keep]
    vert_sorted = vert_sorted[keep]
    bounds = np.searchsorted(comp_sorted, np.arange(k + 1, dtype=np.int64))
    return [
        vert_sorted[bounds[c] : bounds[c + 1]] for c in range(k)
    ]


def articulation_points(graph: CSRGraph) -> np.ndarray:
    """Sorted articulation points of the undirected shadow of ``graph``.

    Convenience wrapper accepting directed input (unlike
    :func:`biconnected_components`, there is no α/β pitfall here).
    """
    from repro.graph.ops import to_undirected

    return biconnected_components(to_undirected(graph)).articulation_points()


def bridges(graph: CSRGraph) -> np.ndarray:
    """Bridge edges of the undirected shadow of ``graph``.

    A bridge is an edge whose removal disconnects its component —
    equivalently, a biconnected component of exactly one edge, so it
    falls out of the decomposition for free. Returns a ``(k, 2)``
    array of endpoint pairs (``u <= v``), sorted.

    Bridges are the edge-level counterpart of articulation points: the
    paper's pendant edges and inter-sub-graph connections are all
    bridges, which is why single-edge blocks dominate the partition
    counts of Table 4.
    """
    from repro.graph.ops import to_undirected

    result = biconnected_components(to_undirected(graph))
    out = [
        np.sort(edges[0])
        for edges in result.component_edges
        if edges.shape[0] == 1
    ]
    if not out:
        return np.empty((0, 2), dtype=np.int64)
    arr = np.stack(out).astype(np.int64)
    order = np.lexsort((arr[:, 1], arr[:, 0]))
    return arr[order]
