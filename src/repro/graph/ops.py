"""Whole-graph operations: components, reversal, subgraph extraction.

All operations are vectorised frontier sweeps over the CSR arrays —
there are no per-edge Python loops (see the HPC guide's "vectorizing
for loops" rule).
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = [
    "degrees",
    "reverse_graph",
    "to_undirected",
    "connected_components",
    "component_sizes",
    "largest_component",
    "reachable_from",
    "induced_subgraph",
    "edge_subgraph",
    "block_diagonal",
    "relabel_sorted",
]


def degrees(graph: CSRGraph) -> np.ndarray:
    """Total degree per vertex.

    For directed graphs this is ``in + out``; for undirected graphs it
    is the plain degree (each incident edge counted once).
    """
    if graph.directed:
        return graph.out_degrees() + graph.in_degrees()
    return graph.out_degrees()


def reverse_graph(graph: CSRGraph) -> CSRGraph:
    """The graph with every arc flipped (identity for undirected)."""
    if not graph.directed:
        return graph
    return CSRGraph(
        graph.n,
        graph.in_indptr,
        graph.in_indices,
        graph.out_indptr,
        graph.out_indices,
        directed=True,
    )


#: id(graph) -> undirected shadow, evicted by a weakref finalizer when
#: the source graph is collected.  CSRGraph is immutable, so the shadow
#: can never go stale; keying by id is safe because the finalizer
#: removes the entry before the id can be reused.
_UNDIRECTED_CACHE: Dict[int, CSRGraph] = {}


def to_undirected(graph: CSRGraph) -> CSRGraph:
    """The undirected shadow of ``graph`` (identity when undirected).

    This is ``GETUNDG`` from the paper's Algorithm 1: articulation
    points and biconnected components are always computed on the
    undirected shadow, even for directed inputs.  The shadow is
    memoized per graph instance — ``kcore``, ``ordering``,
    ``partition`` and ``articulation`` all call this on the same
    object within one ``apgre_bc`` run, and only the first call pays
    for the symmetrised rebuild.
    """
    if not graph.directed:
        return graph
    key = id(graph)
    cached = _UNDIRECTED_CACHE.get(key)
    if cached is not None:
        return cached
    src, dst = graph.arcs()
    shadow = CSRGraph.from_arcs(graph.n, src, dst, directed=False)
    _UNDIRECTED_CACHE[key] = shadow
    weakref.finalize(graph, _UNDIRECTED_CACHE.pop, key, None)
    return shadow


def _frontier_expand(graph: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """All out-neighbours of the frontier vertices, with duplicates."""
    starts = graph.out_indptr[frontier]
    counts = graph.out_indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=VERTEX_DTYPE)
    # Gather the concatenated adjacency slices without a Python loop:
    # offsets[i] enumerates 0..counts-1 within each slice.
    offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return graph.out_indices[np.repeat(starts, counts) + offsets]


def connected_components(graph: CSRGraph) -> Tuple[np.ndarray, int]:
    """Undirected connected components (weak components for directed).

    Returns
    -------
    labels:
        int32 array mapping each vertex to a component id in
        ``[0, num_components)``; ids are assigned in order of the
        smallest vertex in each component.
    num_components:
        Number of components.
    """
    und = to_undirected(graph)
    labels = np.full(graph.n, -1, dtype=VERTEX_DTYPE)
    comp = 0
    for start in range(graph.n):
        if labels[start] >= 0:
            continue
        labels[start] = comp
        frontier = np.asarray([start], dtype=VERTEX_DTYPE)
        while frontier.size:
            nxt = _frontier_expand(und, frontier)
            nxt = nxt[labels[nxt] < 0]
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            labels[nxt] = comp
            frontier = nxt
        comp += 1
    return labels, comp


def component_sizes(graph: CSRGraph) -> np.ndarray:
    """Sizes of the undirected components, largest first."""
    labels, k = connected_components(graph)
    sizes = np.bincount(labels, minlength=k)
    return np.sort(sizes)[::-1]


def largest_component(graph: CSRGraph) -> Tuple[CSRGraph, np.ndarray]:
    """The induced subgraph on the largest undirected component.

    Returns the subgraph and the original vertex ids of its vertices
    (``new id i`` corresponds to ``old id vertices[i]``).
    """
    labels, k = connected_components(graph)
    if k == 0:
        return graph, np.empty(0, dtype=VERTEX_DTYPE)
    sizes = np.bincount(labels, minlength=k)
    keep = np.flatnonzero(labels == int(np.argmax(sizes))).astype(VERTEX_DTYPE)
    return induced_subgraph(graph, keep), keep


def reachable_from(
    graph: CSRGraph, source: int, blocked: Optional[np.ndarray] = None
) -> np.ndarray:
    """Boolean mask of vertices reachable from ``source``.

    ``blocked`` is an optional boolean mask of vertices the traversal
    may not enter (the source itself is always visited). This is the
    primitive behind the paper's α counting — "the number of vertices
    which a can reach without passing through SGi".
    """
    seen = np.zeros(graph.n, dtype=bool)
    seen[source] = True
    if blocked is not None:
        seen = seen | blocked  # blocked vertices pretend to be visited
        seen[source] = True
    frontier = np.asarray([source], dtype=VERTEX_DTYPE)
    while frontier.size:
        nxt = _frontier_expand(graph, frontier)
        nxt = nxt[~seen[nxt]]
        if nxt.size == 0:
            break
        nxt = np.unique(nxt)
        seen[nxt] = True
        frontier = nxt
    if blocked is not None:
        seen &= ~blocked
        seen[source] = True
    return seen


def induced_subgraph(
    graph: CSRGraph, vertices: np.ndarray
) -> CSRGraph:
    """The subgraph induced by ``vertices`` with relabeled ids.

    New vertex ``i`` corresponds to ``vertices[i]`` (the input order is
    preserved; ids must be unique).
    """
    vertices = np.asarray(vertices, dtype=VERTEX_DTYPE)
    remap = np.full(graph.n, -1, dtype=VERTEX_DTYPE)
    remap[vertices] = np.arange(vertices.size, dtype=VERTEX_DTYPE)
    src, dst = graph.arcs()
    keep = (remap[src] >= 0) & (remap[dst] >= 0)
    if not graph.directed:
        keep &= src <= dst  # avoid doubling: from_arcs re-symmetrises
    return CSRGraph.from_arcs(
        vertices.size,
        remap[src[keep]],
        remap[dst[keep]],
        directed=graph.directed,
    )


def edge_subgraph(
    graph: CSRGraph,
    vertices: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
) -> CSRGraph:
    """A subgraph with an explicit vertex set and an explicit arc list.

    Unlike :func:`induced_subgraph` the arcs are supplied by the caller
    (in *global* ids); this is what the partitioner needs because a
    sub-graph must contain exactly the edges of its biconnected
    components — two articulation points of the same sub-graph may be
    joined by an edge that belongs to a *different* sub-graph, which an
    induced extraction would wrongly capture.

    For undirected graphs pass each edge once (either orientation).
    """
    vertices = np.asarray(vertices, dtype=VERTEX_DTYPE)
    remap = np.full(graph.n, -1, dtype=VERTEX_DTYPE)
    remap[vertices] = np.arange(vertices.size, dtype=VERTEX_DTYPE)
    return CSRGraph.from_arcs(
        vertices.size, remap[src], remap[dst], directed=graph.directed
    )


def block_diagonal(
    csrs: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack CSR ``(indptr, indices)`` pairs into one block-diagonal CSR.

    Vertex ``i`` of part ``k`` becomes vertex ``offsets[k] + i`` of the
    union and keeps its arcs in their order, so a traversal of the
    union never leaves the part it starts in.  Returns ``(indptr,
    indices, offsets)``; the int64 ``offsets`` has one entry per part
    plus the union's vertex count.
    """
    offsets = np.zeros(len(csrs) + 1, dtype=np.int64)
    np.cumsum([p[0].size - 1 for p in csrs], out=offsets[1:])
    arc_base = np.zeros(len(csrs) + 1, dtype=np.int64)
    np.cumsum([p[1].size for p in csrs], out=arc_base[1:])
    indptr = np.concatenate(
        [np.zeros(1, dtype=np.int64)]
        + [p[0][1:] + arc_base[k] for k, p in enumerate(csrs)]
    )
    indices = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [p[1] + offsets[k] for k, p in enumerate(csrs)]
    )
    return indptr, indices, offsets


def relabel_sorted(vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort a vertex id array and return ``(sorted, inverse_positions)``.

    ``inverse_positions[i]`` is the index of ``vertices[i]`` in the
    sorted output; handy when a caller needs a canonical vertex order
    but wants to translate results back.
    """
    order = np.argsort(vertices, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(order.size)
    return np.asarray(vertices)[order], inverse
