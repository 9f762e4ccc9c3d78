"""Graph partitioning by articulation points (paper Algorithm 1).

``GraphPartition`` walks the block-cut tree depth-first starting from
the *top* biconnected component (the one with the most edges), merging
small neighbouring components so sub-graphs have useful granularity:

* a component smaller than ``threshold`` vertices whose DFS parent is
  not the top component is merged into its parent;
* a two-vertex component (single edge — every bridge and pendant edge)
  hanging directly off the top component is merged into the top;
* everything else becomes its own sub-graph.

The paper runs this DFS only from the giant component's top BCC and
sweeps every remaining component into one leftover sub-graph
(Algorithm 1 lines 26–32). This implementation instead repeats the
top-BCC walk *per connected component* — identical on the connected
benchmark graphs, strictly better (more eliminated redundancy) on
disconnected ones — and keeps the leftover sub-graph only for
isolated vertices. The deviation is recorded in DESIGN.md.

After the block walk the partitioner derives, per sub-graph:

* the boundary articulation set ``A_sgi`` (articulation points shared
  with at least one other sub-graph);
* the root set ``R_sgi`` and pendant multiplicities ``γ_sgi`` — a
  vertex with no incoming edges and a single outgoing edge (directed),
  or degree one (undirected), that is not a boundary articulation
  point is removed from the root set and its neighbour's γ is bumped
  ("BUILDSUBGRAPH() will set γ_SGi[] and R_SGi[]", §4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.decompose.articulation import biconnected_components
from repro.decompose.bcc_tree import BlockCutTree, build_block_cut_tree
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_undirected
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["Subgraph", "Partition", "graph_partition", "DEFAULT_THRESHOLD"]

#: Default Algorithm-1 merge threshold (the paper leaves THRESHOLD
#: unspecified; 8 keeps satellite communities intact while folding
#: trivial bridge chains — see the threshold ablation benchmark).
DEFAULT_THRESHOLD = 8


@dataclass
class Subgraph:
    """One sub-graph of the decomposition, in local coordinates.

    Local vertex ``i`` corresponds to global vertex ``vertices[i]``;
    all other arrays are indexed by local id.

    Attributes
    ----------
    index:
        Position within :attr:`Partition.subgraphs`.
    graph:
        The sub-graph's own CSR (directed iff the parent graph is):
        the edges of its merged biconnected components. Sub-graphs
        share at most one vertex pairwise, so these are exactly the
        arcs of the parent graph induced on :attr:`vertices`.
    vertices:
        Sorted global ids of the sub-graph's vertices.
    is_boundary_art:
        Mask of boundary articulation points (the paper's ``A_sgi``).
    roots:
        Local ids of the root set ``R_sgi`` (sources to run BFS from).
    gamma:
        ``γ_sgi[v]``: number of removed pendant sources whose
        dependency is derived from ``v``'s DAG.
    removed:
        Local ids of the removed pendant sources (for the redundancy
        metrics; they stay in :attr:`graph` as ordinary vertices).
    alpha, beta:
        ``α_sgi``/``β_sgi`` per local vertex (zero for non-boundary
        vertices), filled in by
        :func:`repro.decompose.alphabeta.compute_alpha_beta`.
    """

    index: int
    graph: CSRGraph
    vertices: np.ndarray
    is_boundary_art: np.ndarray
    roots: np.ndarray
    gamma: np.ndarray
    removed: np.ndarray
    alpha: np.ndarray = field(default_factory=lambda: np.zeros(0))
    beta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def num_vertices(self) -> int:
        return self.graph.n

    @property
    def num_arcs(self) -> int:
        return self.graph.num_arcs

    def boundary_arts(self) -> np.ndarray:
        """Local ids of the boundary articulation points."""
        return np.flatnonzero(self.is_boundary_art).astype(VERTEX_DTYPE)


@dataclass
class Partition:
    """Result of :func:`graph_partition`.

    ``subgraphs`` is ordered by descending arc count, so
    ``subgraphs[0]`` is the paper's *top sub-graph* (Table 4). The
    leftover isolated-vertex sub-graph, when present, sorts last.
    """

    graph: CSRGraph
    subgraphs: List[Subgraph]
    articulation_flags: np.ndarray
    boundary_art_flags: np.ndarray
    threshold: int

    @property
    def num_subgraphs(self) -> int:
        return len(self.subgraphs)

    @property
    def top(self) -> Subgraph:
        if not self.subgraphs:
            raise PartitionError("partition of an empty graph has no top")
        return self.subgraphs[0]

    def membership_counts(self) -> np.ndarray:
        """How many sub-graphs contain each global vertex."""
        counts = np.zeros(self.graph.n, dtype=np.int64)
        for sg in self.subgraphs:
            counts[sg.vertices] += 1
        return counts

    def validate(self) -> None:
        """Check partition invariants; raises :class:`PartitionError`.

        * every vertex belongs to >= 1 sub-graph;
        * only boundary articulation points belong to > 1;
        * arc counts over sub-graphs sum to the graph's arc count.
        """
        counts = self.membership_counts()
        if (counts < 1).any():
            missing = np.flatnonzero(counts < 1)[:5]
            raise PartitionError(f"vertices missing from partition: {missing}")
        multi = counts > 1
        if (multi & ~self.boundary_art_flags).any():
            bad = np.flatnonzero(multi & ~self.boundary_art_flags)[:5]
            raise PartitionError(
                f"non-boundary vertices duplicated across sub-graphs: {bad}"
            )
        arcs = sum(sg.num_arcs for sg in self.subgraphs)
        if arcs != self.graph.num_arcs:
            raise PartitionError(
                f"sub-graph arcs sum to {arcs}, graph has {self.graph.num_arcs}"
            )


def _arc_keys(graph: CSRGraph) -> np.ndarray:
    """Sorted linearised keys ``src * n + dst`` of every arc."""
    src, dst = graph.arcs()
    keys = src.astype(np.int64) * graph.n + dst.astype(np.int64)
    keys.sort()
    return keys


def _directed_arcs_for_pairs(
    n: int, keys: np.ndarray, pairs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Recover the original directed arcs for undirected edge pairs.

    The block decomposition runs on the undirected shadow; each shadow
    edge ``{u, v}`` corresponds to ``u->v``, ``v->u`` or both in the
    directed input. Membership is tested by binary search in the
    graph's sorted arc keys (:func:`_arc_keys`, built once per
    partition).
    """
    u = pairs[:, 0].astype(np.int64)
    v = pairs[:, 1].astype(np.int64)
    fwd = np.searchsorted(keys, u * n + v)
    fwd_ok = (fwd < keys.size) & (keys[np.minimum(fwd, keys.size - 1)] == u * n + v)
    bwd = np.searchsorted(keys, v * n + u)
    bwd_ok = (bwd < keys.size) & (keys[np.minimum(bwd, keys.size - 1)] == v * n + u)
    out_src = np.concatenate([u[fwd_ok], v[bwd_ok]])
    out_dst = np.concatenate([v[fwd_ok], u[bwd_ok]])
    return out_src, out_dst


def _build_subgraph(
    index: int,
    graph: CSRGraph,
    edge_arrays: List[np.ndarray],
    extra_vertices: Optional[np.ndarray] = None,
    arc_keys: Optional[np.ndarray] = None,
) -> Subgraph:
    """Materialise one sub-graph from its undirected edge arrays.

    A directed ``graph`` takes its sorted ``arc_keys``
    (:func:`_arc_keys`); an undirected one ignores them.

    Boundary/root/γ fields are placeholders; they are resolved by
    :func:`graph_partition` once global boundary information exists.
    """
    if edge_arrays:
        pairs = np.concatenate(edge_arrays, axis=0)
        verts = np.unique(pairs.ravel())
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
        verts = np.empty(0, dtype=np.int64)
    if extra_vertices is not None and extra_vertices.size:
        verts = np.unique(np.concatenate([verts, extra_vertices]))
    if graph.directed:
        gsrc, gdst = _directed_arcs_for_pairs(graph.n, arc_keys, pairs)
    else:
        gsrc, gdst = pairs[:, 0], pairs[:, 1]
    # each shadow edge lies in exactly one block, so the arcs are
    # already distinct; local ids by binary search in the sorted
    # ``verts`` keep the cost per sub-graph off the graph's size
    sub = CSRGraph.from_arcs(
        verts.size,
        np.searchsorted(verts, gsrc),
        np.searchsorted(verts, gdst),
        directed=graph.directed,
        dedupe=False,
    )
    n_local = verts.size
    return Subgraph(
        index=index,
        graph=sub,
        vertices=verts.astype(VERTEX_DTYPE),
        is_boundary_art=np.zeros(n_local, dtype=bool),
        roots=np.arange(n_local, dtype=VERTEX_DTYPE),
        gamma=np.zeros(n_local, dtype=SCORE_DTYPE),
        removed=np.empty(0, dtype=VERTEX_DTYPE),
        alpha=np.zeros(n_local, dtype=SCORE_DTYPE),
        beta=np.zeros(n_local, dtype=SCORE_DTYPE),
    )


def _resolve_roots_and_gamma(sg: Subgraph) -> None:
    """Fill ``roots``/``gamma``/``removed`` (the paper's R/γ).

    Directed: removable sources have no in-arcs and exactly one
    out-arc; undirected: degree-one leaves. Boundary articulation
    points are never removed ("As u is not an articulation point",
    proof of Theorem 3).
    """
    g = sg.graph
    if g.directed:
        removable = (
            (g.in_degrees() == 0)
            & (g.out_degrees() == 1)
            & ~sg.is_boundary_art
        )
    else:
        removable = (g.out_degrees() == 1) & ~sg.is_boundary_art
    removed = np.flatnonzero(removable).astype(VERTEX_DTYPE)
    gamma = np.zeros(g.n, dtype=SCORE_DTYPE)
    if removed.size:
        targets = g.out_indices[g.out_indptr[removed]]
        np.add.at(gamma, targets, 1.0)
    sg.roots = np.flatnonzero(~removable).astype(VERTEX_DTYPE)
    sg.gamma = gamma
    sg.removed = removed


def graph_partition(
    graph: CSRGraph, *, threshold: int = DEFAULT_THRESHOLD
) -> Partition:
    """Decompose ``graph`` into articulation-point-separated sub-graphs.

    This is the paper's Algorithm 1 (see the module docstring for the
    one documented deviation on disconnected inputs).

    Parameters
    ----------
    graph:
        Directed or undirected input.
    threshold:
        Small-component merge threshold (vertices). ``threshold <= 2``
        disables all merging except the mandatory single-edge rule.
    """
    if threshold < 0:
        raise PartitionError(f"threshold must be >= 0, got {threshold}")
    und = to_undirected(graph)
    bcc = biconnected_components(und)
    tree = build_block_cut_tree(bcc)
    num_blocks = tree.num_blocks

    block_edge_counts = np.asarray(
        [edges.shape[0] for edges in bcc.component_edges], dtype=np.int64
    )

    # group state: edge-array list + vertex set per *live* group root
    group_edges: Dict[int, List[np.ndarray]] = {
        c: [bcc.component_edges[c]] for c in range(num_blocks)
    }
    group_verts: Dict[int, Set[int]] = {
        c: set(bcc.component_vertices[c].tolist()) for c in range(num_blocks)
    }

    visited = np.zeros(num_blocks, dtype=bool)
    finalized: List[int] = []
    block_cuts = [cuts.tolist() for cuts in tree.block_cuts]
    cut_blocks = {a: blocks.tolist() for a, blocks in tree.cut_blocks.items()}

    # --- forest discovery: connected groups of blocks ---
    # A block's neighbours are the blocks at its cuts. Once one block
    # has expanded a cut, every block at that cut is seen, so later
    # blocks skip it and a hub's list is walked once, not per block.
    forests: List[List[int]] = []
    seen = np.zeros(num_blocks, dtype=bool)
    expanded: Set[int] = set()
    for c0 in range(num_blocks):
        if seen[c0]:
            continue
        comp = [c0]
        seen[c0] = True
        queue = [c0]
        while queue:
            c = queue.pop()
            for a in block_cuts[c]:
                if a in expanded:
                    continue
                expanded.add(a)
                for nb in cut_blocks[a]:
                    if not seen[nb]:
                        seen[nb] = True
                        comp.append(nb)
                        queue.append(nb)
        forests.append(comp)

    # --- Algorithm 1 DFS per forest, rooted at its top BCC ---
    # A block takes its neighbours cut by cut (``cut_at``), each cut
    # list from one cursor shared by all its blocks (``cut_next``):
    # entries before a cursor are visited, so every block still gets
    # its first unvisited neighbour and each list is walked once.
    cut_at = [0] * num_blocks
    cut_next = dict.fromkeys(cut_blocks, 0)
    for forest in forests:
        top = forest[int(np.argmax(block_edge_counts[forest]))]
        visited[top] = True
        stack = [top]
        while stack:
            curr = stack[-1]
            cuts = block_cuts[curr]
            nb = -1
            while cut_at[curr] < len(cuts):
                a = cuts[cut_at[curr]]
                blocks = cut_blocks[a]
                k = cut_next[a]
                while k < len(blocks) and visited[blocks[k]]:
                    k += 1
                cut_next[a] = k
                if k < len(blocks):
                    nb = blocks[k]
                    break
                cut_at[curr] += 1
            if nb >= 0:
                visited[nb] = True
                stack.append(nb)
                continue
            stack.pop()
            if not stack:
                finalized.append(curr)  # the top block itself
                continue
            prev = stack[-1]
            size = len(group_verts[curr])
            if prev != top and size < threshold:
                group_edges[prev].extend(group_edges.pop(curr))
                group_verts[prev].update(group_verts.pop(curr))
            elif prev == top and size <= 2:
                group_edges[prev].extend(group_edges.pop(curr))
                group_verts[prev].update(group_verts.pop(curr))
            else:
                finalized.append(curr)

    # --- materialise sub-graphs ---
    keys = _arc_keys(graph) if graph.directed else None
    subgraphs: List[Subgraph] = []
    for gid in finalized:
        subgraphs.append(
            _build_subgraph(
                len(subgraphs), graph, group_edges[gid], arc_keys=keys
            )
        )
    if bcc.isolated_vertices.size:
        subgraphs.append(
            _build_subgraph(
                len(subgraphs), graph, [],
                extra_vertices=bcc.isolated_vertices, arc_keys=keys,
            )
        )

    # --- boundary articulation points: shared by >= 2 sub-graphs ---
    membership = np.zeros(graph.n, dtype=np.int64)
    for sg in subgraphs:
        membership[sg.vertices] += 1
    boundary = (membership >= 2) & bcc.articulation_flags
    for sg in subgraphs:
        sg.is_boundary_art = boundary[sg.vertices]
        _resolve_roots_and_gamma(sg)

    # top sub-graph first (Table 4 ordering: by edge count)
    subgraphs.sort(key=lambda s: (-s.num_arcs, -s.num_vertices))
    for i, sg in enumerate(subgraphs):
        sg.index = i

    return Partition(
        graph=graph,
        subgraphs=subgraphs,
        articulation_flags=bcc.articulation_flags,
        boundary_art_flags=boundary,
        threshold=threshold,
    )
