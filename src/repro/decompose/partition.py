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

All sub-graphs are built in one vectorised pass over the concatenation
of their local vertex spaces (:func:`_build_subgraphs`), so a graph
that shatters into many small pieces pays no per-piece CSR build.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.decompose.articulation import BCCResult, biconnected_components
from repro.decompose.bcc_tree import BlockCutTree, build_block_cut_tree
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, _build_csr
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
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Recover the original directed arcs for undirected edge pairs.

    The block decomposition runs on the undirected shadow; each shadow
    edge ``{u, v}`` corresponds to ``u->v``, ``v->u`` or both in the
    directed input. Membership is tested by binary search in the
    graph's sorted arc keys (:func:`_arc_keys`, built once per
    partition). Returns ``(src, dst, pair)``: every arc and the index
    of the pair it came from.
    """
    u = pairs[:, 0].astype(np.int64)
    v = pairs[:, 1].astype(np.int64)
    fwd = np.searchsorted(keys, u * n + v)
    fwd_ok = (fwd < keys.size) & (keys[np.minimum(fwd, keys.size - 1)] == u * n + v)
    bwd = np.searchsorted(keys, v * n + u)
    bwd_ok = (bwd < keys.size) & (keys[np.minimum(bwd, keys.size - 1)] == v * n + u)
    out_src = np.concatenate([u[fwd_ok], v[bwd_ok]])
    out_dst = np.concatenate([v[fwd_ok], u[bwd_ok]])
    pair = np.concatenate([np.flatnonzero(fwd_ok), np.flatnonzero(bwd_ok)])
    return out_src, out_dst, pair


def _group_blocks(
    bcc: BCCResult, tree: BlockCutTree, threshold: int
) -> List[List[np.ndarray]]:
    """Algorithm 1's block walk: the edge arrays of each finalised group.

    Groups come out in the order the walk finalises them.
    """
    num_blocks = tree.num_blocks
    block_edge_counts = np.asarray(
        [edges.shape[0] for edges in bcc.component_edges], dtype=np.int64
    )

    # group state: edge-array list + vertex count per *live* group root
    group_edges: Dict[int, List[np.ndarray]] = {
        c: [bcc.component_edges[c]] for c in range(num_blocks)
    }
    group_size = [verts.size for verts in bcc.component_vertices]

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
            size = group_size[curr]
            if size <= 2 if prev == top else size < threshold:
                # the two groups are subtrees of the block-cut tree
                # joined at one cut vertex: it is their only common one
                group_edges[prev].extend(group_edges.pop(curr))
                group_size[prev] += size - 1
            else:
                finalized.append(curr)
    return [group_edges[gid] for gid in finalized]


def _build_subgraphs(
    graph: CSRGraph,
    groups: List[List[np.ndarray]],
    isolated: np.ndarray,
    articulation_flags: np.ndarray,
) -> Tuple[List[Subgraph], np.ndarray]:
    """Materialise every group as a sub-graph, in one pass.

    ``groups[g]`` lists group ``g``'s undirected edge arrays; a
    non-empty ``isolated`` adds one leftover sub-graph of those
    vertices. All groups share one concatenated vertex space: one
    ``np.unique`` over ``(group, vertex)`` keys sorts each group's
    vertices, and one CSR build (plus its reverse when directed) over
    that space holds every group's arcs, already in local ids. Degrees,
    boundary flags, roots, γ and the removed pendants are computed over
    the whole space, and each sub-graph takes its slices. Returns the
    sub-graphs, in group order, and the boundary articulation mask.
    """
    n, directed = graph.n, graph.directed
    num = len(groups) + (1 if isolated.size else 0)
    arrays = [a for edges in groups for a in edges]
    pairs = np.concatenate(arrays) if arrays else np.empty((0, 2), np.int64)
    pair_group = np.repeat(
        np.repeat(
            np.arange(len(groups), dtype=np.int64),
            [len(edges) for edges in groups],
        ),
        [a.shape[0] for a in arrays],
    )
    keys = np.unique(np.concatenate([
        np.repeat(pair_group, 2) * n + pairs.ravel(),
        len(groups) * n + isolated.astype(np.int64),
    ]))
    vstart = np.searchsorted(keys, np.arange(num + 1, dtype=np.int64) * n)
    vgroup = np.repeat(np.arange(num, dtype=np.int64), np.diff(vstart))
    verts = (keys - vgroup * n).astype(VERTEX_DTYPE)
    total = keys.size

    # each shadow edge lies in exactly one block, so the arcs are
    # already distinct; a row's heads share its group, so sorting by
    # local head id sorts each row as the per-group build would
    if directed:
        src, dst, pair = _directed_arcs_for_pairs(n, _arc_keys(graph), pairs)
        arc_group = pair_group[pair]
    else:
        src, dst, arc_group = pairs[:, 0], pairs[:, 1], pair_group
    tail = np.searchsorted(keys, arc_group * n + src)
    head = np.searchsorted(keys, arc_group * n + dst)
    base = vstart[arc_group]
    if directed:
        out_indptr, out_indices = _build_csr(total, tail, head - base)
        in_indptr, in_indices = _build_csr(total, head, tail - base)
    else:  # each undirected edge both ways
        out_indptr, out_indices = _build_csr(
            total,
            np.concatenate([tail, head]),
            np.concatenate([head - base, tail - base]),
        )
        in_indptr, in_indices = out_indptr, out_indices
    out_deg = np.diff(out_indptr)

    # --- boundary articulation points: shared by >= 2 sub-graphs ---
    boundary = (np.bincount(verts, minlength=n) >= 2) & articulation_flags
    is_art = boundary[verts]
    # R/γ: a removable source has one out-arc and (directed) no
    # in-arcs; boundary articulation points are never removed ("As u
    # is not an articulation point", proof of Theorem 3)
    removable = (out_deg == 1) & ~is_art
    if directed:
        removable &= np.diff(in_indptr) == 0
    removed = np.flatnonzero(removable)
    targets = out_indices[out_indptr[removed]] + vstart[vgroup[removed]]
    gamma = np.bincount(targets, minlength=total).astype(SCORE_DTYPE)
    roots = np.flatnonzero(~removable)
    rstart = np.searchsorted(roots, vstart).tolist()
    dstart = np.searchsorted(removed, vstart).tolist()
    roots = (roots - vstart[vgroup[roots]]).astype(VERTEX_DTYPE)
    removed = (removed - vstart[vgroup[removed]]).astype(VERTEX_DTYPE)
    alpha = np.zeros(total, dtype=SCORE_DTYPE)
    beta = np.zeros(total, dtype=SCORE_DTYPE)

    subgraphs: List[Subgraph] = []
    bounds = vstart.tolist()
    arcs = out_indptr[vstart].tolist()
    in_arcs = in_indptr[vstart].tolist()
    for g in range(num):
        lo, hi = bounds[g], bounds[g + 1]
        ip = out_indptr[lo : hi + 1] - arcs[g]
        ix = out_indices[arcs[g] : arcs[g + 1]]
        if directed:
            rp = in_indptr[lo : hi + 1] - in_arcs[g]
            rx = in_indices[in_arcs[g] : in_arcs[g + 1]]
        else:
            rp, rx = ip, ix
        subgraphs.append(Subgraph(
            index=g,
            graph=CSRGraph(hi - lo, ip, ix, rp, rx, directed),
            vertices=verts[lo:hi],
            is_boundary_art=is_art[lo:hi],
            roots=roots[rstart[g] : rstart[g + 1]],
            gamma=gamma[lo:hi],
            removed=removed[dstart[g] : dstart[g + 1]],
            alpha=alpha[lo:hi],
            beta=beta[lo:hi],
        ))
    return subgraphs, boundary


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
    subgraphs, boundary = _build_subgraphs(
        graph,
        _group_blocks(bcc, tree, threshold),
        bcc.isolated_vertices,
        bcc.articulation_flags,
    )

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
