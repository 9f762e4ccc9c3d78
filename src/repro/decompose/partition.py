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

The partition keeps the block-level state its walk saw
(:class:`BlockWalk`), so an edge delta that leaves the block-cut tree
and the walk alone derives the next graph's partition from this one
(:func:`derive_partition`): only the sub-graphs the delta touched are
rebuilt, and the result is byte-identical to re-partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.decompose.articulation import BCCResult, biconnected_components
from repro.decompose.bcc_tree import BlockCutTree, build_block_cut_tree
from repro.errors import PartitionError
from repro.graph.csr import CSRGraph, _build_csr
from repro.graph.ops import edit_edges, to_undirected
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = [
    "BlockWalk",
    "DEFAULT_THRESHOLD",
    "Partition",
    "Subgraph",
    "derive_partition",
    "graph_partition",
]

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


@dataclass(frozen=True)
class BlockWalk:
    """The block-level state Algorithm 1's walk saw, as compact arrays.

    :func:`derive_partition` reads it to tell whether an edge delta
    leaves the walk's outcome alone; it holds no per-block edge list.

    * ``vertex_ptr``/``vertex_blocks`` — CSR over vertices: the blocks
      each vertex lies in, ascending (one for a non-cut vertex, two or
      more at a cut, none for an isolated one);
    * ``edges`` — each block's edge count in the undirected shadow;
    * ``group`` — each block's group, as its position in the order
      the walk finalised the groups;
    * ``top`` — the top block of each block's forest;
    * ``order`` — the finalize position of each sub-graph, by index
      (the order the sub-graphs had before the sort by size).
    """

    vertex_ptr: np.ndarray
    vertex_blocks: np.ndarray
    edges: np.ndarray
    group: np.ndarray
    top: np.ndarray
    order: np.ndarray

    def blocks_of(self, v: int) -> np.ndarray:
        """The blocks vertex ``v`` lies in, ascending."""
        return self.vertex_blocks[self.vertex_ptr[v] : self.vertex_ptr[v + 1]]


@dataclass
class Partition:
    """Result of :func:`graph_partition`.

    ``subgraphs`` is ordered by descending arc count, so
    ``subgraphs[0]`` is the paper's *top sub-graph* (Table 4). The
    leftover isolated-vertex sub-graph, when present, sorts last.
    ``walk`` is the block-level state of the walk that made it
    (:func:`derive_partition` needs it).
    """

    graph: CSRGraph
    subgraphs: List[Subgraph]
    articulation_flags: np.ndarray
    boundary_art_flags: np.ndarray
    threshold: int
    walk: Optional[BlockWalk] = None

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
) -> Tuple[List[List[int]], np.ndarray, np.ndarray]:
    """Algorithm 1's block walk: the blocks of each finalised group.

    Groups come out in the order the walk finalises them.  Also
    returns each block's edge count and its forest's top block.
    """
    num_blocks = tree.num_blocks
    block_edge_counts = np.asarray(
        [edges.shape[0] for edges in bcc.component_edges], dtype=np.int64
    )
    block_top = np.empty(num_blocks, dtype=np.int64)

    # group state: block list + vertex count per *live* group root
    group_blocks: Dict[int, List[int]] = {c: [c] for c in range(num_blocks)}
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
        block_top[forest] = top
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
                group_blocks[prev].extend(group_blocks.pop(curr))
                group_size[prev] += size - 1
            else:
                finalized.append(curr)
    groups = [group_blocks[gid] for gid in finalized]
    return groups, block_edge_counts, block_top


def _sources(
    out_indptr: np.ndarray,
    out_indices: np.ndarray,
    in_indptr: np.ndarray,
    is_art: np.ndarray,
    directed: bool,
    base: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The root set, γ and the removed pendants of one vertex space.

    A removable source has one out-arc and (directed) no in-arcs;
    boundary articulation points (``is_art``) are never removed ("As u
    is not an articulation point", proof of Theorem 3).  Each removed
    source bumps its neighbour's γ; ``base[v]``, when given, is added
    to ``v``'s neighbour ids (which are local to ``v``'s sub-graph) to
    place them in the space.  Returns ``(roots, gamma, removed)``:
    ``roots`` and ``removed`` as positions in the space.
    """
    removable = (np.diff(out_indptr) == 1) & ~is_art
    if directed:
        removable &= np.diff(in_indptr) == 0
    removed = np.flatnonzero(removable)
    targets = out_indices[out_indptr[removed]]
    if base is not None:
        targets = targets + base[removed]
    gamma = np.bincount(targets, minlength=is_art.size).astype(SCORE_DTYPE)
    return np.flatnonzero(~removable), gamma, removed


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

    # --- boundary articulation points: shared by >= 2 sub-graphs ---
    boundary = (np.bincount(verts, minlength=n) >= 2) & articulation_flags
    is_art = boundary[verts]
    roots, gamma, removed = _sources(
        out_indptr, out_indices, in_indptr, is_art, directed,
        vstart[vgroup],
    )
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
    groups, edges, top = _group_blocks(bcc, tree, threshold)
    subgraphs, boundary = _build_subgraphs(
        graph,
        [[bcc.component_edges[b] for b in blocks] for blocks in groups],
        bcc.isolated_vertices,
        bcc.articulation_flags,
    )
    order = _sort_subgraphs(subgraphs)

    sizes = [verts.size for verts in bcc.component_vertices]
    vertex_ptr, vertex_blocks = _build_csr(
        graph.n,
        np.concatenate([np.empty(0, np.int64), *bcc.component_vertices]),
        np.repeat(np.arange(len(sizes)), sizes),
    )
    group = np.empty(edges.size, dtype=np.int64)
    group[[b for blocks in groups for b in blocks]] = np.repeat(
        np.arange(len(groups)), [len(blocks) for blocks in groups]
    )
    return Partition(
        graph=graph,
        subgraphs=subgraphs,
        articulation_flags=bcc.articulation_flags,
        boundary_art_flags=boundary,
        threshold=threshold,
        walk=BlockWalk(vertex_ptr, vertex_blocks, edges, group, top, order),
    )


def _sort_subgraphs(subgraphs: List[Subgraph]) -> np.ndarray:
    """Sort sub-graphs given in finalize order top first (Table 4
    ordering: by arc count, then vertex count, ties kept in finalize
    order) and renumber them; returns each one's finalize position."""
    size = np.asarray(
        [(sg.graph.num_arcs, sg.graph.n) for sg in subgraphs], dtype=np.int64
    ).reshape(-1, 2)
    order = np.lexsort((-size[:, 1], -size[:, 0]))
    subgraphs[:] = [subgraphs[i] for i in order.tolist()]
    for i, sg in enumerate(subgraphs):
        sg.index = i
    return order


def _in_shadow(graph: CSRGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair ``{u, v}`` is an edge of the undirected shadow."""
    if not graph.directed:
        return graph.has_arcs(u, v)
    both = graph.has_arcs(np.concatenate([u, v]), np.concatenate([v, u]))
    return both[: u.size] | both[u.size :]


def derive_partition(
    previous: Partition, graph: CSRGraph, delta
) -> Optional[Partition]:
    """``graph_partition(graph)`` derived from ``previous``, or ``None``.

    ``previous`` is the partition of the graph that ``delta`` (an
    :class:`~repro.cache.incremental.EdgeDelta`: the edges really
    added and removed) turned into ``graph``, at the same threshold.
    An edge added inside one block leaves the block-cut tree, every
    articulation point and every sub-graph's vertex set alone (§3.1,
    properties 3-4); the walk then finalises the same groups in the
    same order whenever

    * every changed edge of the undirected shadow is an addition whose
      endpoints share a block ``B``, and ``B`` is its forest's top or
      neither endpoint is a cut vertex; changes that leave the shadow
      alone (directed arcs whose reverse arc exists) always qualify;
    * every touched forest's top still has strictly more edges than
      any other of its blocks.

    The walk sees the block numbering only through the order of the
    blocks at each cut and each forest's first block, which breaks
    ties for the top.  An in-block addition moves its block among a
    cut's blocks only when an endpoint is that cut vertex, where a
    top block is already visited and so never taken from the cut's
    list, and the strict top makes the first block irrelevant.  Any
    other delta returns ``None`` (re-partition instead).

    Only the touched sub-graphs are rebuilt: their CSR edited
    (:func:`~repro.graph.ops.edit_edges`), their roots, γ and removed
    pendants recomputed (:func:`_sources`).  Then the sub-graphs are
    re-sorted from their finalize order, so order, ``index``, arrays
    and dtypes equal ``graph_partition(graph)``'s.  α and β carry over
    on an undirected graph (they count vertices of the sub-graph tree,
    which are unchanged); on a directed one every sub-graph gets fresh
    zero arrays, for :func:`~repro.decompose.alphabeta.compute_alpha_beta`
    to fill.  ``previous`` is never modified: the result holds new
    :class:`Subgraph` records that share the untouched arrays.
    """
    walk, old = previous.walk, previous.graph
    if walk is None or old.n != graph.n or old.directed != graph.directed:
        return None
    pairs = np.concatenate([delta.added, delta.removed]).reshape(-1, 2)
    n = graph.n
    shadow = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    u, v = shadow // n, shadow % n
    before, after = _in_shadow(old, u, v), _in_shadow(graph, u, v)
    if (before & ~after).any():
        return None  # a bridge removed or a block split
    cut = previous.articulation_flags
    edges = walk.edges.copy()
    groups: Set[int] = set()
    for a, b, grown in zip(u.tolist(), v.tolist(), (after & ~before).tolist()):
        common = np.intersect1d(
            walk.blocks_of(a), walk.blocks_of(b), assume_unique=True
        )
        if common.size == 0:
            return None  # blocks merge, or an endpoint was isolated
        block = int(common[0])
        if grown:
            if walk.top[block] != block and (cut[a] or cut[b]):
                return None
            edges[block] += 1
        groups.add(int(walk.group[block]))
    for top in np.unique(walk.top[edges != walk.edges]).tolist():
        forest = walk.top == top
        forest[top] = False
        if forest.any() and edges[forest].max() >= edges[top]:
            return None

    index = np.empty_like(walk.order)
    index[walk.order] = np.arange(walk.order.size)
    directed = graph.directed
    if directed:
        total = sum(sg.num_vertices for sg in previous.subgraphs)
        alpha = np.zeros(total, dtype=SCORE_DTYPE)
        beta = np.zeros(total, dtype=SCORE_DTYPE)
    subgraphs: List[Subgraph] = []
    at = 0
    for g, i in enumerate(index.tolist()):
        sg = previous.subgraphs[i]
        new = Subgraph(g, sg.graph, sg.vertices, sg.is_boundary_art,
                       sg.roots, sg.gamma, sg.removed, sg.alpha, sg.beta)
        if g in groups:
            new.graph = edit_edges(sg.graph, *delta.inside(sg.vertices))
            roots, gamma, removed = _sources(
                new.graph.out_indptr, new.graph.out_indices,
                new.graph.in_indptr, sg.is_boundary_art, directed,
            )
            new.roots = roots.astype(VERTEX_DTYPE)
            new.gamma = gamma
            new.removed = removed.astype(VERTEX_DTYPE)
        if directed:
            new.alpha = alpha[at : at + sg.num_vertices]
            new.beta = beta[at : at + sg.num_vertices]
            at += sg.num_vertices
        subgraphs.append(new)
    order = _sort_subgraphs(subgraphs)
    return Partition(
        graph=graph,
        subgraphs=subgraphs,
        articulation_flags=previous.articulation_flags,
        boundary_art_flags=previous.boundary_art_flags,
        threshold=previous.threshold,
        walk=replace(walk, edges=edges, order=order),
    )
