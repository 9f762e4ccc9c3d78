"""Tests for Algorithm 1 (GraphPartition) and sub-graph construction."""

import time

import numpy as np
import networkx as nx
import pytest

from repro.decompose.articulation import biconnected_components
from repro.decompose.bcc_tree import build_block_cut_tree
from repro.decompose.partition import (
    DEFAULT_THRESHOLD,
    _build_subgraphs,
    _group_blocks,
    graph_partition,
)
from repro.errors import PartitionError
from repro.generators.suite import analogue_graph, suite_names
from repro.graph.build import from_edges, from_networkx
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_undirected
from repro.graph.validate import validate_graph
from repro.types import SCORE_DTYPE, VERTEX_DTYPE


class TestPartitionInvariants:
    def test_zoo_invariants(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        partition = graph_partition(g)
        partition.validate()
        for sg in partition.subgraphs:
            validate_graph(sg.graph)

    @pytest.mark.parametrize("threshold", [0, 2, 5, 16, 1000])
    def test_threshold_sweep_invariants(self, und_random, threshold):
        partition = graph_partition(und_random, threshold=threshold)
        partition.validate()

    @pytest.mark.timeout(30)
    def test_hub_blocks_partition_in_linear_time(self):
        # 4000 single-edge blocks meet at one cut vertex; walking the
        # hub's block list once per block made this take ~11 s
        star = from_edges([(0, i) for i in range(1, 4001)])
        t0 = time.perf_counter()
        partition = graph_partition(star)
        assert time.perf_counter() - t0 < 2.0
        partition.validate()

    def test_negative_threshold(self, und_random):
        with pytest.raises(PartitionError, match=">= 0"):
            graph_partition(und_random, threshold=-1)

    def test_biconnected_components_stay_whole(self):
        # disjoint cycles are biconnected: one sub-graph each,
        # regardless of threshold
        g = from_edges(
            [(i, (i + 1) % 6) for i in range(6)]
            + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
        )
        for threshold in (0, 8, 10_000):
            partition = graph_partition(g, threshold=threshold)
            assert partition.num_subgraphs == 2

    def test_subgraphs_sorted_by_arcs(self, und_random):
        partition = graph_partition(und_random)
        arcs = [sg.num_arcs for sg in partition.subgraphs]
        assert arcs == sorted(arcs, reverse=True)
        assert partition.top is partition.subgraphs[0]

    def test_boundary_art_flags_subset_of_arts(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        partition = graph_partition(g)
        assert not (
            partition.boundary_art_flags & ~partition.articulation_flags
        ).any()

    def test_membership_counts(self, und_random):
        partition = graph_partition(und_random)
        counts = partition.membership_counts()
        boundary = partition.boundary_art_flags
        assert (counts[boundary] >= 2).all()
        assert (counts[~boundary] == 1).all()


class TestSubgraphEdges:
    def test_biconnected_graph_single_subgraph(self):
        g = from_edges([(i, (i + 1) % 6) for i in range(6)] + [(0, 3)])
        partition = graph_partition(g)
        assert partition.num_subgraphs == 1
        assert partition.top.num_vertices == 6

    def test_edge_between_two_arts_not_duplicated(self):
        # two triangles sharing an edge-free articulation pair:
        # a path a-b where both a and b are cut vertices and the edge
        # a-b is its own biconnected component
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        )
        partition = graph_partition(g, threshold=0)
        partition.validate()  # arc-sum check catches duplication

    def test_directed_arcs_recovered(self):
        # directed triangle + directed pendant chain
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)], directed=True
        )
        partition = graph_partition(g, threshold=0)
        partition.validate()
        total = sum(sg.num_arcs for sg in partition.subgraphs)
        assert total == g.num_arcs

    def test_isolated_vertices_form_leftover_subgraph(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)], n=6)
        partition = graph_partition(g)
        partition.validate()
        leftover = [sg for sg in partition.subgraphs if sg.num_arcs == 0]
        assert len(leftover) == 1
        assert sorted(leftover[0].vertices.tolist()) == [3, 4, 5]

    def test_empty_graph(self):
        g = from_edges([], n=0)
        partition = graph_partition(g)
        assert partition.num_subgraphs == 0
        with pytest.raises(PartitionError, match="no top"):
            partition.top


def per_group_subgraph(graph, edges, extra, boundary):
    """One group built on its own: its sorted vertex set, one
    ``CSRGraph.from_arcs`` over its arcs, then R/γ from its degrees."""
    pairs = np.concatenate(edges) if edges else np.empty((0, 2), np.int64)
    verts = np.unique(np.concatenate([pairs.ravel(), extra]))
    u, v = pairs[:, 0].astype(np.int64), pairs[:, 1].astype(np.int64)
    if graph.directed:
        src, dst = graph.arcs()
        keys = src.astype(np.int64) * graph.n + dst
        fwd = np.isin(u * graph.n + v, keys)
        bwd = np.isin(v * graph.n + u, keys)
        u, v = (
            np.concatenate([u[fwd], v[bwd]]),
            np.concatenate([v[fwd], u[bwd]]),
        )
    sub = CSRGraph.from_arcs(
        verts.size, np.searchsorted(verts, u), np.searchsorted(verts, v),
        directed=graph.directed, dedupe=False,
    )
    is_art = boundary[verts]
    removable = (sub.out_degrees() == 1) & ~is_art
    if graph.directed:
        removable &= sub.in_degrees() == 0
    removed = np.flatnonzero(removable).astype(VERTEX_DTYPE)
    gamma = np.zeros(verts.size, dtype=SCORE_DTYPE)
    np.add.at(gamma, sub.out_indices[sub.out_indptr[removed]], 1.0)
    zeros = np.zeros(verts.size, dtype=SCORE_DTYPE)
    return [
        sub.out_indptr, sub.out_indices, sub.in_indptr, sub.in_indices,
        verts.astype(VERTEX_DTYPE), is_art,
        np.flatnonzero(~removable).astype(VERTEX_DTYPE), gamma, removed,
        zeros, zeros,
    ]


def assert_one_pass_matches_per_group(graph, threshold=DEFAULT_THRESHOLD):
    bcc = biconnected_components(to_undirected(graph))
    groups = _group_blocks(bcc, build_block_cut_tree(bcc), threshold)
    subgraphs, boundary = _build_subgraphs(
        graph, groups, bcc.isolated_vertices, bcc.articulation_flags
    )
    extras = [np.empty(0, np.int64)] * len(groups)
    if bcc.isolated_vertices.size:
        groups, extras = groups + [[]], extras + [bcc.isolated_vertices]
    assert len(subgraphs) == len(groups)
    for sg, edges, extra in zip(subgraphs, groups, extras):
        g = sg.graph
        got = [
            g.out_indptr, g.out_indices, g.in_indptr, g.in_indices,
            sg.vertices, sg.is_boundary_art, sg.roots, sg.gamma,
            sg.removed, sg.alpha, sg.beta,
        ]
        want = per_group_subgraph(graph, edges, extra, boundary)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()


class TestOnePassBuild:
    """Building every sub-graph in one pass changes no byte of any."""

    @pytest.mark.parametrize("threshold", [2, DEFAULT_THRESHOLD])
    def test_zoo(self, zoo_entry, threshold):
        assert_one_pass_matches_per_group(zoo_entry[1], threshold)

    @pytest.mark.parametrize("name", suite_names())
    def test_suite_analogues(self, name):
        assert_one_pass_matches_per_group(analogue_graph(name))


class TestRootsAndGamma:
    def test_undirected_leaves_removed(self):
        # star: hub 0 with 4 leaves. The DFS may split the star's edge
        # blocks across sub-graphs (they chain through the shared hub),
        # but the totals are fixed: every leaf is removed somewhere and
        # the hub collects gamma = 4 overall.
        g = from_edges([(0, i) for i in range(1, 5)])
        partition = graph_partition(g)
        total_gamma = sum(float(sg.gamma.sum()) for sg in partition.subgraphs)
        total_removed = sum(sg.removed.size for sg in partition.subgraphs)
        assert total_gamma == 4
        assert total_removed == 4
        for sg in partition.subgraphs:
            hub = np.flatnonzero(sg.vertices == 0)
            if hub.size and sg.gamma.sum():
                assert sg.gamma[hub[0]] == sg.gamma.sum()

    def test_directed_pendant_sources_removed(self):
        g = from_edges(
            [(0, 1), (1, 2), (2, 0), (3, 0), (4, 0)], directed=True
        )
        partition = graph_partition(g)
        total_gamma = sum(float(sg.gamma.sum()) for sg in partition.subgraphs)
        total_removed = sum(sg.removed.size for sg in partition.subgraphs)
        assert total_gamma == 2
        assert total_removed == 2
        # the removed vertices are exactly the pendant sources 3 and 4
        removed_global = sorted(
            int(sg.vertices[r])
            for sg in partition.subgraphs
            for r in sg.removed.tolist()
        )
        assert removed_global == [3, 4]

    def test_directed_sink_not_removed(self):
        # 0->1: vertex 1 has in-degree 1, out-degree 0 — stays a root
        g = from_edges([(0, 1), (1, 2), (2, 1)], directed=True)
        partition = graph_partition(g)
        sg = partition.top
        one_local = int(np.flatnonzero(sg.vertices == 1)[0])
        assert one_local in sg.roots.tolist()

    def test_boundary_art_never_removed(self):
        # path 0-1-2: if threshold forces 1 to be a boundary art of two
        # sub-graphs, it must stay in both root sets even with deg 1
        g = from_edges([(0, 1), (1, 2)])
        partition = graph_partition(g, threshold=0)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                assert a_local in sg.roots.tolist()

    def test_two_vertex_component_both_removed(self):
        g = from_edges([(0, 1)])
        partition = graph_partition(g)
        sg = partition.top
        # undirected leaf-leaf pair: both pendants, R empty
        assert sg.roots.size == 0
        assert sg.removed.size == 2
        assert sg.gamma.sum() == 2

    def test_gamma_counts_match_removed(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        partition = graph_partition(g)
        for sg in partition.subgraphs:
            assert sg.gamma.sum() == sg.removed.size


class TestPaperExample:
    def test_three_subgraphs_and_arts(self):
        from repro.generators.structured import paper_example_graph

        g = paper_example_graph()
        partition = graph_partition(g, threshold=8)
        partition.validate()
        # arts 2, 3, 6; pendants 0,1 merge into the middle sub-graph
        arts = np.flatnonzero(partition.articulation_flags).tolist()
        assert arts == [2, 3, 6]
        vertex_sets = sorted(
            tuple(sorted(sg.vertices.tolist())) for sg in partition.subgraphs
        )
        # the paper's SG1/SG2/SG3 plus the pendant block {0,1,2}
        assert (3, 10, 11, 12) in vertex_sets  # SG1
        assert (6, 7, 8, 9) in vertex_sets  # SG3
        assert any(set((2, 3, 4, 5, 6)) <= set(vs) for vs in vertex_sets)
        # γ(2) == 2 in whichever sub-graph holds the pendants
        gamma2 = 0.0
        for sg in partition.subgraphs:
            mask = sg.vertices == 2
            if mask.any():
                gamma2 = max(gamma2, float(sg.gamma[np.flatnonzero(mask)[0]]))
        assert gamma2 == 2
