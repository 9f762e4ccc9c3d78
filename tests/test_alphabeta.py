"""Tests for α/β counting (blocked BFS and sub-graph-tree DP)."""

import tracemalloc

import numpy as np
import networkx as nx
import pytest

from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import PartitionError
from repro.generators.suite import SUITE_SPECS, analogue_graph
from repro.graph.build import from_edges, from_networkx
from repro.graph.scc import strongly_connected_components
from tests.conftest import zoo


def brute_alpha_beta(g, nxg, partition):
    """Direct-definition α/β via networkx reachability."""
    out = {}
    for sg in partition.subgraphs:
        sg_verts = set(sg.vertices.tolist())
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            allowed = [v for v in range(g.n) if v not in sg_verts or v == a]
            sub = nxg.subgraph(allowed)
            if nxg.is_directed():
                alpha = len(nx.descendants(sub, a))
                beta = len(nx.ancestors(sub, a))
            else:
                comp = nx.node_connected_component(sub, a)
                alpha = beta = len(comp) - 1
            out[(sg.index, a)] = (alpha, beta)
    return out


@pytest.mark.parametrize("method", ["bfs", "tree"])
def test_matches_brute_force_undirected(method):
    for seed in range(6):
        nxg = nx.gnm_random_graph(35, 45, seed=seed)
        g = from_networkx(nxg, n=35)
        partition = graph_partition(g)
        compute_alpha_beta(g, partition, method=method)
        expected = brute_alpha_beta(g, nxg, partition)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                a = int(sg.vertices[a_local])
                alpha, beta = expected[(sg.index, a)]
                assert sg.alpha[a_local] == alpha, (seed, a, method)
                assert sg.beta[a_local] == beta, (seed, a, method)


@pytest.mark.parametrize("method", ["bfs", "tree"])
def test_matches_brute_force_directed(method):
    for seed in range(6):
        nxg = nx.gnm_random_graph(30, 45, seed=seed, directed=True)
        # add pendant sources to create asymmetric alpha/beta
        rng = np.random.default_rng(seed)
        for i in range(6):
            nxg.add_edge(30 + i, int(rng.integers(0, 30)))
        g = from_networkx(nxg, n=36)
        partition = graph_partition(g)
        compute_alpha_beta(g, partition, method=method)
        expected = brute_alpha_beta(g, nxg, partition)
        for sg in partition.subgraphs:
            for a_local in sg.boundary_arts().tolist():
                a = int(sg.vertices[a_local])
                alpha, beta = expected[(sg.index, a)]
                assert sg.alpha[a_local] == alpha, (seed, a, method)
                assert sg.beta[a_local] == beta, (seed, a, method)


def assert_tree_equals_bfs(g, threshold=8):
    """Both methods fill bit-identical α/β arrays."""
    p1 = graph_partition(g, threshold=threshold)
    p2 = graph_partition(g, threshold=threshold)
    compute_alpha_beta(g, p1, method="bfs")
    compute_alpha_beta(g, p2, method="tree")
    for sg1, sg2 in zip(p1.subgraphs, p2.subgraphs):
        assert np.array_equal(sg1.alpha, sg2.alpha), sg1.index
        assert np.array_equal(sg1.beta, sg2.beta), sg1.index


def test_tree_equals_bfs_on_undirected(zoo_entry):
    _name, g, _nxg = zoo_entry
    if g.directed:
        return
    assert_tree_equals_bfs(g)


_DIRECTED_ZOO = [(name, g) for name, g, _nxg in zoo() if g.directed]


@pytest.mark.parametrize(
    "g", [g for _name, g in _DIRECTED_ZOO],
    ids=[name for name, _g in _DIRECTED_ZOO],
)
def test_tree_equals_bfs_on_directed(g):
    for threshold in (0, 2, 8):
        assert_tree_equals_bfs(g, threshold)


@pytest.mark.parametrize("name", sorted(SUITE_SPECS))
def test_tree_equals_bfs_on_suite_analogues(name):
    assert_tree_equals_bfs(analogue_graph(name, scale=0.5, seed=1))


def test_auto_dispatch():
    # one DP for both directions: "auto" never forks on directedness
    g_und = from_edges([(0, 1), (1, 2)])
    stats = compute_alpha_beta(g_und, graph_partition(g_und), method="auto")
    assert stats.method == "tree"
    g_dir = from_edges([(0, 1), (1, 2)], directed=True)
    stats = compute_alpha_beta(g_dir, graph_partition(g_dir), method="auto")
    assert stats.method == "tree"


def test_tree_sweeps_once_per_art_scc():
    # a directed 4-cycle with a triangle hanging off two of its
    # vertices: the cycle sub-graph holds both arts in one SCC
    cycle = [(0, 1), (1, 2), (2, 3), (3, 0)]
    g = from_edges(cycle + [(0, 4), (4, 5), (5, 0), (2, 6), (6, 7), (7, 2)],
                   directed=True)
    partition = graph_partition(g)
    stats = compute_alpha_beta(g, partition, method="tree")
    art_sccs = 0
    for sg in partition.subgraphs:
        labels = strongly_connected_components(sg.graph).labels
        art_sccs += np.unique(labels[sg.boundary_arts()]).size
    assert stats.pairs == 4
    assert stats.bfs_runs == 2 * art_sccs == 6
    assert stats.bfs_runs < 2 * stats.pairs
    # undirected: every sub-graph reaches all of itself, no sweep runs
    und = from_edges(cycle + [(0, 4), (4, 5), (5, 0)])
    stats = compute_alpha_beta(und, graph_partition(und), method="tree")
    assert stats.bfs_runs == 0 and stats.pairs == 2


def test_tree_memory_stays_bounded():
    # the sweeps run in capped batches (SWEEP_CELLS) and keep only
    # counts and reached-art flags, never a (rows x n) σ matrix
    g = analogue_graph("WikiTalk", scale=6, seed=1)
    partition = graph_partition(g)
    tracemalloc.start()
    try:
        compute_alpha_beta(g, partition)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20, peak


def test_unknown_method():
    g = from_edges([(0, 1)])
    with pytest.raises(PartitionError, match="unknown"):
        compute_alpha_beta(g, graph_partition(g), method="nope")


def test_undirected_alpha_equals_beta(und_random):
    partition = graph_partition(und_random)
    compute_alpha_beta(und_random, partition, method="bfs")
    for sg in partition.subgraphs:
        assert np.array_equal(sg.alpha, sg.beta)


def test_alpha_sums_on_path():
    # path 0-1-2-3-4: whatever contiguous chunks the partitioner
    # produces, for a boundary articulation point a of a chunk
    # [lo..hi], alpha counts the vertices strictly beyond a on its
    # outward side: a vertices to the left of lo, or 4 - a to the
    # right of hi
    g = from_edges([(i, i + 1) for i in range(4)])
    partition = graph_partition(g, threshold=0)
    compute_alpha_beta(g, partition)
    checked = 0
    for sg in partition.subgraphs:
        verts = sorted(sg.vertices.tolist())
        lo, hi = verts[0], verts[-1]
        assert verts == list(range(lo, hi + 1))  # chunks are contiguous
        for a_local in sg.boundary_arts().tolist():
            a = int(sg.vertices[a_local])
            away = a if a == lo else 4 - a
            assert sg.alpha[a_local] == away
            checked += 1
    assert checked >= 2


def test_nonzero_only_on_boundary(und_random):
    partition = graph_partition(und_random)
    compute_alpha_beta(und_random, partition)
    for sg in partition.subgraphs:
        off_boundary = ~sg.is_boundary_art
        assert (sg.alpha[off_boundary] == 0).all()
        assert (sg.beta[off_boundary] == 0).all()


def test_stats_pairs_count(und_random):
    partition = graph_partition(und_random)
    stats = compute_alpha_beta(und_random, partition)
    expected = sum(sg.boundary_arts().size for sg in partition.subgraphs)
    assert stats.pairs == expected
