"""Property-based tests (hypothesis) for the core invariants.

Random-graph strategies sweep directedness, density, pendant structure
and disconnection; each property is one of DESIGN.md §6's bullet
points. Graph sizes stay small so the exact oracles are cheap — the
value here is breadth of shapes, not scale.
"""

import numpy as np
import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.brandes import brandes_bc
from repro.baselines.common import per_source_delta
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.core.dependencies import accumulate_four_dependencies
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.articulation import biconnected_components
from repro.decompose.partition import graph_partition
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_undirected
from repro.graph.traversal import bfs_sigma, bfs_sigma_hybrid
from repro.graph.validate import validate_graph

SETTINGS = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw, max_n=28, directed=None):
    """A random graph with skewed structure knobs.

    Mixes a G(n,m) core with optional pendant vertices (the APGRE-
    relevant structure) and optional extra isolated vertices.
    """
    n_core = draw(st.integers(min_value=1, max_value=max_n))
    if directed is None:
        directed = draw(st.booleans())
    max_m = n_core * (n_core - 1) // (1 if directed else 2)
    m = draw(st.integers(min_value=0, max_value=min(max_m, 3 * n_core)))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        u, v = rng.integers(0, n_core, size=2)
        if u == v:
            continue
        if not directed:
            u, v = min(u, v), max(u, v)
        edges.add((int(u), int(v)))
    edge_list = sorted(edges)
    n = n_core
    # pendants
    n_pend = draw(st.integers(min_value=0, max_value=8))
    for _ in range(n_pend):
        anchor = int(rng.integers(0, n))
        edge_list.append((n, anchor))
        n += 1
    # isolated tail vertices
    n += draw(st.integers(min_value=0, max_value=3))
    return from_edges(edge_list, n=n, directed=directed)


@given(random_graphs())
@settings(**SETTINGS)
def test_apgre_equals_brandes(g):
    """(a) APGRE == Brandes on every graph."""
    np.testing.assert_allclose(
        apgre_bc(g), brandes_bc(g), rtol=1e-8, atol=1e-8
    )


@given(random_graphs(), st.integers(min_value=0, max_value=20))
@settings(**SETTINGS)
def test_apgre_threshold_invariance(g, threshold):
    """(a') ... for every partition threshold."""
    np.testing.assert_allclose(
        apgre_bc(g, threshold=threshold),
        brandes_bc(g),
        rtol=1e-8,
        atol=1e-8,
    )


@given(random_graphs())
@settings(**SETTINGS)
def test_apgre_without_pendant_elimination(g):
    np.testing.assert_allclose(
        apgre_bc(g, eliminate_pendants=False),
        brandes_bc(g),
        rtol=1e-8,
        atol=1e-8,
    )


@given(random_graphs(), st.integers(min_value=0, max_value=8), st.booleans())
@settings(**SETTINGS)
def test_default_run_equals_per_source_reference(g, threshold, eliminate):
    """The default run (bundles and batches) == the per-source
    reference, tally included."""
    options = dict(threshold=threshold, eliminate_pendants=eliminate)
    default = apgre_bc_detailed(g, APGREConfig(**options))
    reference = apgre_bc_detailed(g, APGREConfig(batch_size=None, **options))
    np.testing.assert_allclose(
        default.scores, reference.scores, rtol=1e-9, atol=1e-9
    )
    assert default.stats.edges_traversed == reference.stats.edges_traversed


@given(random_graphs())
@settings(**SETTINGS)
def test_partition_invariants(g):
    """(b) the partition covers the graph exactly once (modulo arts)."""
    partition = graph_partition(g)
    partition.validate()
    for sg in partition.subgraphs:
        validate_graph(sg.graph)
        assert sg.gamma.sum() == sg.removed.size


@given(random_graphs(), st.integers(min_value=0, max_value=20))
@settings(**SETTINGS)
def test_subgraphs_form_a_tree(g, threshold):
    """(b') what the α/β tree DP rests on: sub-graphs share at most one
    vertex pairwise, each owns exactly its induced arcs, and sub-graphs
    plus boundary arts, joined by membership, form a forest."""
    partition = graph_partition(g, threshold=threshold)
    vertex_sets = [set(sg.vertices.tolist()) for sg in partition.subgraphs]
    for i, a in enumerate(vertex_sets):
        for b in vertex_sets[i + 1:]:
            assert len(a & b) <= 1
    src, dst = g.arcs()
    for sg, verts in zip(partition.subgraphs, vertex_sets):
        induced = {
            (u, v) for u, v in zip(src.tolist(), dst.tolist())
            if u in verts and v in verts
        }
        ssrc, sdst = sg.graph.arcs()
        owned = set(zip(sg.vertices[ssrc].tolist(), sg.vertices[sdst].tolist()))
        assert owned == induced
    tree = nx.Graph()
    for sg in partition.subgraphs:
        tree.add_node(("sg", sg.index))
        for a in sg.vertices[sg.is_boundary_art].tolist():
            tree.add_edge(("sg", sg.index), ("art", a))
    assert nx.is_forest(tree)


@given(random_graphs(), st.integers(min_value=0, max_value=9))
@settings(**SETTINGS)
def test_alpha_beta_tree_equals_bfs(g, threshold):
    """(c) the tree DP and blocked BFS agree, in both directions."""
    p1 = graph_partition(g, threshold=threshold)
    p2 = graph_partition(g, threshold=threshold)
    compute_alpha_beta(g, p1, method="bfs")
    compute_alpha_beta(g, p2, method="tree")
    for sg1, sg2 in zip(p1.subgraphs, p2.subgraphs):
        np.testing.assert_array_equal(sg1.alpha, sg2.alpha)
        np.testing.assert_array_equal(sg1.beta, sg2.beta)


@given(random_graphs(), st.integers(min_value=0, max_value=9))
@settings(**SETTINGS)
def test_four_dependencies_fold_into_one_sweep(g, threshold):
    """(c') δ_o2o = β(s)·δ_i2o, so eq. 7 merges one weighted sweep of
    δ_i2i + δ_i2o (what the batched kernels run)."""
    partition = graph_partition(g, threshold=threshold)
    compute_alpha_beta(g, partition)
    for sg in partition.subgraphs:
        for s in range(sg.graph.n):
            res = bfs_sigma(sg.graph, s, keep_level_arcs=True)
            dep = accumulate_four_dependencies(
                res, alpha=sg.alpha, beta=sg.beta, is_art=sg.is_boundary_art
            )
            beta_s = dep.size_o2i  # β(s)·[s ∈ A]
            np.testing.assert_allclose(
                dep.delta_o2o, beta_s * dep.delta_i2o, rtol=1e-12
            )
            y = dep.delta_i2i + dep.delta_i2o
            gamma_s = sg.gamma[s]
            np.testing.assert_allclose(
                (1 + gamma_s) * y + beta_s * dep.delta_i2i + dep.delta_o2o,
                (1 + gamma_s + beta_s) * y,
                rtol=1e-12,
            )


@given(random_graphs())
@settings(**SETTINGS)
def test_articulation_matches_networkx(g):
    """(d) BCC decomposition agrees with networkx."""
    und = to_undirected(g)
    result = biconnected_components(und)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(und.iter_edges())
    assert result.articulation_points().tolist() == sorted(
        nx.articulation_points(nxg)
    )
    ours = sorted(
        sorted(map(tuple, np.sort(e, axis=1).tolist()))
        for e in result.component_edges
    )
    theirs = sorted(
        sorted(tuple(sorted(e)) for e in comp)
        for comp in nx.biconnected_component_edges(nxg)
    )
    assert ours == theirs


@given(random_graphs(), st.integers(min_value=0, max_value=27))
@settings(**SETTINGS)
def test_sigma_and_dist_match_networkx(g, source_pick):
    """(e) σ/dist agree with networkx shortest-path counting."""
    if g.n == 0:
        return
    s = source_pick % g.n
    nxg = nx.DiGraph() if g.directed else nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.iter_edges())
    res = bfs_sigma(g, s)
    lengths = nx.single_source_shortest_path_length(nxg, s)
    for v in range(g.n):
        assert res.dist[v] == lengths.get(v, -1)
    for v, d in lengths.items():
        if v != s and d > 0:
            expected = len(list(nx.all_shortest_paths(nxg, s, v)))
            assert res.sigma[v] == expected


@given(random_graphs())
@settings(**SETTINGS)
def test_hybrid_bfs_equals_plain(g):
    if g.n == 0:
        return
    a = bfs_sigma(g, 0)
    b = bfs_sigma_hybrid(g, 0, alpha=1.0)
    np.testing.assert_array_equal(a.dist, b.dist)
    np.testing.assert_allclose(a.sigma, b.sigma)


@given(random_graphs())
@settings(**SETTINGS)
def test_accumulation_modes_agree(g):
    if g.n == 0:
        return
    ref = per_source_delta(g, 0, mode="arcs")
    for mode in ("succs", "edge"):
        np.testing.assert_allclose(
            per_source_delta(g, 0, mode=mode), ref, rtol=1e-9, atol=1e-12
        )


@given(random_graphs())
@settings(**SETTINGS)
def test_bc_nonnegative_and_zero_on_leaves(g):
    scores = brandes_bc(g)
    assert (scores >= -1e-9).all()
    if not g.directed:
        leaves = np.flatnonzero(g.out_degrees() == 1)
        # a degree-1 vertex lies on no shortest path interior
        assert np.allclose(scores[leaves], 0.0)


@given(random_graphs(directed=False))
@settings(**SETTINGS)
def test_bc_total_mass_bound(g):
    """Σ_v BC(v) = Σ_{s≠t} (hops(s,t) − 1) over connected ordered
    pairs — interior vertices counted per pair."""
    scores = brandes_bc(g)
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.iter_edges())
    expected = 0
    for s in range(g.n):
        lengths = nx.single_source_shortest_path_length(nxg, s)
        expected += sum(d - 1 for t, d in lengths.items() if t != s and d >= 1)
    assert np.isclose(scores.sum(), expected)
