"""Tests for k-core decomposition, the 2-core peel and path-sampling
approximate BC."""

import numpy as np
import networkx as nx
import pytest

from repro.baselines import brandes_bc
from repro.baselines.pathsampling import (
    path_sampling_bc,
    vertex_diameter_bound,
)
from repro.errors import AlgorithmError, GraphValidationError
from repro.generators import caterpillar_graph, complete_graph, cycle_graph
from repro.graph.build import from_edges, from_networkx
from repro.graph.kcore import TwoCoreResult, core_numbers, k_core, two_core


class TestCoreNumbers:
    def test_matches_networkx(self, zoo_entry):
        _name, g, nxg = zoo_entry
        und = nxg.to_undirected() if nxg.is_directed() else nxg
        expected = nx.core_number(und) if und.number_of_nodes() else {}
        ours = core_numbers(g)
        for v in range(g.n):
            assert ours[v] == expected.get(v, 0), v

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_networkx_random(self, seed):
        nxg = nx.gnm_random_graph(50, 120, seed=seed)
        g = from_networkx(nxg, n=50)
        expected = nx.core_number(nxg)
        ours = core_numbers(g)
        assert all(ours[v] == expected[v] for v in range(50))

    def test_complete_graph(self):
        assert (core_numbers(complete_graph(6)) == 5).all()

    def test_cycle(self):
        assert (core_numbers(cycle_graph(7)) == 2).all()

    def test_caterpillar_legs_core1(self):
        g = caterpillar_graph(4, 2)
        core = core_numbers(g)
        assert (core[4:] == 1).all()  # legs
        assert (core[:4] == 1).all()  # the spine of a tree is 1-core

    def test_isolated_zero(self):
        g = from_edges([(0, 1)], n=3)
        assert core_numbers(g)[2] == 0

    def test_k_core_selection(self):
        # triangle + pendant
        g = from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
        assert k_core(g, 2).tolist() == [0, 1, 2]
        assert k_core(g, 0).size == 4
        with pytest.raises(GraphValidationError, match=">= 0"):
            k_core(g, -1)

    def test_empty(self):
        assert core_numbers(from_edges([], n=0)).size == 0


class TestTwoCore:
    def test_path_peels_to_one_survivor(self):
        # an acyclic component folds down to a single degree-0 survivor
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], n=5)
        res = two_core(g)
        assert isinstance(res, TwoCoreResult)
        assert res.core_mask.sum() == 1
        assert res.peel_order.size == 4
        survivor = int(np.flatnonzero(res.core_mask)[0])
        assert res.peel_parent[survivor] == -1

    def test_cycle_with_tail(self):
        # triangle 0-1-2 with tail 2-3-4
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], n=5)
        res = two_core(g)
        assert res.core_mask.tolist() == [True, True, True, False, False]
        # 4 peels first (into 3), then 3 (into 2)
        assert res.peel_order.tolist() == [4, 3]
        assert res.peel_parent[4] == 3
        assert res.peel_parent[3] == 2

    def test_parent_order_children_before_parents(self):
        g = from_networkx(nx.balanced_tree(2, 3))
        res = two_core(g)
        seen = set()
        for v in res.peel_order.tolist():
            p = int(res.peel_parent[v])
            assert p not in seen  # parent peels after its children
            seen.add(v)

    def test_k2_one_survivor(self):
        g = from_edges([(0, 1)], n=2)
        res = two_core(g)
        assert res.peel_order.size == 1
        # exactly one endpoint survives as the other's parent
        v = int(res.peel_order[0])
        assert res.peel_parent[v] == 1 - v
        assert res.core_mask.sum() == 1

    def test_matches_networkx_two_core(self):
        nxg = nx.gnm_random_graph(40, 48, seed=7)
        g = from_networkx(nxg)
        res = two_core(g)
        core = set(nx.k_core(nxg, 2).nodes)
        survivors = set(np.flatnonzero(res.core_mask).tolist())
        # every true 2-core vertex survives…
        assert core <= survivors
        # …and each extra survivor is the lone degree-0 remnant of an
        # acyclic component (nx drops those, the peel keeps one anchor)
        for comp in nx.connected_components(nxg):
            sub = nxg.subgraph(comp)
            extra = (comp & survivors) - core
            if sub.number_of_edges() >= sub.number_of_nodes():
                assert not extra  # has a cycle: exact agreement
            else:
                assert len(extra) == 1


class TestVertexDiameterBound:
    def test_at_least_true_diameter(self):
        # path: vertex diameter = n; probe-doubling must not undershoot
        g = from_edges([(i, i + 1) for i in range(20)])
        assert vertex_diameter_bound(g, probes=6, seed=1) >= 11

    def test_minimum_two(self):
        assert vertex_diameter_bound(from_edges([], n=1), seed=1) >= 2
        assert vertex_diameter_bound(from_edges([], n=0)) == 2


class TestPathSampling:
    def test_epsilon_bound_holds(self):
        nxg = nx.gnm_random_graph(50, 120, seed=4)
        g = from_networkx(nxg, n=50)
        exact = brandes_bc(g)
        res = path_sampling_bc(g, epsilon=0.05, delta=0.1, seed=3)
        norm = g.n * (g.n - 1)
        err = np.abs(res.scores - exact).max() / norm
        # the theory gives epsilon w.p. 1-delta; a fixed seed makes
        # this deterministic, and 2*epsilon leaves slack
        assert err < 2 * res.epsilon
        assert res.samples > 100

    def test_correlates_with_exact(self):
        nxg = nx.gnm_random_graph(45, 110, seed=7, directed=True)
        g = from_networkx(nxg, n=45)
        exact = brandes_bc(g)
        res = path_sampling_bc(g, epsilon=0.05, seed=5)
        assert np.corrcoef(res.scores, exact)[0, 1] > 0.9

    def test_max_samples_cap(self):
        g = cycle_graph(10)
        res = path_sampling_bc(g, epsilon=0.01, max_samples=50, seed=1)
        assert res.samples == 50

    def test_deterministic_with_seed(self):
        g = cycle_graph(12)
        a = path_sampling_bc(g, max_samples=100, seed=9)
        b = path_sampling_bc(g, max_samples=100, seed=9)
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_tiny_graphs(self):
        assert path_sampling_bc(from_edges([], n=0), seed=1).samples == 0
        assert path_sampling_bc(from_edges([(0, 1)]), seed=1).samples == 0

    def test_validation(self):
        g = cycle_graph(5)
        with pytest.raises(AlgorithmError, match="epsilon"):
            path_sampling_bc(g, epsilon=0.0)
        with pytest.raises(AlgorithmError, match="delta"):
            path_sampling_bc(g, delta=1.5)

    def test_endpoints_never_credited(self):
        # on a star, every sampled path is leaf-hub-leaf or leaf-hub:
        # only the hub may accumulate score
        from repro.generators import star_graph

        g = star_graph(6)
        res = path_sampling_bc(g, max_samples=200, seed=2)
        assert (res.scores[1:] == 0).all()
