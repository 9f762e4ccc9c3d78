"""Unit tests for whole-graph operations."""

import numpy as np
import networkx as nx
import pytest

from repro.graph.build import from_edges, from_networkx
from repro.graph.ops import (
    component_sizes,
    connected_components,
    degrees,
    edge_subgraph,
    induced_subgraph,
    largest_component,
    reachable_from,
    relabel_sorted,
    reverse_graph,
    to_undirected,
)
from repro.graph.validate import validate_graph


class TestDegrees:
    def test_undirected(self):
        g = from_edges([(0, 1), (1, 2)])
        assert degrees(g).tolist() == [1, 2, 1]

    def test_directed_in_plus_out(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
        assert degrees(g).tolist() == [2, 2, 2]


class TestReverse:
    def test_reverse_directed(self):
        g = from_edges([(0, 1), (1, 2)], directed=True)
        r = reverse_graph(g)
        assert r.has_edge(1, 0) and r.has_edge(2, 1)
        assert not r.has_edge(0, 1)
        validate_graph(r)

    def test_reverse_twice_is_identity(self):
        g = from_edges([(0, 1), (2, 1)], directed=True)
        assert reverse_graph(reverse_graph(g)) == g

    def test_reverse_undirected_is_identity_object(self):
        g = from_edges([(0, 1)])
        assert reverse_graph(g) is g


class TestToUndirected:
    def test_directed_shadow(self):
        g = from_edges([(0, 1), (1, 0), (1, 2)], directed=True)
        u = to_undirected(g)
        assert not u.directed
        assert u.num_undirected_edges == 2  # (0,1) collapses
        validate_graph(u)

    def test_undirected_identity(self):
        g = from_edges([(0, 1)])
        assert to_undirected(g) is g

    def test_undirected_identity_not_memoized(self):
        from repro.graph.ops import _UNDIRECTED_CACHE

        g = from_edges([(0, 1), (1, 2)], n=3)
        assert to_undirected(g) is g
        assert id(g) not in _UNDIRECTED_CACHE

    def test_directed_shadow_memoized(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], directed=True, n=4)
        first = to_undirected(g)
        assert first is not g
        assert first is to_undirected(g)
        assert not first.directed

    def test_cache_evicts_on_collection(self):
        import gc

        from repro.graph.ops import _UNDIRECTED_CACHE

        g = from_edges([(0, 1), (1, 2)], directed=True, n=3)
        to_undirected(g)
        key = id(g)
        assert key in _UNDIRECTED_CACHE
        del g
        gc.collect()
        assert key not in _UNDIRECTED_CACHE


class TestComponents:
    def test_matches_networkx(self, zoo_entry):
        _name, g, nxg = zoo_entry
        labels, k = connected_components(g)
        und = nxg.to_undirected() if nxg.is_directed() else nxg
        expected = list(nx.connected_components(und))
        assert k == len(expected)
        # same partition of vertices
        ours = {}
        for v in range(g.n):
            ours.setdefault(labels[v], set()).add(v)
        assert set(map(frozenset, ours.values())) == set(
            map(frozenset, expected)
        )

    def test_component_sizes_sorted(self):
        g = from_edges([(0, 1), (2, 3), (3, 4)], n=6)
        sizes = component_sizes(g)
        assert sizes.tolist() == [3, 2, 1]

    def test_largest_component(self):
        g = from_edges([(0, 1), (2, 3), (3, 4)], n=6)
        sub, verts = largest_component(g)
        assert sub.n == 3
        assert sorted(verts.tolist()) == [2, 3, 4]
        validate_graph(sub)


class TestReachability:
    def test_reachable_directed(self):
        g = from_edges([(0, 1), (1, 2), (3, 0)], directed=True)
        mask = reachable_from(g, 0)
        assert mask.tolist() == [True, True, True, False]

    def test_reachable_blocked(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], directed=True)
        blocked = np.zeros(4, dtype=bool)
        blocked[1] = True
        mask = reachable_from(g, 0, blocked)
        assert mask.tolist() == [True, False, False, False]

    def test_blocked_source_still_expands(self):
        g = from_edges([(0, 1)], directed=True)
        blocked = np.asarray([True, False])
        mask = reachable_from(g, 0, blocked)
        assert mask.tolist() == [True, True]

    def test_matches_networkx_descendants(self):
        nxg = nx.gnm_random_graph(25, 50, seed=3, directed=True)
        g = from_networkx(nxg, n=25)
        for s in (0, 5, 12):
            mask = reachable_from(g, s)
            expected = nx.descendants(nxg, s) | {s}
            assert set(np.flatnonzero(mask).tolist()) == expected


class TestSubgraphs:
    def test_induced_undirected(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        sub = induced_subgraph(g, np.asarray([0, 1, 2]))
        assert sub.n == 3
        assert sub.num_undirected_edges == 2  # 0-1, 1-2
        validate_graph(sub)

    def test_induced_directed(self):
        g = from_edges([(0, 1), (1, 2), (2, 0)], directed=True)
        sub = induced_subgraph(g, np.asarray([0, 1]))
        assert sub.has_edge(0, 1) and not sub.has_edge(1, 0)

    def test_induced_relabels_in_input_order(self):
        g = from_edges([(0, 1), (1, 2)])
        sub = induced_subgraph(g, np.asarray([2, 1]))
        # local 0 = global 2, local 1 = global 1; edge 2-1 => 0-1
        assert sub.has_edge(0, 1)

    def test_edge_subgraph_excludes_unlisted_edges(self):
        # triangle, but only take two of its edges
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        sub = edge_subgraph(
            g,
            np.asarray([0, 1, 2]),
            np.asarray([0, 1]),
            np.asarray([1, 2]),
        )
        assert sub.num_undirected_edges == 2
        assert not sub.has_edge(0, 2)

    def test_relabel_sorted(self):
        verts = np.asarray([30, 10, 20])
        sorted_v, inverse = relabel_sorted(verts)
        assert sorted_v.tolist() == [10, 20, 30]
        assert inverse.tolist() == [2, 0, 1]
