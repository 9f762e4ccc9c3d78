"""Integration tests: APGRE equals Brandes, always.

This is the central invariant of the reproduction (DESIGN.md §3). The
tests sweep graph families, configuration toggles and execution modes;
the property-based sweep lives in test_properties.py.
"""

import dataclasses

import numpy as np
import networkx as nx
import pytest

from repro.baselines.brandes import brandes_bc, brandes_python_bc
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError
from repro.generators.structured import paper_example_graph
from repro.generators.suite import analogue_graph, suite_names
from repro.graph.build import from_edges, from_networkx

from tests.conftest import nx_betweenness


def assert_matches_brandes(g, **kwargs):
    ref = brandes_bc(g)
    ours = apgre_bc(g, **kwargs)
    np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-8)


class TestExactness:
    def test_zoo(self, zoo_entry):
        name, g, nxg = zoo_entry
        ref = nx_betweenness(nxg)
        ours = apgre_bc(g)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-8, err_msg=name)

    def test_zoo_per_source_reference(self, zoo_entry):
        name, g, nxg = zoo_entry
        ref = nx_betweenness(nxg)
        ours = apgre_bc(g, batch_size=None)
        np.testing.assert_allclose(ours, ref, rtol=1e-9, atol=1e-8, err_msg=name)

    def test_matches_exact_fraction_brandes(self):
        nxg = nx.gnm_random_graph(25, 45, seed=11)
        g = from_networkx(nxg, n=25)
        exact = brandes_python_bc(g, exact=True)
        np.testing.assert_allclose(apgre_bc(g), exact, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("threshold", [0, 1, 2, 4, 8, 32, 10_000])
    def test_threshold_independence(self, threshold):
        nxg = nx.gnm_random_graph(40, 55, seed=2)
        g = from_networkx(nxg, n=40)
        assert_matches_brandes(g, threshold=threshold)

    @pytest.mark.parametrize("seed", range(5))
    def test_directed_random(self, seed):
        nxg = nx.gnm_random_graph(35, 60, seed=seed, directed=True)
        g = from_networkx(nxg, n=35)
        assert_matches_brandes(g)

    def test_suite_analogues_small(self):
        for name in suite_names():
            g = analogue_graph(name, scale=0.25)
            assert_matches_brandes(g)

    def test_paper_example(self):
        assert_matches_brandes(paper_example_graph())

    def test_trees(self):
        for seed in range(3):
            nxg = nx.random_labeled_tree(30, seed=seed)
            assert_matches_brandes(from_networkx(nxg, n=30))

    def test_disconnected_with_isolates(self):
        nxg = nx.disjoint_union(
            nx.gnm_random_graph(15, 22, seed=1),
            nx.gnm_random_graph(12, 16, seed=2),
        )
        nxg.add_nodes_from([27, 28])
        assert_matches_brandes(from_networkx(nxg, n=29))

    def test_empty_and_tiny(self):
        assert apgre_bc(from_edges([], n=0)).size == 0
        assert apgre_bc(from_edges([], n=3)).tolist() == [0, 0, 0]
        assert apgre_bc(from_edges([(0, 1)])).tolist() == [0, 0]

    def test_undirected_pendant_chains(self):
        # caterpillar + extra chain: exercises the v==s "-1" correction
        edges = [(i, i + 1) for i in range(5)]
        edges += [(2, 6), (2, 7), (3, 8)]
        assert_matches_brandes(from_edges(edges))

    def test_directed_pendant_into_articulation(self):
        # pendant source aimed at a boundary articulation point:
        # exercises the alpha(s) correction in the v==s merge
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (5, 2)]
        assert_matches_brandes(from_edges(edges, directed=True), threshold=0)


class TestConfigToggles:
    def test_no_pendant_elimination(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        assert_matches_brandes(g, eliminate_pendants=False)

    def test_alpha_beta_methods_agree(self, und_random):
        a = apgre_bc(und_random, alpha_beta_method="bfs")
        b = apgre_bc(und_random, alpha_beta_method="tree")
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_invalid_parallel_mode(self):
        with pytest.raises(AlgorithmError, match="backend"):
            APGREConfig(backend="gpu")

    def test_removed_parallel_spellings_rejected(self):
        # backend= is the only engine spelling, and the shard and
        # compress layers are gone: each removed field is an unknown
        # keyword
        for legacy in (
            {"parallel": "processes"},
            {"parallel_batched": True},
            {"shard": True},
            {"shard_max_size": 64},
            {"compress": True},
        ):
            with pytest.raises(TypeError):
                APGREConfig(**legacy)
            with pytest.raises(TypeError):
                dataclasses.replace(APGREConfig(), **legacy)
            with pytest.raises(TypeError):
                apgre_bc(from_edges([(0, 1)]), **legacy)

    def test_invalid_workers(self):
        with pytest.raises(AlgorithmError, match="workers"):
            APGREConfig(workers=0)
        for bad in (2.0, True):
            with pytest.raises(AlgorithmError, match="workers"):
                APGREConfig(workers=bad, backend="serial")

    def test_invalid_ab_method(self):
        with pytest.raises(AlgorithmError, match="alpha_beta_method"):
            APGREConfig(alpha_beta_method="magic")

    def test_invalid_threshold(self):
        with pytest.raises(AlgorithmError, match="threshold"):
            APGREConfig(threshold=-3)
        with pytest.raises(AlgorithmError, match="threshold"):
            APGREConfig(threshold=True)

    def test_invalid_max_retries(self):
        for bad in (-1, 1.5):
            with pytest.raises(AlgorithmError, match="max_retries"):
                APGREConfig(max_retries=bad)

    def test_invalid_flags(self):
        # a truthy string or a number must not read as True
        for name in ("eliminate_pendants", "fallback", "steal", "resume"):
            for bad in ("false", "no", 1, 0, None):
                with pytest.raises(AlgorithmError, match=name):
                    APGREConfig(**{name: bad})

    def test_invalid_timeout(self):
        for bad in ("5", True, False, 0, -1.5, [5]):
            with pytest.raises(AlgorithmError, match="timeout"):
                APGREConfig(timeout=bad)
        for good in (None, 5, 0.25):
            assert APGREConfig(timeout=good).timeout == good


class TestParallelModes:
    @pytest.mark.parametrize("workers", [2, 3])
    def test_processes(self, und_random, workers):
        assert_matches_brandes(
            und_random, backend="processes", workers=workers
        )

    def test_threads(self, dir_random):
        assert_matches_brandes(dir_random, backend="threads", workers=3)

    def test_processes_directed(self, dir_random):
        assert_matches_brandes(
            dir_random, backend="processes", workers=2
        )

    def test_workers_without_backend_runs_an_engine(self, und_random):
        # workers > 1 alone resolves the host-default engine instead of
        # silently running serial
        result = apgre_bc_detailed(und_random, APGREConfig(workers=2))
        assert result.health is not None
        assert result.health.tasks > 0
        np.testing.assert_allclose(
            result.scores, brandes_bc(und_random), rtol=1e-9, atol=1e-9
        )


class TestDetailedResult:
    def test_stats_populated(self, und_random):
        result = apgre_bc_detailed(und_random)
        s = result.stats
        assert s.num_subgraphs >= 1
        assert s.num_sources > 0
        assert s.edges_traversed > 0
        assert s.alpha_beta_method in ("bfs", "tree")
        assert s.timings.total > 0
        fr = s.timings.fractions()
        assert abs(sum(fr.values()) - 1.0) < 1e-9

    def test_sources_plus_removed_cover_graph(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        result = apgre_bc_detailed(g)
        s = result.stats
        # every vertex is either a BFS source in its sub-graph or a
        # removed pendant; boundary arts are sources in each sub-graph
        assert s.num_sources + s.num_removed_pendants >= g.n

    def test_top_k(self, und_random):
        result = apgre_bc_detailed(und_random)
        top = result.top_k(5)
        assert top.size == 5
        scores = result.scores[top]
        assert (np.diff(scores) <= 1e-12).all()  # descending
        assert scores[0] == result.scores.max()

    def test_partition_reuse(self, und_random):
        partition = graph_partition(und_random)
        compute_alpha_beta(und_random, partition)
        result = apgre_bc_detailed(und_random, partition=partition)
        np.testing.assert_allclose(
            result.scores, brandes_bc(und_random), rtol=1e-9, atol=1e-8
        )
        # partition phase timings stay zero when reusing
        assert result.stats.timings.partition == 0.0

    def test_eliminate_false_source_count(self, und_random):
        full = apgre_bc_detailed(
            und_random, APGREConfig(eliminate_pendants=False)
        )
        assert full.stats.num_sources >= und_random.n


class TestBundles:
    """Small non-top sub-graphs run as block-diagonal bundle sweeps."""

    def test_stats_pin_the_bundles(self):
        g = analogue_graph("WikiTalk", scale=0.5)
        s = apgre_bc_detailed(g).stats
        assert s.num_subgraphs == 50
        assert (s.subgraphs_bundled, s.bundles) == (49, 2)
        assert s.timings.top_bc > 0

    def test_top_is_never_bundled(self):
        # seven triangles on one hub: every sub-graph, the top included,
        # would fit one bundle
        g = from_edges(
            [e for t in range(7) for e in
             [(0, 2 * t + 1), (0, 2 * t + 2), (2 * t + 1, 2 * t + 2)]]
        )
        res = apgre_bc_detailed(g, APGREConfig(threshold=2))
        s = res.stats
        assert s.num_subgraphs == 7
        assert (s.subgraphs_bundled, s.bundles) == (6, 1)
        assert s.timings.top_bc > 0
        np.testing.assert_allclose(res.scores, brandes_bc(g), atol=1e-9)

    @pytest.mark.parametrize(
        "options", [{"batch_size": None}], ids=["per-source"]
    )
    def test_runs_alone(self, options):
        g = analogue_graph("WikiTalk", scale=0.5)
        s = apgre_bc_detailed(g, APGREConfig(**options)).stats
        assert (s.subgraphs_bundled, s.bundles) == (0, 0)

    def test_integer_batch_caps_the_bundle(self):
        g = analogue_graph("WikiTalk", scale=0.5)
        wide = apgre_bc_detailed(g, APGREConfig(batch_size=128)).stats
        thin = apgre_bc_detailed(g, APGREConfig(batch_size=16)).stats
        assert wide.bundles == 2
        assert thin.bundles > wide.bundles
        assert thin.edges_traversed == wide.edges_traversed


class TestBCSubgraphUnits:
    def test_root_subsets_compose(self, und_random):
        partition = graph_partition(und_random)
        compute_alpha_beta(und_random, partition)
        sg = partition.top
        whole = bc_subgraph(sg)
        half = sg.roots.size // 2
        part1 = bc_subgraph(sg, roots=sg.roots[:half])
        part2 = bc_subgraph(sg, roots=sg.roots[half:])
        np.testing.assert_allclose(part1 + part2, whole, rtol=1e-12)

    def test_empty_subgraph(self):
        g = from_edges([], n=4)
        partition = graph_partition(g)
        for sg in partition.subgraphs:
            assert bc_subgraph(sg).tolist() == [0.0] * sg.num_vertices

    def test_compress_is_rejected(self):
        # the structural compression layer is gone; only the default
        # compress=False is still accepted
        g = from_edges([(0, 1), (1, 2), (2, 0)])
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        with pytest.raises(AlgorithmError, match="compress"):
            bc_subgraph(partition.top, compress=True)
