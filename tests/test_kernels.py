"""Tests for the compute-kernel registry and the push/pull kernel.

Covers the PR's contract surface: every registered kernel matches
Brandes to 1e-9 across the serial/threads/processes engines with exact
(and deterministic) examined-edge tallies, the split tally identity
``edges_traversed + edges_pulled == examined`` holds on every
composition (plain, compressed, cached-replay, journaled-resume),
``auto`` selection never returns an unavailable kernel and honours
the structural thresholds, the pull kernel's RAM model shrinks
``auto`` batch sizes, injected worker kills mid-pull never commit a
partial delta, and an unavailable kernel degrades to a clean miss
instead of an error.
"""

import dataclasses
import importlib.util
import sys

import numpy as np
import pytest

import networkx as nx

from repro.baselines.brandes import brandes_bc, brandes_python_bc
from repro.baselines.common import WorkCounter, run_per_source
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.batched_subgraph import sweep_weights
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError
from repro.generators.suite import analogue_graph
from repro.graph import batched
from repro.graph.batched import (
    auto_batch_size,
    bfs_sigma_batched,
    spmm_contributions,
)
from repro.graph.build import from_networkx
from repro.graph.kernels import (
    AUTO_MIN_VERTICES,
    AUTO_PULL_MIN_BATCH,
    KERNEL_ENV_VAR,
    SPMM_DENSE_MAX_DIAMETER,
    _FEATURE_CACHE,
    _REGISTRY,
    KernelFeatures,
    default_kernel_name,
    get_kernel,
    kernel_features,
    kernel_names,
    kernel_report,
    register_kernel,
    resolve_kernel_name,
    select_kernel,
    spmm_layout,
)
from repro.graph.kernels.pull import (
    PULL_ALPHA,
    bfs_sigma_batched_pull,
)
from repro.parallel.faults import FaultSpec, injected_faults
from repro.parallel.supervisor import RunHealth
from repro.parallel.threaded import threaded_bc_scores

WORKERS = 2

#: the 12 Table-1 suite analogues
SUITE = [
    "Email-Enron", "Email-EuAll", "NotroDame", "Slashdot0811",
    "USA-roadBAY", "USA-roadNY", "WikiTalk", "com-youtube", "dblp-2010",
    "soc-DouBan", "web-BerkStan", "web-Google",
]

#: every kernel the host can actually run; "auto" rides along as the
#: selection path
AVAILABLE = [k for k in kernel_names() if get_kernel(k).available()]
BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture(scope="module")
def dense():
    """Dense small-diameter graph in the pull kernel's regime.

    avg degree ~10.7, two-sweep diameter ~3, fully reachable — the
    shape where ``auto`` selects ``pull`` and bottom-up levels fire.
    """
    return from_networkx(nx.gnm_random_graph(300, 1600, seed=3), n=300)


@pytest.fixture(scope="module")
def dense_oracle(dense):
    return brandes_bc(dense)


@pytest.fixture
def arcs_default(monkeypatch):
    """A host without scipy's extension: spmm unavailable, arcs the
    default."""
    monkeypatch.setitem(
        _REGISTRY, "spmm",
        dataclasses.replace(get_kernel("spmm"), probe=lambda: False),
    )
    assert default_kernel_name() == "arcs"


def suite_top(name, scale=1.0):
    """A suite analogue's top sub-graph, α/β filled."""
    g = analogue_graph(name, scale=scale, seed=1)
    partition = graph_partition(g)
    compute_alpha_beta(g, partition)
    return partition.top


def spmm_layouts(graph, sources, weights=None):
    """One batch through both spmm layouts, each run plain, with a
    counter and with ``row_edges``: per layout ``(scores, edges,
    row_edges)``.  Within a layout the three runs' scores are
    bit-identical."""
    out = []
    for dense in (False, True):
        ops = batched._spmm_operands_for(graph, sources.size, dense)
        counter = WorkCounter()
        row_edges = np.zeros(sources.size, dtype=np.int64)
        runs = [
            spmm_contributions(
                graph, sources, operands=ops, weights=weights, **tally
            )
            for tally in (
                {}, {"counter": counter}, {"row_edges": row_edges},
            )
        ]
        for scores in runs[1:]:
            assert np.array_equal(scores, runs[0])
        out.append((runs[0], counter.edges, row_edges))
    return out


def assert_layouts_agree(graph, sources, weights=None):
    """Dense form == sparse form: tallies to the arc, row by row, and
    scores within 1e-12 relative."""
    (sparse, edges, rows), (dense, dense_edges, dense_rows) = spmm_layouts(
        graph, sources, weights
    )
    assert dense_edges == edges
    assert np.array_equal(dense_rows, rows)
    scale = max(float(np.abs(sparse).max()), 1.0)
    np.testing.assert_allclose(
        dense, sparse, rtol=1e-12, atol=1e-12 * scale
    )


def spy_on_kernels(monkeypatch):
    """Record the name of every registry kernel a run calls."""
    calls = []
    for name in kernel_names():
        real = get_kernel(name)

        def spy(*args, _name=name, _real=real.contributions, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setitem(
            _REGISTRY, name, dataclasses.replace(real, contributions=spy)
        )
    return calls


def triple(graph, *, kernel, backend=None, workers=1, batch=8):
    """Scores plus the (edges, pulled, switches) split for one run."""
    counter = WorkCounter()
    scores = run_per_source(
        graph,
        mode="arcs",
        batch_size=batch,
        workers=workers,
        backend=backend,
        kernel=kernel,
        counter=counter,
    )
    return scores, (counter.edges, counter.pulled, counter.switches)


class TestKernelRegistry:
    def test_registered_names(self):
        assert kernel_names() == ("arcs", "spmm", "pull")
        for name in kernel_names():
            assert isinstance(get_kernel(name).available(), bool)
        assert get_kernel("arcs").available()
        assert get_kernel("pull").available()

    def test_unknown_kernel_raises(self):
        with pytest.raises(AlgorithmError, match="unknown compute kernel"):
            get_kernel("simd")
        with pytest.raises(AlgorithmError, match="unknown compute kernel"):
            resolve_kernel_name("simd")

    def test_default_matches_spmm_probe(self):
        expected = "spmm" if get_kernel("spmm").available() else "arcs"
        assert default_kernel_name() == expected
        assert select_kernel(None) == expected

    def test_env_override(self, monkeypatch, dense):
        monkeypatch.setenv(KERNEL_ENV_VAR, "arcs")
        assert resolve_kernel_name(None, graph=dense) == "arcs"
        monkeypatch.setenv(KERNEL_ENV_VAR, "nope")
        with pytest.raises(AlgorithmError):
            resolve_kernel_name(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "arcs")
        assert resolve_kernel_name("pull") == "pull"

    def test_unavailable_kernel_degrades_with_warning(self):
        ghost = dataclasses.replace(
            get_kernel("pull"), name="ghost", probe=lambda: False,
            unavailable_reason="probe says no",
        )
        register_kernel(ghost)
        try:
            with pytest.warns(RuntimeWarning, match="probe says no"):
                resolved = resolve_kernel_name("ghost")
            assert resolved == default_kernel_name()
        finally:
            del _REGISTRY["ghost"]

    def test_auto_never_selects_unavailable(self, dense, arcs_default):
        real = get_kernel("pull")
        assert select_kernel(dense) == "pull"  # the regime fixture fits
        register_kernel(dataclasses.replace(real, probe=lambda: False))
        try:
            assert select_kernel(dense) == default_kernel_name()
        finally:
            register_kernel(real)

    def test_kernel_report_shape(self):
        report = kernel_report()
        assert set(report) == set(kernel_names())
        assert sum(1 for row in report.values() if row["default"]) == 1
        for row in report.values():
            assert set(row) == {
                "available", "default", "description", "reason"
            }
            if row["available"]:
                assert row["reason"] is None
            else:
                assert row["reason"]


class TestAutoSelection:
    def test_dense_regime_selects_pull(self, dense, arcs_default):
        feats = kernel_features(dense)
        assert feats.avg_degree >= 10
        assert 0 < feats.est_diameter <= 8
        assert feats.reached == 1.0
        assert select_kernel(dense) == "pull"
        assert select_kernel(dense, batch=64) == "pull"

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    def test_pull_only_where_it_beats_the_default(self, monkeypatch):
        """Slashdot0811's top sits in pull's regime: pull beat arcs
        there (0.12 s vs 0.17 s) but lost to spmm's dense form (0.03
        s), so ``auto`` picks pull only on the arcs default."""
        top = suite_top("Slashdot0811").graph
        assert select_kernel(top) == "spmm"
        assert spmm_layout(top, top.n) == "dense"
        monkeypatch.setitem(
            _REGISTRY, "spmm",
            dataclasses.replace(get_kernel("spmm"), probe=lambda: False),
        )
        assert select_kernel(top) == "pull"

    def test_thin_batch_stays_on_default(self, dense, arcs_default):
        assert (
            select_kernel(dense, batch=AUTO_PULL_MIN_BATCH - 1)
            == default_kernel_name()
        )

    def test_small_or_sparse_graphs_stay_on_default(self, und_random):
        # 36 vertices: under the minimum, and sparse besides
        assert und_random.n < AUTO_MIN_VERTICES
        assert select_kernel(und_random) == default_kernel_name()

    def test_deep_graph_stays_on_default(self):
        graph = from_networkx(nx.path_graph(400), n=400)
        assert kernel_features(graph).est_diameter > 8
        assert select_kernel(graph) == default_kernel_name()

    def test_low_reachability_stays_on_default(self, dense, arcs_default):
        # seed the feature cache with a partially-reachable profile:
        # the guard, not the measurement, is under test here
        feats = kernel_features(dense)
        try:
            _FEATURE_CACHE[dense] = dataclasses.replace(
                feats, reached=0.3
            )
            assert select_kernel(dense) == default_kernel_name()
        finally:
            _FEATURE_CACHE[dense] = feats

    def test_features_cached_per_graph(self, dense):
        assert kernel_features(dense) is kernel_features(dense)

    def test_empty_graph_features(self):
        graph = from_networkx(nx.empty_graph(0), n=0)
        assert kernel_features(graph) == KernelFeatures(0, 0, 0.0, 0, 0.0)

    def test_probe_restarts_away_from_a_sink(self):
        """Vertex 0 is a sink fed from a 199-arc directed cycle: the
        first sweep restarts from the busiest vertex, so the probe sees
        the cycle's depth, and the graph keeps the sparse form."""
        nxg = nx.DiGraph()
        nxg.add_edges_from((v, v % 199 + 1) for v in range(1, 200))
        nxg.add_edge(5, 0)
        graph = from_networkx(nxg, n=200)
        feats = kernel_features(graph)
        assert feats.reached == 1.0
        assert feats.est_diameter >= 198
        assert spmm_layout(graph, graph.n) == "sparse"

    def test_layout_pins(self):
        """Shallow Email-Enron@1's top takes the dense form, deep
        USA-roadBAY@1's keeps the sparse one; roots that fit one
        base-width batch never run the probe."""
        enron = suite_top("Email-Enron").graph
        assert spmm_layout(enron, 40) == "sparse"
        assert enron not in _FEATURE_CACHE
        assert spmm_layout(enron, 41) == "dense"
        road = suite_top("USA-roadBAY").graph
        assert spmm_layout(road, road.n) == "sparse"
        assert kernel_features(road).est_diameter > SPMM_DENSE_MAX_DIAMETER

    def test_peak_level_arcs_exact(self, und_random, dir_random):
        """The widest level's out-arcs over both probe sweeps, against
        networkx's BFS layers."""
        for graph in (und_random, dir_random):
            src, dst = graph.arcs()
            nxg = nx.DiGraph()
            nxg.add_nodes_from(range(graph.n))
            nxg.add_edges_from(zip(src.tolist(), dst.tolist()))
            first = nx.single_source_shortest_path_length(nxg, 0)
            far = max(sorted(first), key=first.get)
            peak = max(
                sum(nxg.out_degree(v) for v in layer)
                for root in (0, far)
                for layer in nx.bfs_layers(nxg, root)
            )
            assert peak > 0
            assert kernel_features(graph).peak_level_arcs == peak


class TestKernelEquivalence:
    """Every kernel × engine matches Brandes with exact tallies."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", AVAILABLE + ["auto"])
    def test_matches_brandes_everywhere(
        self, dense, dense_oracle, kernel, backend
    ):
        scores, split = triple(
            dense, kernel=kernel, backend=backend, workers=WORKERS
        )
        np.testing.assert_allclose(
            scores, dense_oracle, rtol=1e-9, atol=1e-9
        )
        # the split is deterministic: engines must commit exactly the
        # serial run's tallies, per direction
        _, serial_split = triple(dense, kernel=kernel)
        assert split == serial_split

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_tally_identity(self, dense, kernel):
        counter = WorkCounter()
        run_per_source(
            dense, mode="arcs", batch_size=8, kernel=kernel,
            counter=counter,
        )
        assert counter.examined == counter.edges + counter.pulled
        if kernel == "pull":
            assert counter.pulled > 0
            assert counter.switches > 0
        else:
            assert counter.pulled == 0
            assert counter.switches == 0

    @pytest.mark.parametrize(
        "kernel", [k for k in AVAILABLE if get_kernel(k).row_tallies]
    )
    def test_row_edges_split_the_tally(self, dense, dir_random, kernel):
        """``row_edges`` sums to the batch tally, and row ``i`` holds
        what a one-root run of ``sources[i]`` examines."""
        kern = get_kernel(kernel)
        for graph in (dense, dir_random):
            sources = np.arange(0, graph.n, 7)
            context = (
                kern.prepare(graph, sources.size) if kern.prepare else None
            )
            counter = WorkCounter()
            row_edges = np.zeros(sources.size, dtype=np.int64)
            kern.contributions(
                graph, sources, counter=counter, context=context,
                row_edges=row_edges,
            )
            assert row_edges.sum() == counter.examined > 0
            for i in range(sources.size):
                one = WorkCounter()
                kern.contributions(
                    graph, sources[i : i + 1], counter=one, context=context
                )
                assert row_edges[i] == one.examined, (kernel, i)

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    def test_spmm_counted_scores_bit_identical(self, dense, dir_random):
        """The counted product (complex, imaginary part reset in place
        each level) leaves every score bit-identical to the plain one,
        weighted sweeps included."""
        kern = get_kernel("spmm")
        for graph in (dense, dir_random):
            partition = graph_partition(graph)
            compute_alpha_beta(graph, partition)
            top = partition.top
            sources = np.arange(0, top.num_vertices, 3)
            context = kern.prepare(top.graph, sources.size)
            for weights in (None, sweep_weights(top, top.gamma)):
                runs = [
                    kern.contributions(
                        top.graph, sources, context=context,
                        weights=weights, **tally,
                    )
                    for tally in (
                        {},
                        {"counter": WorkCounter()},
                        {"row_edges": np.zeros(sources.size, np.int64)},
                    )
                ]
                for scores in runs[1:]:
                    assert np.array_equal(scores, runs[0])

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    def test_dense_form_matches_sparse(self, zoo_entry):
        """Both spmm layouts on every zoo graph: the plain sweep over
        all vertices and the weighted sweep of the top sub-graph."""
        _name, graph, _nxg = zoo_entry
        if graph.num_arcs == 0:
            return
        assert_layouts_agree(graph, np.arange(graph.n))
        partition = graph_partition(graph)
        compute_alpha_beta(graph, partition)
        top = partition.top
        if top.roots.size:
            assert_layouts_agree(
                top.graph, top.roots, sweep_weights(top, top.gamma)
            )

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    @pytest.mark.parametrize("name", SUITE)
    def test_dense_form_matches_sparse_on_suite_tops(self, name):
        top = suite_top(name)
        sources = top.roots[:48].astype(np.int64)
        assert_layouts_agree(top.graph, sources)
        assert_layouts_agree(
            top.graph, sources, sweep_weights(top, top.gamma)
        )

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    def test_dense_form_widens_deep_levels(self):
        """Levels past the one-byte ``dist`` (300-vertex paths) widen
        it instead of wrapping."""
        for directed in (False, True):
            nxg = nx.path_graph(
                300, create_using=nx.DiGraph if directed else nx.Graph
            )
            graph = from_networkx(nxg, n=300)
            assert_layouts_agree(graph, np.array([0, 1, 150, 299]))
            np.testing.assert_allclose(
                spmm_contributions(
                    graph, np.arange(300),
                    operands=batched._spmm_operands_for(graph, 300, True),
                ),
                brandes_bc(graph), rtol=1e-12,
            )

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    @pytest.mark.parametrize(
        "dense_form", [False, True], ids=["sparse", "dense"]
    )
    def test_wide_operands_match_narrow(
        self, und_random, dir_random, dense_form
    ):
        """int64 operands, which ``_spmm_operands_for`` builds once
        ``batch·m`` passes 2³¹−1, give the int32 operands' scores bit
        for bit and the same tallies: a plain counted sweep of every
        vertex and the top sub-graph's weighted sweep with
        ``row_edges``."""
        for graph in (und_random, dir_random):
            partition = graph_partition(graph)
            compute_alpha_beta(graph, partition)
            top = partition.top
            assert top.roots.size
            cases = [
                (graph, np.arange(graph.n), None),
                (top.graph, top.roots.astype(np.int64),
                 sweep_weights(top, top.gamma)),
            ]
            for g, sources, weights in cases:
                runs = []
                for idx in (np.int32, np.int64):
                    ops = batched._SpmmOperands(g, idx, dense_form)
                    assert ops.fwd[0].dtype == ops.bwd[1].dtype == idx
                    counter = WorkCounter()
                    row_edges = np.zeros(sources.size, dtype=np.int64)
                    scores = spmm_contributions(
                        g, sources, operands=ops, weights=weights,
                        counter=counter,
                        row_edges=None if weights is None else row_edges,
                    )
                    runs.append((scores, counter.edges, row_edges))
                (narrow, edges, rows), (wide, wide_edges, wide_rows) = runs
                assert np.array_equal(wide, narrow)
                assert wide_edges == edges > 0
                assert np.array_equal(wide_rows, rows)

    @pytest.mark.skipif("spmm" not in AVAILABLE, reason="needs scipy")
    def test_default_runs_bit_identical(self, monkeypatch):
        """Two fresh default runs (new graph objects, so the probe runs
        again) give bit-identical scores, the dense form included."""
        calls = []
        real = batched._spmm_dense

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched, "_spmm_dense", spy)
        runs = [
            apgre_bc(analogue_graph("Email-Enron", scale=1.0, seed=1))
            for _ in range(2)
        ]
        assert calls
        assert np.array_equal(runs[0], runs[1])

    def test_pull_examines_fewer_arcs(self, dense):
        _, (arcs_edges, _, _) = triple(dense, kernel="arcs")
        counter = WorkCounter()
        run_per_source(
            dense, mode="arcs", batch_size=8, kernel="pull",
            counter=counter,
        )
        assert counter.examined < arcs_edges

    def test_directed_graph(self, dir_random, und_random):
        for graph in (dir_random, und_random):
            ref = brandes_bc(graph)
            for kernel in AVAILABLE:
                scores, _ = triple(graph, kernel=kernel, batch=6)
                np.testing.assert_allclose(
                    scores, ref, rtol=1e-9, atol=1e-9
                )

    def test_kernel_implies_auto_batch(self, dense, dense_oracle):
        # kernel= without batch_size must still route through the
        # batched path (otherwise the option would silently no-op)
        counter = WorkCounter()
        scores = run_per_source(
            dense, mode="arcs", kernel="pull", counter=counter
        )
        np.testing.assert_allclose(
            scores, dense_oracle, rtol=1e-9, atol=1e-9
        )
        assert counter.pulled > 0


class TestPullForwardSweep:
    """The pull BFS is exact against the top-down kernel, not just BC."""

    def test_dist_sigma_and_arcs_match_topdown(self, dense):
        sources = [0, 5, 17, 100]
        top = bfs_sigma_batched(dense, sources, keep_level_arcs=True)
        pull = bfs_sigma_batched_pull(
            dense, sources, keep_level_arcs=True
        )
        np.testing.assert_array_equal(pull.dist, top.dist)
        np.testing.assert_array_equal(pull.sigma, top.sigma)
        assert len(pull.level_arcs) == len(top.level_arcs)
        for (ps, pd), (ts, td) in zip(pull.level_arcs, top.level_arcs):
            # same DAG arc set per level, grouped by tail either way
            assert set(zip(ps.tolist(), pd.tolist())) == set(
                zip(ts.tolist(), td.tolist())
            )
            assert np.all(np.diff(ps) >= 0)

    def test_split_tally_accounts_every_probe(self, dense):
        res = bfs_sigma_batched_pull(dense, [0, 5, 17, 100])
        assert res.edges_pulled > 0
        assert res.direction_switches > 0
        top = bfs_sigma_batched(dense, [0, 5, 17, 100])
        # bottom-up levels are why the totals differ — and both count
        # every arc actually probed
        assert (
            res.edges_traversed + res.edges_pulled <= top.edges_traversed
        )

    def test_alpha_zero_always_pulls_exactly(self, dense):
        top = bfs_sigma_batched(dense, [3, 9])
        res = bfs_sigma_batched_pull(dense, [3, 9], alpha=0.0)
        np.testing.assert_array_equal(res.dist, top.dist)
        np.testing.assert_array_equal(res.sigma, top.sigma)
        assert 0.0 < PULL_ALPHA < 1.0  # documented crossover regime

    def test_empty_sources_raise(self, dense):
        with pytest.raises(AlgorithmError):
            bfs_sigma_batched_pull(dense, [])


class TestApgreKernelCompositions:
    """kernel= through the APGRE driver and every composing layer."""

    @pytest.fixture(scope="class")
    def graph(self):
        # dense biconnected core plus pendant/bridge structure, so the
        # decomposition produces real sub-graphs and pull still fires
        nxg = nx.gnm_random_graph(60, 420, seed=11)
        base = 60
        for i in range(8):
            nxg.add_edge(i, base + i)  # pendants
        nxg.add_edges_from(
            [(base + 8, 0), (base + 8, base + 9), (base + 9, 1)]
        )
        return from_networkx(nxg, n=base + 10)

    @pytest.fixture(scope="class")
    def oracle(self, graph):
        return brandes_python_bc(graph)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("kernel", ["pull", "auto"])
    def test_plain(self, graph, oracle, backend, kernel):
        res = apgre_bc_detailed(
            graph,
            APGREConfig(backend=backend, workers=WORKERS, kernel=kernel),
        )
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert res.health is not None and not res.health.degraded

    def test_pull_tallies_surface_in_stats(self, graph):
        res = apgre_bc_detailed(graph, APGREConfig(kernel="pull"))
        assert res.stats.edges_pulled > 0
        assert res.stats.kernel_switches > 0
        base = apgre_bc_detailed(graph, APGREConfig(batch_size="auto"))
        assert base.stats.edges_pulled == 0
        assert (
            res.stats.edges_traversed + res.stats.edges_pulled
            < base.stats.edges_traversed + 1
        )

    def test_compressed(self, graph, oracle):
        res = apgre_bc_detailed(
            graph, APGREConfig(kernel="pull", compress=True)
        )
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )

    def test_cached_then_replayed(self, graph, oracle, tmp_path):
        cfg = APGREConfig(kernel="pull", cache_dir=str(tmp_path / "c"))
        cold = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            cold.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert cold.stats.edges_pulled > 0
        warm = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            warm.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.subgraphs_recomputed == 0
        # committed tallies are direction-blind totals: a replay
        # reports the work the first run actually did, both directions
        assert warm.stats.edges_replayed == (
            cold.stats.edges_traversed + cold.stats.edges_pulled
        )

    def test_journaled_and_resumed(self, graph, oracle, tmp_path):
        jdir = str(tmp_path / "j")
        first = apgre_bc_detailed(
            graph, APGREConfig(kernel="pull", journal_dir=jdir)
        )
        np.testing.assert_allclose(
            first.scores, oracle, rtol=1e-9, atol=1e-9
        )
        resumed = apgre_bc_detailed(
            graph,
            APGREConfig(kernel="pull", journal_dir=jdir, resume=True),
        )
        np.testing.assert_allclose(
            resumed.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert resumed.stats.subgraphs_recomputed == 0
        assert resumed.stats.subgraphs_resumed > 0

    def test_config_validates_kernel(self):
        assert APGREConfig(kernel="pull").batch_size == "auto"
        assert APGREConfig(kernel="auto", batch_size=16).batch_size == 16
        with pytest.raises(AlgorithmError):
            APGREConfig(kernel="simd")

    def test_apgre_bc_wrapper_accepts_kernel(self, graph, oracle):
        np.testing.assert_allclose(
            apgre_bc(graph, kernel="pull"), oracle, rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize(
        "kernel,env,expected",
        [
            ("arcs", None, "arcs"),
            ("spmm", None, "spmm"),
            ("pull", None, "pull"),
            (None, "arcs", "arcs"),
            (None, None, default_kernel_name()),
        ],
        ids=["arcs", "spmm", "pull", "env-arcs", "default"],
    )
    def test_kernel_name_takes_effect(
        self, graph, oracle, monkeypatch, kernel, env, expected
    ):
        if not get_kernel(expected).available():
            pytest.skip(f"{expected} kernel unavailable on this host")
        calls = spy_on_kernels(monkeypatch)
        if env is None:
            monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(KERNEL_ENV_VAR, env)
        res = apgre_bc_detailed(graph, APGREConfig(kernel=kernel))
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert calls and set(calls) == {expected}

    def test_without_sparsetools_default_runs_arcs(
        self, graph, oracle, monkeypatch
    ):
        # the loader gives up cleanly when scipy cannot be found ...
        with monkeypatch.context() as m:
            m.delitem(sys.modules, batched._SPARSETOOLS, raising=False)
            m.setattr(importlib.util, "find_spec", lambda name: None)
            assert batched._sparsetools.__wrapped__() is None
        # ... and a None loader makes the default run the arcs kernel
        monkeypatch.setattr(batched, "_sparsetools", lambda: None)
        monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
        calls = spy_on_kernels(monkeypatch)
        assert not get_kernel("spmm").available()
        assert default_kernel_name() == "arcs"
        res = apgre_bc_detailed(graph, APGREConfig())
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert calls and set(calls) == {"arcs"}


class TestPullUnderFaults:
    """A killed worker mid-pull-batch never commits a partial delta."""

    @pytest.fixture(scope="class")
    def reference(self, request):
        dense = request.getfixturevalue("dense")
        counter = WorkCounter()
        scores = threaded_bc_scores(
            dense, list(range(0, dense.n, 3)), batch=8, workers=1,
            kernel="pull", counter=counter,
        )
        return scores, (counter.edges, counter.pulled, counter.switches)

    def _run(self, dense, **kwargs):
        counter = WorkCounter()
        health = RunHealth()
        scores = threaded_bc_scores(
            dense, list(range(0, dense.n, 3)), batch=8, workers=WORKERS,
            kernel="pull", counter=counter, health=health, **kwargs,
        )
        return scores, (counter.edges, counter.pulled,
                        counter.switches), health

    def test_kill_mid_batch_retries_without_partial_commit(
        self, dense, reference
    ):
        ref_scores, ref_split = reference
        with injected_faults(FaultSpec("kill", task=1)):
            scores, split, health = self._run(dense)
        np.testing.assert_allclose(
            scores, ref_scores, rtol=1e-9, atol=1e-9
        )
        assert split == ref_split  # idempotent per-batch tally commit
        assert health.worker_crashes == 1
        assert health.retries >= 1

    def test_persistent_fault_drains_serially_exact(
        self, dense, reference
    ):
        ref_scores, ref_split = reference
        with injected_faults(
            FaultSpec("raise", task=0, attempts=tuple(range(16)))
        ):
            scores, split, health = self._run(dense)
        np.testing.assert_allclose(
            scores, ref_scores, rtol=1e-9, atol=1e-9
        )
        assert split == ref_split
        assert health.serial_retries >= 1


class TestAutoBatchSizePull:
    def test_pull_model_shrinks_batches(self):
        # a budget where the RAM ceiling binds (base 7 rows, pull 6):
        # at 8 GiB both models sit on the AUTO_MIN_BATCH floor
        n, m = 200_000, 3_000_000
        budget = 2 << 30
        base = auto_batch_size(n, m, available_bytes=budget)
        pull = auto_batch_size(n, m, available_bytes=budget, kernel="pull")
        assert pull < base

    def test_pull_model_exact_regression(self):
        # the documented model, spelled out: transpose CSR charged once
        # before the worker split, 12 extra bytes per row-vertex
        n, m, workers = 100_000, 1_000_000, 4
        budget = 256 << 20
        csr = 16 * n + 16 * m
        quarter = budget // 4
        per_row = 44 * n + 20 * m + 12 * n
        expected = max(1, ((quarter - csr) // workers) // per_row)
        assert (
            auto_batch_size(
                n, m, available_bytes=budget, workers=workers,
                kernel="pull",
            )
            == expected
        )

    def test_other_kernels_use_base_model(self):
        n, m = 50_000, 400_000
        budget = 128 << 20
        base = auto_batch_size(n, m, available_bytes=budget)
        for kernel in (None, "arcs", "spmm"):
            assert (
                auto_batch_size(
                    n, m, available_bytes=budget, kernel=kernel
                )
                == base
            )
