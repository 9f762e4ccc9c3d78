"""Tests for the compute-kernel registry.

Covers the registry's contract surface: every registered kernel
matches Brandes to 1e-9 across the serial/threads/processes engines
with exact (and deterministic) examined-edge tallies on every
composition (plain, cached-replay, journaled-resume),
``auto`` names the host default without probing the graph, the probe
behind spmm's layout and width is exact, and an unavailable kernel
degrades to a clean miss instead of an error.
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
from repro.graph import batched, kernels
from repro.graph.batched import spmm_contributions
from repro.graph.build import from_networkx
from repro.graph.kernels import (
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
    spmm_layout,
)

WORKERS = 2

#: the 12 Table-1 suite analogues
SUITE = [
    "Email-Enron", "Email-EuAll", "NotroDame", "Slashdot0811",
    "USA-roadBAY", "USA-roadNY", "WikiTalk", "com-youtube", "dblp-2010",
    "soc-DouBan", "web-BerkStan", "web-Google",
]

#: every kernel the host can actually run; "auto" rides along as the
#: host default's other spelling
AVAILABLE = [k for k in kernel_names() if get_kernel(k).available()]
BACKENDS = ["serial", "threads", "processes"]


@pytest.fixture(scope="module")
def dense():
    """Dense small-diameter graph: avg degree ~10.7, two-sweep
    diameter ~3, fully reachable (spmm's dense-form regime)."""
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


def no_probe(monkeypatch):
    """Make any call of the structural probe fail the test."""

    def probe(graph):
        raise AssertionError("the probe ran")

    monkeypatch.setattr(kernels, "kernel_features", probe)


def tallied(graph, *, kernel, backend=None, workers=1, batch=8):
    """Scores plus the examined-edge tally for one run."""
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
    return scores, counter.edges


class TestKernelRegistry:
    def test_registered_names(self):
        assert kernel_names() == ("arcs", "spmm")
        for name in kernel_names():
            assert isinstance(get_kernel(name).available(), bool)
        assert get_kernel("arcs").available()

    def test_unknown_kernel_raises(self):
        for name in ("simd", "pull"):
            with pytest.raises(
                AlgorithmError, match="unknown compute kernel"
            ):
                get_kernel(name)
            with pytest.raises(
                AlgorithmError, match="unknown compute kernel"
            ):
                resolve_kernel_name(name)

    def test_default_matches_spmm_probe(self, monkeypatch):
        expected = "spmm" if get_kernel("spmm").available() else "arcs"
        assert default_kernel_name() == expected
        no_probe(monkeypatch)  # "auto" names the default, unprobed
        assert resolve_kernel_name("auto") == expected

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "arcs")
        assert resolve_kernel_name(None) == "arcs"
        for env in ("nope", "pull"):
            monkeypatch.setenv(KERNEL_ENV_VAR, env)
            with pytest.raises(
                AlgorithmError, match=r"known: arcs, spmm, auto\)"
            ):
                resolve_kernel_name(None)

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV_VAR, "spmm")
        assert resolve_kernel_name("arcs") == "arcs"

    def test_unavailable_kernel_degrades_with_warning(self):
        ghost = dataclasses.replace(
            get_kernel("arcs"), name="ghost", probe=lambda: False,
            unavailable_reason="probe says no",
        )
        register_kernel(ghost)
        try:
            with pytest.warns(RuntimeWarning, match="probe says no"):
                resolved = resolve_kernel_name("ghost")
            assert resolved == default_kernel_name()
        finally:
            del _REGISTRY["ghost"]

    def test_auto_never_selects_unavailable(
        self, monkeypatch, dense, dense_oracle, arcs_default
    ):
        """``auto`` is the host default by name: on the arcs default an
        APGRE run of the dense shallow graph runs arcs throughout, and
        nothing runs the probe."""
        no_probe(monkeypatch)
        calls = spy_on_kernels(monkeypatch)
        assert resolve_kernel_name("auto") == "arcs"
        res = apgre_bc_detailed(dense, APGREConfig(kernel="auto"))
        np.testing.assert_allclose(
            res.scores, dense_oracle, rtol=1e-9, atol=1e-9
        )
        assert calls and set(calls) == {"arcs"}

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
    """The structural probe behind spmm's layout and ``"auto"`` width."""

    def test_features_cached_per_graph(self, dense):
        assert kernel_features(dense) is kernel_features(dense)

    def test_empty_graph_features(self):
        graph = from_networkx(nx.empty_graph(0), n=0)
        assert kernel_features(graph) == KernelFeatures(0, 0.0)

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
        scores, edges = tallied(
            dense, kernel=kernel, backend=backend, workers=WORKERS
        )
        np.testing.assert_allclose(
            scores, dense_oracle, rtol=1e-9, atol=1e-9
        )
        # the tally is deterministic: engines must commit exactly the
        # serial run's
        assert edges == tallied(dense, kernel=kernel)[1]

    @pytest.mark.parametrize("kernel", AVAILABLE)
    def test_tally_identity(self, dense, kernel):
        """One examined count: ``examined`` is ``edges``, and every
        kernel examines what the serial per-source path does."""
        counter = WorkCounter()
        run_per_source(
            dense, mode="arcs", batch_size=8, kernel=kernel,
            counter=counter,
        )
        serial = WorkCounter()
        run_per_source(dense, mode="arcs", counter=serial)
        assert counter.examined == counter.edges == serial.edges > 0

    @pytest.mark.parametrize("kernel", AVAILABLE)
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

    def test_directed_graph(self, dir_random, und_random):
        for graph in (dir_random, und_random):
            ref = brandes_bc(graph)
            for kernel in AVAILABLE:
                scores, _ = tallied(graph, kernel=kernel, batch=6)
                np.testing.assert_allclose(
                    scores, ref, rtol=1e-9, atol=1e-9
                )

    def test_kernel_implies_auto_batch(self, dense, dense_oracle):
        # kernel= without batch_size must still route through the
        # batched path (otherwise the option would silently no-op)
        counter = WorkCounter()
        scores = run_per_source(
            dense, mode="arcs", kernel="arcs", counter=counter
        )
        np.testing.assert_allclose(
            scores, dense_oracle, rtol=1e-9, atol=1e-9
        )
        assert counter.edges > 0


class TestApgreKernelCompositions:
    """kernel= through the APGRE driver and every composing layer."""

    @pytest.fixture(scope="class")
    def graph(self):
        # dense biconnected core plus pendant/bridge structure, so the
        # decomposition produces real sub-graphs
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
    @pytest.mark.parametrize("kernel", ["arcs", "auto"])
    def test_plain(self, graph, oracle, backend, kernel):
        res = apgre_bc_detailed(
            graph,
            APGREConfig(backend=backend, workers=WORKERS, kernel=kernel),
        )
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert res.health is not None and not res.health.degraded

    def test_cached_then_replayed(self, graph, oracle, tmp_path):
        cfg = APGREConfig(kernel="arcs", cache_dir=str(tmp_path / "c"))
        cold = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            cold.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert cold.stats.edges_traversed > 0
        warm = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            warm.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.subgraphs_recomputed == 0
        # a replay reports the work the first run actually did
        assert warm.stats.edges_replayed == cold.stats.edges_traversed

    def test_journaled_and_resumed(self, graph, oracle, tmp_path):
        jdir = str(tmp_path / "j")
        first = apgre_bc_detailed(
            graph, APGREConfig(kernel="arcs", journal_dir=jdir)
        )
        np.testing.assert_allclose(
            first.scores, oracle, rtol=1e-9, atol=1e-9
        )
        resumed = apgre_bc_detailed(
            graph,
            APGREConfig(kernel="arcs", journal_dir=jdir, resume=True),
        )
        np.testing.assert_allclose(
            resumed.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert resumed.stats.subgraphs_recomputed == 0
        assert resumed.stats.subgraphs_resumed > 0

    def test_config_validates_kernel(self):
        assert APGREConfig(kernel="arcs").batch_size == "auto"
        assert APGREConfig(kernel="auto", batch_size=16).batch_size == 16
        for name in ("simd", "pull"):
            with pytest.raises(AlgorithmError, match="kernel must be"):
                APGREConfig(kernel=name)

    def test_apgre_bc_wrapper_accepts_kernel(self, graph, oracle):
        np.testing.assert_allclose(
            apgre_bc(graph, kernel="arcs"), oracle, rtol=1e-9, atol=1e-9
        )

    @pytest.mark.parametrize(
        "kernel,env,expected",
        [
            ("arcs", None, "arcs"),
            ("spmm", None, "spmm"),
            (None, "arcs", "arcs"),
            (None, None, default_kernel_name()),
        ],
        ids=["arcs", "spmm", "env-arcs", "default"],
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
