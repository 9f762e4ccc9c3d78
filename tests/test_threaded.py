"""Tests for the GIL-free threaded backend and the engine registry.

Covers the PR's contract surface: the threaded engine matches Brandes
to 1e-9 with *exactly* the serial examined-edge tally under every
composition (plain, batched, cached, journaled), injected
thread kills/timeouts walk the same degradation ladder as the process
pool, the backend registry probes capabilities / honours
``REPRO_PARALLEL_BACKEND`` / degrades gracefully on unavailable
engines, the shared-address-space RAM model charges the CSR once, and
reusable batch workspaces change nothing about the scores.
"""

import threading

import numpy as np
import pytest

import networkx as nx

from repro.baselines.brandes import brandes_bc, brandes_python_bc
from repro.baselines.common import WorkCounter, run_per_source
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.errors import (
    AlgorithmError,
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.graph.batched import (
    BatchWorkspace,
    auto_batch_size,
    batched_bc_scores,
    batched_contributions,
    resolve_batch_size,
)
from repro.graph.build import from_networkx
from repro.graph.kernels import get_kernel, kernel_names
from repro.parallel.backends import (
    BACKEND_ENV_VAR,
    ExecutionBackend,
    backend_names,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.parallel.faults import (
    FaultSpec,
    WorkerThreadKilled,
    fire_thread_faults,
    injected_faults,
)
from repro.parallel.supervisor import RunHealth, SupervisorConfig
from repro.parallel.threaded import threaded_bc_scores, threaded_contributions

WORKERS = 3
ALWAYS = tuple(range(16))
#: every kernel the host can run
KERNELS = [k for k in kernel_names() if get_kernel(k).available()]


class TestThreadedMatchesSerial:
    @pytest.mark.parametrize("steal", [True, False])
    def test_scores_and_tally_match_serial(self, und_random, steal):
        sources = list(range(0, und_random.n, 2))
        serial_counter = WorkCounter()
        serial = batched_bc_scores(
            und_random, sources, batch=5, counter=serial_counter
        )
        counter = WorkCounter()
        health = RunHealth()
        threaded = threaded_bc_scores(
            und_random,
            sources,
            batch=5,
            workers=WORKERS,
            steal=steal,
            counter=counter,
            health=health,
        )
        np.testing.assert_allclose(threaded, serial, rtol=1e-9, atol=1e-9)
        assert counter.edges == serial_counter.edges
        assert not health.degraded
        assert health.tasks == -(-len(sources) // 5)

    def test_matches_brandes_oracle(self, und_random):
        oracle = brandes_python_bc(und_random)
        threaded = threaded_bc_scores(
            und_random, range(und_random.n), batch=6, workers=WORKERS
        )
        np.testing.assert_allclose(threaded, oracle, rtol=1e-9, atol=1e-9)

    def test_directed_graph(self, dir_random):
        sources = list(range(dir_random.n))
        serial = batched_bc_scores(dir_random, sources, batch=7)
        threaded = threaded_bc_scores(
            dir_random, sources, batch=7, workers=2
        )
        np.testing.assert_allclose(threaded, serial, rtol=1e-9, atol=1e-9)

    def test_inline_single_worker_bit_identical(self, und_random):
        sources = list(range(0, und_random.n, 3))
        serial = batched_bc_scores(und_random, sources, batch=4)
        health = RunHealth()
        inline = threaded_bc_scores(
            und_random, sources, batch=4, workers=1, health=health
        )
        assert (inline == serial).all()  # same code path, not just close
        assert health.inline
        assert not health.degraded

    def test_inline_single_chunk_bit_identical(self, und_random):
        sources = list(range(10))
        serial = batched_bc_scores(und_random, sources, batch=64)
        inline = threaded_bc_scores(
            und_random, sources, batch=64, workers=4
        )
        assert (inline == serial).all()

    def test_empty_sources(self, und_random):
        out = threaded_bc_scores(und_random, [], batch=4, workers=2)
        assert out.shape == (und_random.n,)
        assert not out.any()

    def test_arcs_kernel_bit_identical_to_serial(self, und_random):
        # the arcs kernel is deterministic per chunk and the engine's
        # tree reduction is order-fixed, so forcing kernel="arcs"
        # through the threads engine is bit-identical to serial chunks
        sources = list(range(und_random.n))
        serial = batched_bc_scores(
            und_random, sources, batch=64, kernel="arcs"
        )
        threaded = threaded_bc_scores(
            und_random, sources, batch=64, workers=2, kernel="arcs"
        )
        np.testing.assert_allclose(threaded, serial, rtol=1e-9, atol=1e-9)

    def test_invalid_args(self, und_random):
        with pytest.raises(ValueError, match="batch"):
            threaded_bc_scores(und_random, [0], batch=0, workers=2)
        with pytest.raises(ValueError, match="workers"):
            threaded_bc_scores(und_random, [0], batch=2, workers=0)

    def test_contributions_run_on_worker_threads(self, und_random):
        seen = set()
        main = threading.get_ident()

        def compute(batch_id):
            seen.add(threading.get_ident())
            return None, np.full(und_random.n, float(batch_id)), batch_id

        total, edge_total, batch_edges = threaded_contributions(
            compute, [1.0] * 8, n=und_random.n, workers=WORKERS
        )
        # all work off the parent thread (a fast worker may legally
        # claim every batch before its peers start, so no >= 2 bound)
        assert main not in seen and len(seen) >= 1
        np.testing.assert_allclose(total, np.full(und_random.n, 28.0))
        assert edge_total == 28
        assert batch_edges.tolist() == list(range(8))


class TestRunPerSourceBackend:
    @pytest.mark.parametrize("backend", ["serial", "threads", "processes"])
    def test_backends_match_brandes(self, und_random, backend):
        ref = brandes_bc(und_random)
        serial_counter = WorkCounter()
        run_per_source(
            und_random, mode="arcs", batch_size=6, counter=serial_counter
        )
        counter = WorkCounter()
        out = run_per_source(
            und_random,
            mode="arcs",
            batch_size=6,
            workers=WORKERS,
            backend=backend,
            counter=counter,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
        assert counter.edges == serial_counter.edges

    def test_backend_implies_auto_batch(self, und_random):
        # backend= without batch_size must route through the engine,
        # not the per-source chunk pool
        ref = brandes_bc(und_random)
        health = RunHealth()
        out = run_per_source(
            und_random, mode="arcs", backend="threads", workers=2,
            health=health,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
        assert health.tasks >= 1

    def test_baseline_wrappers_accept_backend(self, und_random):
        from repro.baselines.preds import preds_bc

        ref = brandes_bc(und_random)
        np.testing.assert_allclose(
            brandes_bc(und_random, backend="threads", workers=2),
            ref, rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(
            preds_bc(und_random, backend="serial"),
            ref, rtol=1e-9, atol=1e-9,
        )


class TestApgreBackendCompositions:
    """backend= through the APGRE driver and its composing layers."""

    @pytest.fixture(scope="class")
    def graph(self):
        return from_networkx(nx.gnm_random_graph(48, 96, seed=11), n=48)

    @pytest.fixture(scope="class")
    def oracle(self, graph):
        return brandes_python_bc(graph)

    @pytest.mark.parametrize("backend", ["serial", "threads", "auto"])
    def test_plain(self, graph, oracle, backend):
        res = apgre_bc_detailed(
            graph, APGREConfig(backend=backend, workers=2)
        )
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert res.health is not None and not res.health.degraded

    def test_cached_then_replayed(self, graph, oracle, tmp_path):
        cfg = APGREConfig(
            backend="threads", workers=2, cache_dir=str(tmp_path / "c")
        )
        cold = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            cold.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert cold.stats.subgraphs_recomputed > 0
        warm = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            warm.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.subgraphs_recomputed == 0
        # replayed tallies equal the exact tallies the engine committed
        assert warm.stats.edges_replayed == cold.stats.edges_traversed

    def test_journaled_and_resumed(self, graph, oracle, tmp_path):
        jdir = str(tmp_path / "j")
        cfg = APGREConfig(backend="threads", workers=2, journal_dir=jdir)
        first = apgre_bc_detailed(graph, cfg)
        np.testing.assert_allclose(
            first.scores, oracle, rtol=1e-9, atol=1e-9
        )
        resumed = apgre_bc_detailed(
            graph,
            APGREConfig(
                backend="threads", workers=2, journal_dir=jdir, resume=True
            ),
        )
        np.testing.assert_allclose(
            resumed.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert resumed.stats.subgraphs_recomputed == 0
        assert resumed.stats.subgraphs_resumed > 0

    def test_exact_tally_matches_serial(self, graph):
        serial = apgre_bc_detailed(graph, APGREConfig(batch_size="auto"))
        threaded = apgre_bc_detailed(
            graph, APGREConfig(backend="threads", workers=2)
        )
        assert (
            threaded.stats.edges_traversed == serial.stats.edges_traversed
        )


class TestThreadedUnderFaults:
    """Injected thread kills/delays/raises walk the degradation ladder."""

    @pytest.fixture(scope="class")
    def graph(self):
        return from_networkx(nx.gnm_random_graph(40, 90, seed=21), n=40)

    @pytest.fixture(scope="class")
    def serial(self, graph):
        counter = WorkCounter()
        scores = batched_bc_scores(
            graph, list(range(graph.n)), batch=5, counter=counter
        )
        return scores, counter.edges

    def _threaded(self, graph, **kwargs):
        counter = WorkCounter()
        health = RunHealth()
        scores = threaded_bc_scores(
            graph,
            list(range(graph.n)),
            batch=5,
            workers=2,
            counter=counter,
            health=health,
            **kwargs,
        )
        return scores, counter.edges, health

    def test_fire_thread_faults_kill_raises_base_exception(self):
        with injected_faults(FaultSpec("kill", task=3)):
            with pytest.raises(WorkerThreadKilled):
                fire_thread_faults(3, 0)
            fire_thread_faults(2, 0)  # other tasks untouched
        assert not issubclass(WorkerThreadKilled, Exception)

    def test_kill_mid_run_is_retried(self, graph, serial):
        # every kernel commits one idempotent tally per batch, so a
        # killed attempt never leaves a partial delta or count behind
        ref_scores, ref_edges = serial
        for kernel in KERNELS:
            with injected_faults(FaultSpec("kill", task=1)):
                scores, edges, health = self._threaded(graph, kernel=kernel)
            np.testing.assert_allclose(
                scores, ref_scores, rtol=1e-9, atol=1e-9, err_msg=kernel
            )
            assert edges == ref_edges, kernel
            assert health.worker_crashes == 1
            assert health.retries >= 1
            assert not health.drained_serial

    def test_persistent_fault_drops_to_serial_rung(self, graph, serial):
        ref_scores, ref_edges = serial
        for kernel in KERNELS:
            with injected_faults(
                FaultSpec("raise", task=2, attempts=ALWAYS)
            ):
                scores, edges, health = self._threaded(graph, kernel=kernel)
            np.testing.assert_allclose(
                scores, ref_scores, rtol=1e-9, atol=1e-9, err_msg=kernel
            )
            assert edges == ref_edges, kernel
            assert health.task_errors >= 1
            assert health.serial_retries == 1
            assert any(o.status == "ok-serial" for o in health.outcomes)

    def test_timeout_abandons_thread_and_recovers(self, graph, serial):
        ref_scores, ref_edges = serial
        with injected_faults(
            FaultSpec("delay", task=0, seconds=60, attempts=ALWAYS)
        ):
            scores, edges, health = self._threaded(
                graph,
                config=SupervisorConfig(
                    timeout=0.3, max_retries=0, poll_interval=0.05
                ),
            )
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-9, atol=1e-9)
        assert edges == ref_edges
        assert health.timeouts >= 1
        assert health.serial_retries >= 1
        assert health.workers_spawned > 2  # a replacement thread

    def test_fallback_false_raises_crash(self, graph):
        with injected_faults(FaultSpec("kill", task=1, attempts=ALWAYS)):
            with pytest.raises(WorkerCrashError):
                self._threaded(
                    graph, config=SupervisorConfig(fallback=False)
                )

    def test_fallback_false_raises_timeout(self, graph):
        with injected_faults(
            FaultSpec("delay", task=0, seconds=60, attempts=ALWAYS)
        ):
            with pytest.raises(TaskTimeoutError):
                self._threaded(
                    graph,
                    config=SupervisorConfig(
                        timeout=0.3, max_retries=0, fallback=False,
                        poll_interval=0.05,
                    ),
                )

    def test_failure_budget_drains_remaining_serially(self, graph, serial):
        ref_scores, ref_edges = serial
        plan = [
            FaultSpec("kill", task=t, attempts=ALWAYS) for t in range(6)
        ]
        with injected_faults(*plan):
            scores, edges, health = self._threaded(graph)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-9, atol=1e-9)
        assert edges == ref_edges
        assert health.pool_abandoned
        assert health.drained_serial > 0

    def test_apgre_backend_kill_fault(self, graph):
        oracle = brandes_python_bc(graph)
        with injected_faults(FaultSpec("kill", task=0)):
            res = apgre_bc_detailed(
                graph, APGREConfig(backend="threads", workers=2)
            )
        np.testing.assert_allclose(
            res.scores, oracle, rtol=1e-9, atol=1e-9
        )
        assert res.health.worker_crashes == 1


class TestBackendRegistry:
    def test_registered_names_and_probes(self):
        names = backend_names()
        for expected in ("serial", "threads", "processes"):
            assert expected in names
        assert get_backend("serial").available()
        assert get_backend("serial").shared_csr
        assert get_backend("threads").shared_csr
        assert not get_backend("processes").shared_csr

    def test_unknown_backend_raises(self):
        with pytest.raises(AlgorithmError, match="unknown parallel backend"):
            get_backend("gpu")
        with pytest.raises(AlgorithmError, match="unknown parallel backend"):
            resolve_backend("gpu")

    def test_default_prefers_threads_when_spmm(self):
        default = default_backend_name()
        if get_backend("threads").available():
            assert default == "threads"
        else:
            assert default in ("processes", "serial")
        assert resolve_backend(None).name == default
        assert resolve_backend("auto").name == default

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "serial")
        assert resolve_backend(None).name == "serial"
        # an explicit name beats the environment
        assert resolve_backend("auto").name == default_backend_name()

    def test_env_unknown_name_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "quantum")
        with pytest.raises(AlgorithmError, match="unknown parallel backend"):
            resolve_backend(None)

    def test_unavailable_backend_degrades_with_warning(self):
        broken = ExecutionBackend(
            name="broken",
            probe=lambda: False,
            unavailable_reason="intentionally disabled for the test",
            contributions=threaded_contributions,
            scores=threaded_bc_scores,
        )
        register_backend(broken)
        try:
            with pytest.warns(RuntimeWarning, match="intentionally"):
                fallback = resolve_backend("broken")
            assert fallback.name == default_backend_name()
        finally:
            from repro.parallel import backends as _b

            _b._REGISTRY.pop("broken", None)

    def test_probe_is_lazy(self, monkeypatch):
        flips = ExecutionBackend(
            name="flips",
            probe=lambda: flag[0],
            unavailable_reason="off",
            contributions=threaded_contributions,
            scores=threaded_bc_scores,
        )
        flag = [False]
        register_backend(flips)
        try:
            assert not get_backend("flips").available()
            flag[0] = True
            assert get_backend("flips").available()
        finally:
            from repro.parallel import backends as _b

            _b._REGISTRY.pop("flips", None)

    def test_config_backend_validation(self):
        with pytest.raises(AlgorithmError, match="backend"):
            APGREConfig(backend="gpu")
        cfg = APGREConfig(backend="threads")
        assert cfg.batch_size == "auto"
        explicit = APGREConfig(backend="threads", batch_size=16)
        assert explicit.batch_size == 16
        assert APGREConfig(workers=2).batch_size == "auto"
        assert APGREConfig().batch_size == "auto"


class TestSharedCsrBudget:
    def test_shared_csr_charges_csr_once(self):
        n, m = 50_000, 200_000
        budget = 1 << 30
        legacy = auto_batch_size(n, m, available_bytes=budget, workers=4)
        shared = auto_batch_size(
            n, m, available_bytes=budget, workers=4, shared_csr=True
        )
        # shared path: subtract one CSR footprint from the pooled
        # budget, then divide the rest across the workers
        csr = 16 * n + 16 * m
        expected = auto_batch_size(
            n, m, available_bytes=4 * (budget // 4 - csr), workers=4
        )
        assert shared == expected
        # for this budget the CSR charge dominates the legacy division
        assert shared <= legacy or csr == 0

    def test_legacy_formula_unchanged_without_flag(self):
        n, m = 50_000, 200_000
        budget = 1 << 30
        assert auto_batch_size(
            n, m, available_bytes=budget, workers=4, shared_csr=False
        ) == auto_batch_size(n, m, available_bytes=budget // 4)

    def test_tiny_budget_floors_at_one(self):
        assert (
            auto_batch_size(
                10**6, 10**7, available_bytes=1, workers=8, shared_csr=True
            )
            == 1
        )

    def test_resolve_passes_shared_csr(self):
        n, m = 50_000, 200_000
        assert resolve_batch_size(
            "auto", n, m, workers=4, shared_csr=True
        ) == auto_batch_size(n, m, workers=4, shared_csr=True)


class TestBatchWorkspace:
    def test_reuse_changes_nothing(self, und_random):
        sources = np.arange(und_random.n, dtype=np.int64)
        plain = batched_contributions(und_random, sources[:12])
        ws = BatchWorkspace()
        first = batched_contributions(
            und_random, sources[:12], workspace=ws
        )
        second = batched_contributions(
            und_random, sources[12:24], workspace=ws
        )
        third = batched_contributions(
            und_random, sources[:12], workspace=ws
        )
        assert (first == plain).all()
        assert (third == plain).all()  # dirty buffers fully re-init
        assert second.shape == plain.shape

    def test_capacity_grows_never_shrinks(self, und_random):
        ws = BatchWorkspace()
        assert ws.capacity == 0
        dist, sigma, delta = ws.arrays(4, und_random.n)
        assert dist.size == sigma.size == delta.size == 4 * und_random.n
        cap = ws.capacity
        ws.arrays(2, und_random.n)
        assert ws.capacity == cap  # smaller request reuses the buffer
        ws.arrays(8, und_random.n)
        assert ws.capacity == 8 * und_random.n

    def test_result_never_aliases_workspace(self, und_random):
        ws = BatchWorkspace()
        out = batched_contributions(
            und_random, np.arange(8), workspace=ws
        )
        saved = out.copy()
        # scribble over the workspace; a returned view would corrupt
        for arr in ws.arrays(8, und_random.n):
            arr.fill(123)
        assert (out == saved).all()

    def test_scores_share_one_workspace_across_chunks(self, und_random):
        sources = list(range(und_random.n))
        ws = BatchWorkspace()
        scores = batched_bc_scores(
            und_random, sources, batch=5, workspace=ws
        )
        baseline = batched_bc_scores(und_random, sources, batch=5)
        assert (scores == baseline).all()
        assert ws.capacity > 0


class TestProvenance:
    def test_environment_records_backend(self):
        from repro.bench.persistence import environment_provenance

        env = environment_provenance(workers=4, backend="threads")
        assert env["workers"] == 4
        assert env["backend"] == "threads"
        assert env["backend_default"] in ("threads", "processes", "serial")
        assert "serial" in env["backends_available"]

    def test_render_environment_surfaces_backend(self):
        from repro.bench.report import render_environment

        line = render_environment(
            {
                "cpu_count": 4,
                "workers": 4,
                "backend": "threads",
                "backend_default": "threads",
                "backends_available": ["serial", "threads"],
            }
        )
        assert "backend=threads" in line
        assert "cpus=4" in line
        assert "available=serial,threads" in line
        assert render_environment({}) == "environment: (unrecorded)"
