"""Fault-injection suite: every supervisor failure path, deterministically.

Each test installs a :class:`repro.parallel.faults.FaultPlan` naming
exactly which task misbehaves on which attempt, runs a supervised
computation, and asserts both the *result* (complete, correct — for
APGRE bit-identical to the same fault-free run) and the *report*
(:class:`RunHealth` counters match the injected faults exactly).

Run in isolation with ``pytest -m faults``; the suite is also part of
the default run. Per-test alarms in conftest guarantee that a
regression reintroducing a hang fails fast instead of wedging CI.
"""

import numpy as np
import pytest

import networkx as nx

from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.errors import (
    ExecutionError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.graph.build import from_networkx
from repro.parallel.faults import (
    KILL_EXIT_CODE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_faults,
    injected_faults,
    install_faults,
)
from repro.parallel.supervisor import (
    RunHealth,
    SupervisorConfig,
    supervised_map,
)

pytestmark = pytest.mark.faults

ALWAYS = tuple(range(16))  # fire on every plausible attempt


def _square(x):
    return x * x


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """No fault plan may leak between tests."""
    clear_faults()
    yield
    clear_faults()


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode", task=0)
        with pytest.raises(ValueError, match="task"):
            FaultSpec("kill", task=-1)

    def test_matching(self):
        plan = FaultPlan([FaultSpec("kill", task=2, attempts=(0, 1))])
        assert plan.find(2, 0) is not None
        assert plan.find(2, 1) is not None
        assert plan.find(2, 2) is None
        assert plan.find(1, 0) is None
        assert plan.find(2, 0, kinds=("delay",)) is None

    def test_install_and_clear(self):
        install_faults(FaultPlan([FaultSpec("kill", task=0)]))
        assert len(active_plan()) == 1
        clear_faults()
        assert active_plan() is None

    def test_context_manager_scopes_plan(self):
        with injected_faults(FaultSpec("delay", task=0, seconds=0)) as plan:
            assert active_plan() is plan
        assert active_plan() is None

    def test_kill_exit_code_distinctive(self):
        assert KILL_EXIT_CODE not in (0, 1, 2)


class TestWorkerCrash:
    def test_killed_worker_is_retried(self):
        health = RunHealth()
        with injected_faults(FaultSpec("kill", task=1)):
            out = supervised_map(
                _square, list(range(6)), workers=2, health=health
            )
        assert out == [i * i for i in range(6)]
        assert health.worker_crashes == 1
        assert health.retries == 1
        assert health.serial_retries == 0
        assert health.degraded

    def test_persistent_crash_resolves_on_serial_rung(self):
        health = RunHealth()
        with injected_faults(FaultSpec("kill", task=0, attempts=ALWAYS)):
            out = supervised_map(
                _square,
                list(range(4)),
                workers=2,
                health=health,
                config=SupervisorConfig(max_retries=1),
            )
        assert out == [0, 1, 4, 9]
        assert health.worker_crashes == 2  # first try + one retry
        assert health.serial_retries == 1
        outcome = next(o for o in health.outcomes if o.task == 0)
        assert outcome.status == "ok-serial"
        assert "crash" in outcome.events and "serial" in outcome.events

    def test_no_fallback_raises_worker_crash_error(self):
        with injected_faults(FaultSpec("kill", task=0, attempts=ALWAYS)):
            with pytest.raises(WorkerCrashError, match="task 0"):
                supervised_map(
                    _square,
                    list(range(4)),
                    workers=2,
                    config=SupervisorConfig(max_retries=0, fallback=False),
                )

    def test_unhealthy_pool_abandoned_and_drained_serially(self):
        specs = [
            FaultSpec("kill", task=t, attempts=ALWAYS) for t in range(6)
        ]
        health = RunHealth()
        with injected_faults(*specs):
            out = supervised_map(
                _square,
                list(range(8)),
                workers=2,
                health=health,
                config=SupervisorConfig(
                    max_retries=1, max_pool_failures=2
                ),
            )
        assert out == [i * i for i in range(8)]
        assert health.pool_abandoned
        assert health.drained_serial > 0
        assert "pool abandoned" in health.summary()


class TestTaskTimeout:
    def test_delayed_task_times_out_and_retry_succeeds(self):
        health = RunHealth()
        with injected_faults(FaultSpec("delay", task=0, seconds=60)):
            out = supervised_map(
                _square,
                list(range(4)),
                workers=2,
                health=health,
                config=SupervisorConfig(timeout=0.3),
            )
        assert out == [0, 1, 4, 9]
        assert health.timeouts == 1
        assert health.retries == 1

    def test_persistent_delay_resolves_on_serial_rung(self):
        health = RunHealth()
        with injected_faults(
            FaultSpec("delay", task=1, seconds=60, attempts=ALWAYS)
        ):
            out = supervised_map(
                _square,
                list(range(4)),
                workers=2,
                health=health,
                config=SupervisorConfig(timeout=0.3, max_retries=0),
            )
        assert out == [0, 1, 4, 9]
        assert health.timeouts == 1
        assert health.serial_retries == 1

    def test_no_fallback_raises_task_timeout_error(self):
        with injected_faults(
            FaultSpec("delay", task=0, seconds=60, attempts=ALWAYS)
        ):
            with pytest.raises(TaskTimeoutError, match="timeout"):
                supervised_map(
                    _square,
                    list(range(4)),
                    workers=2,
                    config=SupervisorConfig(
                        timeout=0.2, max_retries=0, fallback=False
                    ),
                )


class TestInWorkerFailures:
    def test_raise_fault_is_retried(self):
        health = RunHealth()
        with injected_faults(FaultSpec("raise", task=2)):
            out = supervised_map(
                _square, list(range(5)), workers=2, health=health
            )
        assert out == [i * i for i in range(5)]
        assert health.task_errors == 1
        assert health.retries == 1

    def test_persistent_raise_reraises_inline_with_original_type(self):
        with injected_faults(FaultSpec("raise", task=0, attempts=ALWAYS)):
            # the serial rung has no fault hooks, so the inline re-run
            # succeeds: injected worker bugs never poison the parent
            out = supervised_map(
                _square,
                list(range(3)),
                workers=2,
                config=SupervisorConfig(max_retries=0),
            )
        assert out == [0, 1, 4]

    def test_injected_fault_is_not_a_repro_error(self):
        from repro.errors import ReproError

        assert not issubclass(InjectedFault, ReproError)


class TestCorruptResults:
    def test_corrupt_result_detected_and_retried(self):
        health = RunHealth()
        cfg = SupervisorConfig(
            validate=lambda payload, result: result == payload * payload
        )
        with injected_faults(
            FaultSpec("corrupt", task=3, replacement=-1)
        ):
            out = supervised_map(
                _square, list(range(5)), workers=2,
                health=health, config=cfg,
            )
        assert out == [0, 1, 4, 9, 16]
        assert health.corrupt_results == 1
        assert health.retries == 1

    def test_corruption_without_validation_passes_through(self):
        # documents the trust boundary: no validate hook, no detection
        with injected_faults(
            FaultSpec("corrupt", task=0, replacement="junk",
                      attempts=ALWAYS)
        ):
            out = supervised_map(_square, [1, 2], workers=2)
        assert out == ["junk", 4]


def assert_exact(got, want):
    """Exact to 1e-9: the engines tree-reduce per-worker score rows, so a
    retried batch that lands in another row may reassociate float sums
    (and a clean run's placement is timing-dependent too)."""
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


class TestAPGREUnderFaults:
    """The acceptance criteria: faults never change APGRE's answer."""

    @pytest.fixture(scope="class")
    def graph(self):
        return from_networkx(nx.gnm_random_graph(40, 70, seed=11), n=40)

    @pytest.fixture(scope="class")
    def serial_scores(self, graph):
        return apgre_bc_detailed(graph, APGREConfig()).scores

    @pytest.fixture(scope="class")
    def clean_parallel(self, graph):
        return apgre_bc_detailed(
            graph, APGREConfig(backend="processes", workers=2)
        )

    def test_clean_parallel_matches_serial(
        self, clean_parallel, serial_scores
    ):
        np.testing.assert_allclose(
            clean_parallel.scores, serial_scores, rtol=1e-9, atol=1e-9
        )
        assert clean_parallel.health is not None
        assert clean_parallel.health.ok

    def test_worker_crash_bit_identical(
        self, graph, clean_parallel, serial_scores
    ):
        with injected_faults(FaultSpec("kill", task=0)):
            res = apgre_bc_detailed(
                graph, APGREConfig(backend="processes", workers=2)
            )
        assert_exact(res.scores, clean_parallel.scores)
        np.testing.assert_allclose(
            res.scores, serial_scores, rtol=1e-9, atol=1e-9
        )
        assert res.health.worker_crashes == 1
        assert res.health.degraded

    def test_crash_exhausting_retries_bit_identical(
        self, graph, clean_parallel
    ):
        with injected_faults(FaultSpec("kill", task=1, attempts=ALWAYS)):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(
                    backend="processes", workers=2, max_retries=1
                ),
            )
        assert_exact(res.scores, clean_parallel.scores)
        assert res.health.serial_retries == 1

    def test_timeout_bit_identical_and_reported(
        self, graph, clean_parallel
    ):
        with injected_faults(FaultSpec("delay", task=0, seconds=60)):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(
                    backend="processes", workers=2, timeout=0.5
                ),
            )
        assert_exact(res.scores, clean_parallel.scores)
        assert res.health.timeouts == 1
        assert res.health.retries == 1

    def test_timeout_no_fallback_raises(self, graph):
        with injected_faults(
            FaultSpec("delay", task=0, seconds=60, attempts=ALWAYS)
        ):
            with pytest.raises(TaskTimeoutError):
                apgre_bc_detailed(
                    graph,
                    APGREConfig(
                        backend="processes",
                        workers=2,
                        timeout=0.3,
                        max_retries=0,
                        fallback=False,
                    ),
                )

    def test_health_counters_match_injected_faults(self, graph):
        plan = [
            FaultSpec("kill", task=0),
            FaultSpec("delay", task=2, seconds=60),
        ]
        with injected_faults(*plan):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(
                    backend="processes", workers=2, timeout=0.5
                ),
            )
        health = res.health
        assert health.worker_crashes == 1
        assert health.timeouts == 1
        assert health.retries == 2
        assert health.faults == 2
        resolved = {o.task: o.status for o in health.outcomes}
        assert set(resolved.values()) <= {"ok-pool", "ok-serial"}

    def test_weighted_apgre_under_crash(self, graph):
        from repro.core.weighted_apgre import weighted_apgre_bc

        serial = weighted_apgre_bc(graph)
        health = RunHealth()
        with injected_faults(FaultSpec("kill", task=0)):
            parallel = weighted_apgre_bc(
                graph, workers=2, health=health
            )
        np.testing.assert_allclose(parallel, serial, rtol=1e-9, atol=1e-9)
        assert health.worker_crashes == 1

    def test_map_sources_under_crash_matches_serial(self, graph):
        from repro.baselines.common import run_per_source
        from repro.graph.traversal import bfs_sigma
        from repro.parallel.pool import map_sources_bc

        ref = run_per_source(graph, mode="succs")
        health = RunHealth()
        with injected_faults(FaultSpec("kill", task=2)):
            out = map_sources_bc(
                graph,
                list(range(graph.n)),
                mode="succs",
                forward=bfs_sigma,
                workers=2,
                health=health,
            )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-10)
        assert health.worker_crashes == 1


class TestBenchRunnerDegradation:
    def test_timeout_degrades_to_missing_cell(self, monkeypatch):
        from repro.baselines import registry
        from repro.bench import runner

        def _stall(graph, **kwargs):
            import time

            time.sleep(60)  # pragma: no cover

        monkeypatch.setitem(registry.ALGORITHMS, "stall", _stall)
        runner.clear_cache()
        g = from_networkx(nx.path_graph(6), n=6)
        run = runner.time_algorithm(
            "stall", g, graph_name="tiny", timeout=0.3, verify=False
        )
        assert run is None  # the paper's '-' cell, not a hang

    def test_env_timeout_knob(self, monkeypatch):
        from repro.bench import runner

        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "not-a-number")
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError, match="REPRO_BENCH_TIMEOUT"):
            runner._env_timeout()
        monkeypatch.setenv("REPRO_BENCH_TIMEOUT", "2.5")
        assert runner._env_timeout() == 2.5
        monkeypatch.delenv("REPRO_BENCH_TIMEOUT")
        assert runner._env_timeout() is None


class TestBatchedUnderFaults:
    """The batched kernel rides the same degradation ladder: a crashed
    batched worker is retried/degraded and scores stay identical to a
    clean batched run (and to serial APGRE)."""

    @pytest.fixture(scope="class")
    def graph(self):
        return from_networkx(nx.gnm_random_graph(45, 80, seed=13), n=45)

    @pytest.fixture(scope="class")
    def serial_scores(self, graph):
        return apgre_bc_detailed(graph, APGREConfig()).scores

    @pytest.fixture(scope="class")
    def clean_batched(self, graph):
        return apgre_bc_detailed(
            graph,
            APGREConfig(backend="processes", workers=2, batch_size=4),
        )

    def test_clean_batched_matches_serial(
        self, clean_batched, serial_scores
    ):
        np.testing.assert_allclose(
            clean_batched.scores, serial_scores, rtol=1e-9, atol=1e-9
        )
        assert clean_batched.health is not None
        assert clean_batched.health.ok

    def test_batched_worker_crash_bit_identical(
        self, graph, clean_batched, serial_scores
    ):
        with injected_faults(FaultSpec("kill", task=0)):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(
                    backend="processes", workers=2, batch_size=4
                ),
            )
        assert_exact(res.scores, clean_batched.scores)
        np.testing.assert_allclose(
            res.scores, serial_scores, rtol=1e-9, atol=1e-9
        )
        assert res.health.worker_crashes == 1
        assert res.health.degraded

    def test_batched_crash_exhausting_retries_degrades_serially(
        self, graph, clean_batched
    ):
        with injected_faults(FaultSpec("kill", task=1, attempts=ALWAYS)):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(
                    backend="processes",
                    workers=2,
                    batch_size=4,
                    max_retries=1,
                ),
            )
        assert_exact(res.scores, clean_batched.scores)
        assert res.health.serial_retries == 1

    def test_batched_source_parallel_crash(self, graph):
        # the baselines' source-parallel pool rides the same ladder
        from repro.baselines.brandes import brandes_bc
        from repro.baselines.common import run_per_source

        expected = brandes_bc(graph)
        with injected_faults(FaultSpec("kill", task=0)):
            got = run_per_source(
                graph, mode="arcs", workers=2, batch_size=4
            )
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


class TestParallelBatchedUnderFaults:
    """The shared-memory batched pool under injected crashes.

    The pool's crash story is stronger than retry-and-hope: score
    slots live in shared memory with a per-batch commit protocol, so a
    worker killed mid-batch leaves either no trace (batch still
    pending) or a poisoned slot the parent recomputes and excludes —
    never a half-added delta.  Scores must match serial batched to
    1e-9 and the examined-edge tally must stay exact through every
    rung of the ladder.
    """

    @pytest.fixture(scope="class")
    def graph(self):
        return from_networkx(nx.gnm_random_graph(40, 90, seed=21), n=40)

    @pytest.fixture(scope="class")
    def serial(self, graph):
        from repro.baselines.common import WorkCounter
        from repro.graph.batched import batched_bc_scores

        counter = WorkCounter()
        scores = batched_bc_scores(
            graph, list(range(graph.n)), batch=5, counter=counter
        )
        return scores, counter.edges

    def _pooled(self, graph, **kwargs):
        from repro.baselines.common import WorkCounter
        from repro.parallel.batched_pool import batched_pool_bc_scores

        counter = WorkCounter()
        health = RunHealth()
        scores = batched_pool_bc_scores(
            graph,
            list(range(graph.n)),
            batch=5,
            workers=2,
            counter=counter,
            health=health,
            **kwargs,
        )
        return scores, counter.edges, health

    def test_kill_mid_run_is_retried(self, graph, serial):
        ref_scores, ref_edges = serial
        with injected_faults(FaultSpec("kill", task=1)):
            scores, edges, health = self._pooled(graph)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-9, atol=1e-9)
        assert edges == ref_edges
        assert health.worker_crashes == 1
        assert health.retries >= 1
        assert health.degraded  # truthful: this run was not clean
        assert "degraded" in health.summary()

    def test_persistent_kill_resolves_on_serial_rung(self, graph, serial):
        ref_scores, ref_edges = serial
        with injected_faults(FaultSpec("kill", task=2, attempts=ALWAYS)):
            scores, edges, health = self._pooled(
                graph, config=SupervisorConfig(max_retries=2)
            )
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-9, atol=1e-9)
        assert edges == ref_edges
        assert health.worker_crashes >= 2
        assert health.serial_retries >= 1
        assert health.degraded

    def test_no_fallback_raises(self, graph):
        with injected_faults(FaultSpec("kill", task=0, attempts=ALWAYS)):
            with pytest.raises(WorkerCrashError):
                self._pooled(
                    graph,
                    config=SupervisorConfig(max_retries=1, fallback=False),
                )

    def test_kill_mid_recompute_never_poisons_cache(self, graph):
        # A worker killed mid-recompute must never commit a poisoned
        # contribution: entries are admitted parent-side only after the
        # pool's poisoned-slot recovery, so the warm replay of a store
        # populated under a crash must be byte-exact (docs/CACHING.md).
        from repro.cache import ContributionStore
        from repro.core.apgre import apgre_bc_detailed
        from repro.core.config import APGREConfig

        store = ContributionStore()
        config = APGREConfig(
            backend="processes", workers=2, batch_size=5, cache=store
        )
        with injected_faults(FaultSpec("kill", task=1)):
            cold = apgre_bc_detailed(graph, config)
        assert cold.health.worker_crashes >= 1
        assert store.counters.puts > 0
        warm = apgre_bc_detailed(graph, config)
        np.testing.assert_allclose(
            warm.scores, cold.scores, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.edges_traversed == 0
        assert warm.stats.edges_replayed == cold.stats.edges_traversed

    def test_persistent_kill_cache_survives_serial_rung(self, graph):
        # Even when the pool is abandoned for the serial rung, the
        # entries admitted along the way replay exactly.
        from repro.cache import ContributionStore
        from repro.core.apgre import apgre_bc_detailed
        from repro.core.config import APGREConfig

        store = ContributionStore()
        config = APGREConfig(
            backend="processes",
            workers=2,
            batch_size=5,
            max_retries=1,
            cache=store,
        )
        with injected_faults(FaultSpec("kill", task=2, attempts=ALWAYS)):
            cold = apgre_bc_detailed(graph, config)
        assert cold.health.degraded
        warm = apgre_bc_detailed(graph, config)
        np.testing.assert_allclose(
            warm.scores, cold.scores, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.edges_traversed == 0

    def test_steal_disabled_still_recovers(self, graph, serial):
        ref_scores, ref_edges = serial
        with injected_faults(FaultSpec("kill", task=3)):
            scores, edges, health = self._pooled(graph, steal=False)
        np.testing.assert_allclose(scores, ref_scores, rtol=1e-9, atol=1e-9)
        assert edges == ref_edges
        assert health.steals == 0

    def test_apgre_parallel_batched_under_kill(self, graph):
        clean = apgre_bc_detailed(
            graph,
            APGREConfig(backend="processes", workers=2),
        )
        assert clean.health.ok
        with injected_faults(FaultSpec("kill", task=0)):
            res = apgre_bc_detailed(
                graph,
                APGREConfig(backend="processes", workers=2),
            )
        np.testing.assert_allclose(
            res.scores, clean.scores, rtol=1e-9, atol=1e-9
        )
        assert res.health.worker_crashes == 1
        assert res.health.degraded

    def test_run_per_source_pool_route_under_kill(self, graph):
        from repro.baselines.brandes import brandes_bc
        from repro.baselines.common import run_per_source

        expected = brandes_bc(graph)
        health = RunHealth()
        with injected_faults(FaultSpec("kill", task=1)):
            got = run_per_source(
                graph,
                mode="arcs",
                workers=2,
                batch_size=6,
                health=health,
            )
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)
        assert health.worker_crashes == 1
