"""Tests for the persistent shared-memory batched pool.

Covers the PR's contract surface: pooled scores match serial batched
within 1e-9 with *exactly* the serial examined-edge tally, the inline
degradation is bit-identical, work stealing can be disabled, the
tree reduction is order-robust, the memory budget divides by worker
count, and every BENCH_*.json records its environment.
"""

import json

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.baselines.common import WorkCounter, run_per_source
from repro.baselines.preds import preds_bc
from repro.bench.persistence import environment_provenance, save_results
from repro.bench.runner import ExperimentResult
from repro.graph.batched import (
    auto_batch_size,
    batched_bc_scores,
    resolve_batch_size,
)
from repro.parallel.batched_pool import batched_pool_bc_scores, tree_reduce
from repro.parallel.supervisor import RunHealth

WORKERS = 3


class TestTreeReduce:
    def test_matches_plain_sum(self):
        rng = np.random.default_rng(0)
        rows = [rng.standard_normal(17) for _ in range(5)]  # odd count
        np.testing.assert_allclose(
            tree_reduce(rows), np.sum(rows, axis=0), rtol=1e-12
        )

    def test_single_row_is_a_copy(self):
        row = np.ones(4)
        out = tree_reduce([row])
        out[0] = 99.0
        assert row[0] == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one row"):
            tree_reduce([])

    def test_pairwise_association(self):
        # pairwise, not sequential: ((a+b) + (c+d)), not (((a+b)+c)+d)
        # — detectable through float non-associativity
        a = np.array([1e16])
        b = np.array([1.0])
        c = np.array([-1e16])
        d = np.array([1.0])
        assert tree_reduce([a, b, c, d])[0] == (a + b)[0] + (c + d)[0]


class TestPoolMatchesSerial:
    @pytest.mark.parametrize("steal", [True, False])
    def test_scores_and_tally_match_serial(self, und_random, steal):
        sources = list(range(0, und_random.n, 2))
        serial_counter = WorkCounter()
        serial = batched_bc_scores(
            und_random, sources, batch=5, counter=serial_counter
        )
        pool_counter = WorkCounter()
        health = RunHealth()
        pooled = batched_pool_bc_scores(
            und_random,
            sources,
            batch=5,
            workers=WORKERS,
            steal=steal,
            counter=pool_counter,
            health=health,
        )
        np.testing.assert_allclose(pooled, serial, rtol=1e-9, atol=1e-9)
        assert pool_counter.edges == serial_counter.edges
        assert not health.degraded
        assert health.tasks == -(-len(sources) // 5)

    def test_directed_graph(self, dir_random):
        sources = list(range(dir_random.n))
        serial = batched_bc_scores(dir_random, sources, batch=7)
        pooled = batched_pool_bc_scores(
            dir_random, sources, batch=7, workers=2
        )
        np.testing.assert_allclose(pooled, serial, rtol=1e-9, atol=1e-9)

    def test_inline_single_worker_bit_identical(self, und_random):
        sources = list(range(0, und_random.n, 3))
        serial = batched_bc_scores(und_random, sources, batch=4)
        health = RunHealth()
        inline = batched_pool_bc_scores(
            und_random, sources, batch=4, workers=1, health=health
        )
        assert (inline == serial).all()  # same code path, not just close
        assert health.inline
        assert not health.degraded

    def test_inline_single_chunk_bit_identical(self, und_random):
        sources = list(range(10))
        serial = batched_bc_scores(und_random, sources, batch=64)
        inline = batched_pool_bc_scores(
            und_random, sources, batch=64, workers=4
        )
        assert (inline == serial).all()

    def test_empty_sources(self, und_random):
        out = batched_pool_bc_scores(
            und_random, [], batch=4, workers=2
        )
        assert out.shape == (und_random.n,)
        assert not out.any()

    def test_invalid_args(self, und_random):
        with pytest.raises(ValueError, match="batch"):
            batched_pool_bc_scores(und_random, [0], batch=0, workers=2)
        with pytest.raises(ValueError, match="workers"):
            batched_pool_bc_scores(und_random, [0], batch=2, workers=0)


class TestRunPerSourceRouting:
    def test_workers_plus_batch_takes_pool(self, und_random):
        ref = run_per_source(und_random, mode="arcs")
        counter = WorkCounter()
        serial_counter = WorkCounter()
        run_per_source(
            und_random, mode="arcs", batch_size=6, counter=serial_counter
        )
        out = run_per_source(
            und_random,
            mode="arcs",
            batch_size=6,
            workers=WORKERS,
            counter=counter,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
        assert counter.edges == serial_counter.edges

    def test_brandes_and_preds_accept_workers(self, und_random):
        ref = brandes_bc(und_random)
        np.testing.assert_allclose(
            brandes_bc(und_random, batch_size=8, workers=2),
            ref, rtol=1e-9, atol=1e-9,
        )
        np.testing.assert_allclose(
            preds_bc(und_random, batch_size=8, workers=2, steal=False),
            ref, rtol=1e-9, atol=1e-9,
        )


class TestMemoryBudget:
    def test_workers_divide_the_budget(self):
        n, m = 50_000, 200_000
        budget = 1 << 30
        solo = auto_batch_size(n, m, available_bytes=budget)
        quad = auto_batch_size(n, m, available_bytes=budget, workers=4)
        # each concurrent worker gets a quarter of the pot
        assert quad == auto_batch_size(n, m, available_bytes=budget // 4)
        assert 1 <= quad <= solo

    def test_floor_is_one(self):
        assert auto_batch_size(10**6, 10**7, available_bytes=1, workers=8) == 1

    def test_resolve_passes_workers_to_auto(self):
        n, m = 50_000, 200_000
        assert resolve_batch_size("auto", n, m, workers=4) == auto_batch_size(
            n, m, workers=4
        )

    def test_resolve_explicit_int_ignores_workers(self):
        # an explicit size is the caller's statement that it fits
        assert resolve_batch_size(32, 1000, 4000, workers=8) == 32


class TestConfigAndProvenance:
    def test_environment_provenance_keys(self):
        env = environment_provenance(workers=4)
        assert env["cpu_count"] >= 1
        assert env["available_workers"] >= 1
        assert "fork" in env["start_methods"] or env["start_methods"]
        assert env["numpy"]
        assert env["python"]
        assert env["workers"] == 4

    def test_save_results_embeds_environment(self, tmp_path):
        path = tmp_path / "bench.json"
        result = ExperimentResult(
            exp_id="x", title="t", headers=["a"], rows=[[1]]
        )
        save_results([result], path, metadata={"note": "hi"})
        payload = json.loads(path.read_text())
        assert payload["metadata"]["note"] == "hi"
        assert payload["metadata"]["environment"]["cpu_count"] >= 1

    def test_save_results_caller_environment_wins(self, tmp_path):
        path = tmp_path / "bench.json"
        result = ExperimentResult(
            exp_id="x", title="t", headers=["a"], rows=[[1]]
        )
        save_results(
            [result], path, metadata={"environment": {"pinned": True}}
        )
        payload = json.loads(path.read_text())
        assert payload["metadata"]["environment"] == {"pinned": True}
