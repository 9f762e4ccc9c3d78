"""Tests for the parallel substrate (pool helpers, scheduler, shared memory)."""

import numpy as np
import pytest

from repro.parallel.pool import (
    available_workers,
    get_worker_state,
    map_sources_bc,
)
from repro.parallel.scheduler import (
    assign_lpt,
    lpt_makespan,
    lpt_order,
    task_cost,
)
from repro.parallel.sharedmem import SharedArray
from repro.parallel.supervisor import supervised_map
from repro.graph.traversal import bfs_sigma


class TestAvailableWorkers:
    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestMapSourcesBC:
    def test_matches_serial(self, und_random):
        from repro.baselines.common import run_per_source

        ref = run_per_source(und_random, mode="succs")
        out = map_sources_bc(
            und_random,
            list(range(und_random.n)),
            mode="succs",
            forward=bfs_sigma,
            workers=2,
        )
        np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-10)

    def test_empty_sources(self, und_random):
        out = map_sources_bc(
            und_random, [], mode="succs", forward=bfs_sigma, workers=2
        )
        assert (out == 0).all()


class TestScheduler:
    def test_lpt_order_descending(self):
        assert lpt_order([3, 1, 4, 1, 5]) == [4, 2, 0, 1, 3]

    def test_lpt_order_stable_ties(self):
        assert lpt_order([2, 2, 2]) == [0, 1, 2]

    def test_lpt_order_empty(self):
        assert lpt_order([]) == []

    def test_lpt_order_singleton(self):
        assert lpt_order([42.0]) == [0]

    def test_lpt_order_all_equal_is_identity(self):
        # Equal weights must come back in input order — the stable
        # sort guarantee that makes scheduling deterministic.
        assert lpt_order([7.0] * 6) == list(range(6))

    def test_lpt_order_mixed_ties_deterministic(self):
        sizes = [3, 5, 3, 5, 1]
        expected = [1, 3, 0, 2, 4]
        for _ in range(3):
            assert lpt_order(sizes) == expected

    def test_lpt_order_accepts_numpy_array(self):
        assert lpt_order(np.array([1.0, 9.0, 4.0])) == [1, 2, 0]

    def test_assign_single_worker_gets_everything(self):
        sizes = [2.0, 5.0, 1.0]
        bins = assign_lpt(sizes, 1)
        assert len(bins) == 1
        assert bins[0] == lpt_order(sizes)

    def test_assign_empty_sizes(self):
        assert assign_lpt([], 3) == [[], [], []]

    def test_assign_all_tasks_once(self):
        sizes = [5, 3, 8, 1, 9, 2]
        bins = assign_lpt(sizes, 3)
        flat = sorted(t for b in bins for t in b)
        assert flat == list(range(6))

    def test_assign_balances(self):
        sizes = [4, 4, 4, 4]
        bins = assign_lpt(sizes, 2)
        loads = [sum(sizes[t] for t in b) for b in bins]
        assert loads == [8, 8]

    def test_assign_more_workers_than_tasks(self):
        bins = assign_lpt([7], 4)
        assert len(bins) == 4
        assert sorted(t for b in bins for t in b) == [0]

    def test_assign_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            assign_lpt([1], 0)

    def test_makespan_bounds(self):
        sizes = [5.0, 3.0, 3.0, 3.0]
        for k in (1, 2, 3, 4):
            ms = lpt_makespan(sizes, k)
            assert ms >= max(sizes)  # critical path
            assert ms >= sum(sizes) / k  # work bound
        assert lpt_makespan(sizes, 1) == sum(sizes)

    def test_makespan_empty(self):
        assert lpt_makespan([], 3) == 0.0


class TestTaskCost:
    def test_sqrt_scaling_in_roots(self):
        # quadrupling the roots doubles the cost — the sub-linear
        # batching effect the model encodes
        assert task_cost(1000, 400) == pytest.approx(
            2.0 * task_cost(1000, 100)
        )

    def test_linear_in_edges(self):
        assert task_cost(2000, 9) == pytest.approx(2.0 * task_cost(1000, 9))

    def test_floors_at_one(self):
        assert task_cost(0, 0) == 1.0
        assert task_cost(0, 100) == 10.0

    def test_beats_linear_weights_on_skewed_workload(self):
        """The satellite regression: on a root-heavy vs edge-heavy mix,
        LPT weighted by edges × sqrt(roots) places tasks measurably
        better than LPT weighted by the old linear edges × roots model
        (measured against the concave cost the weights stand in for)."""
        # one root-heavy task, four edge-heavy ones, a tail of smalls
        tasks = (
            [(100, 1_000_000)]
            + [(100_000, 1)] * 4
            + [(500, 16)] * 6
        )
        true = [task_cost(e, r) for e, r in tasks]
        linear = [max(e, 1) * max(r, 1) for e, r in tasks]

        def makespan(weights, workers=2):
            bins = assign_lpt(weights, workers)
            return max(sum(true[t] for t in b) for b in bins)

        modelled = makespan(true)
        naive = makespan(linear)
        assert modelled < naive
        # and the modelled placement is near the work lower bound
        assert modelled <= 1.34 * sum(true) / 2


class TestSharedArray:
    def test_create_and_mutate(self):
        with SharedArray.create((10,), np.float64) as arr:
            assert (arr.array == 0).all()
            arr.array[3] = 7.5
            assert arr.array[3] == 7.5

    def test_attach_sees_owner_writes(self):
        owner = SharedArray.create((5,), np.int64)
        try:
            owner.array[:] = [1, 2, 3, 4, 5]
            view = SharedArray.attach(owner.name, (5,), np.int64)
            assert view.array.tolist() == [1, 2, 3, 4, 5]
            view.array[0] = 99
            assert owner.array[0] == 99
            view.close()
        finally:
            owner.close()
            owner.unlink()

    def test_cross_process_visibility(self):
        owner = SharedArray.create((4,), np.float64)
        try:
            out = supervised_map(
                _shared_writer,
                [0, 1, 2, 3],
                workers=2,
                state={"name": owner.name},
            )
            assert sorted(out) == [0, 1, 2, 3]
            assert owner.array.tolist() == [0.0, 10.0, 20.0, 30.0]
        finally:
            owner.close()
            owner.unlink()


def _shared_writer(i):
    state = get_worker_state()
    view = SharedArray.attach(state["name"], (4,), np.float64)
    view.array[i] = 10.0 * i
    view.close()
    return i
