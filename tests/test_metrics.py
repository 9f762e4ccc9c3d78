"""Tests for the measurement layer (TEPS, redundancy, breakdown, stats)."""

import time

import numpy as np
import pytest

from repro.errors import BenchmarkError
from repro.decompose.partition import graph_partition
from repro.generators.structured import (
    caterpillar_graph,
    cycle_graph,
    paper_example_graph,
    star_graph,
)
from repro.generators.suite import analogue_graph
from repro.graph.build import from_edges
from repro.metrics.breakdown import phase_breakdown
from repro.metrics.redundancy import bfs_arc_work, measure_redundancy
from repro.metrics.stats import graph_stats, partition_stats
from repro.metrics.teps import graph_mteps, graph_teps, mteps, teps
from repro.metrics.timers import Timer, stopwatch


class TestTeps:
    def test_formula(self):
        assert teps(100, 1000, 2.0) == 50_000
        assert mteps(100, 1000, 0.1) == 1.0

    def test_graph_helpers(self):
        g = from_edges([(0, 1), (1, 2)])
        # n=3, arcs=4
        assert graph_teps(g, 1.0) == 12
        assert graph_mteps(g, 1.0) == 12 / 1e6

    def test_nonpositive_time(self):
        with pytest.raises(BenchmarkError, match="positive"):
            teps(1, 1, 0.0)


class TestArcWork:
    def test_path_work(self):
        # directed path 0->1->2: BFS from 0 examines 2 arcs
        g = from_edges([(0, 1), (1, 2)], directed=True)
        assert bfs_arc_work(g, 0) == 2
        assert bfs_arc_work(g, 2) == 0

    def test_undirected_counts_both_orientations(self):
        g = from_edges([(0, 1)])
        assert bfs_arc_work(g, 0) == 2  # 0->1 and 1->0 examined


class TestRedundancy:
    def test_fractions_sum_to_one(self):
        for name in ("Email-Enron", "USA-roadNY", "Email-EuAll"):
            rb = measure_redundancy(analogue_graph(name, scale=0.3), name=name)
            total = (
                rb.partial_fraction + rb.total_fraction + rb.essential_fraction
            )
            assert abs(total - 1.0) < 1e-12
            assert rb.partial_fraction >= 0
            assert rb.total_fraction >= 0

    def test_biconnected_graph_no_redundancy(self):
        # a cycle has no articulation points and no pendants: nothing
        # to eliminate
        rb = measure_redundancy(cycle_graph(10))
        assert rb.total_fraction == 0.0
        assert rb.partial_fraction == 0.0
        assert rb.essential_fraction == 1.0

    def test_star_total_redundancy(self):
        # star with k leaves: Brandes runs k+1 sources; APGRE runs only
        # the hub (possibly split across sub-graphs). Each leaf BFS
        # costs the same arcs as the hub BFS (2k arcs each, undirected)
        k = 6
        rb = measure_redundancy(star_graph(k))
        assert rb.w_brandes == (k + 1) * 2 * k
        # every leaf source eliminated
        assert rb.w_after_total == 2 * k
        assert rb.total_fraction == pytest.approx(k / (k + 1))

    def test_caterpillar_mostly_total(self):
        rb = measure_redundancy(caterpillar_graph(5, 3))
        assert rb.total_fraction > 0.5

    def test_pendant_heavy_directed_matches_paper_shape(self):
        # Email-EuAll: the paper reports 71% total redundancy; the
        # analogue should land in the same regime
        rb = measure_redundancy(analogue_graph("Email-EuAll", scale=0.5))
        assert rb.total_fraction > 0.5

    def test_partition_reuse(self):
        g = analogue_graph("USA-roadNY", scale=0.3)
        partition = graph_partition(g)
        rb = measure_redundancy(g, partition=partition)
        rb2 = measure_redundancy(g)
        assert rb.w_apgre == rb2.w_apgre

    def test_empty_graph(self):
        rb = measure_redundancy(from_edges([], n=3))
        assert rb.essential_fraction == 1.0
        assert rb.total_fraction == 0.0


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        frac = phase_breakdown(analogue_graph("Email-Enron", scale=0.3))
        assert set(frac) == {"partition", "alpha_beta", "top_bc", "rest_bc"}
        assert abs(sum(frac.values()) - 1.0) < 1e-9
        assert all(v >= 0 for v in frac.values())

    def test_forces_serial(self):
        from repro.core.config import APGREConfig

        config = APGREConfig(backend="processes", workers=2)
        frac = phase_breakdown(
            analogue_graph("USA-roadNY", scale=0.3), config
        )
        # serial re-run still splits top vs rest
        assert frac["top_bc"] > 0

    def test_keeps_every_option_but_workers(self, monkeypatch):
        # forcing serial must not drop eliminate_pendants/batch_size/...
        from repro.core.config import APGREConfig
        from repro.metrics import breakdown

        runs = []
        real = breakdown.apgre_bc_detailed

        def spy(graph, config):
            result = real(graph, config)
            runs.append((config, result))
            return result

        monkeypatch.setattr(breakdown, "apgre_bc_detailed", spy)
        config = APGREConfig(
            eliminate_pendants=False, workers=2, backend="threads"
        )
        phase_breakdown(analogue_graph("USA-roadNY", scale=0.3), config)
        ((ran, result),) = runs
        assert ran.workers == 1
        assert not ran.eliminate_pendants and ran.backend == "threads"
        assert ran.batch_size == config.batch_size == "auto"
        assert result.health is None  # the inline serial loop ran
        assert result.stats.num_removed_pendants == 0  # every vertex a source


class TestStats:
    def test_graph_stats_fields(self):
        g = paper_example_graph()
        s = graph_stats(g, name="paper")
        assert s.name == "paper"
        assert s.num_vertices == 13
        assert s.directed
        assert s.num_articulation_points == 3
        assert s.num_pendants == 2  # vertices 0 and 1
        assert 0 < s.pendant_fraction < 1
        assert s.max_degree >= s.mean_degree > 0

    def test_graph_stats_undirected_pendants(self):
        s = graph_stats(star_graph(5))
        assert s.num_pendants == 5

    def test_partition_stats_rows(self):
        g = analogue_graph("Email-Enron", scale=0.3)
        partition = graph_partition(g)
        s = partition_stats(partition, name="enron", keep=3)
        assert len(s.rows) == 3
        assert s.top.num_arcs >= s.rows[1].num_arcs >= s.rows[2].num_arcs
        assert 0 < s.top.vertex_fraction <= 1
        assert s.num_subgraphs == partition.num_subgraphs

    def test_partition_stats_pads_missing_rows(self):
        g = cycle_graph(5)
        s = partition_stats(graph_partition(g), keep=3)
        assert s.rows[1].num_vertices == 0
        assert s.rows[2].num_arcs == 0


class TestTimers:
    def test_stopwatch(self):
        with stopwatch() as t:
            time.sleep(0.01)
        assert t.seconds >= 0.009

    def test_timer_accumulates(self):
        timer = Timer()
        for _ in range(2):
            with timer.phase("a"):
                time.sleep(0.005)
        with timer.phase("b"):
            pass
        assert timer.totals["a"] >= 0.009
        assert 0 <= timer.fraction("b") < timer.fraction("a")
        assert abs(timer.fraction("a") + timer.fraction("b") - 1.0) < 1e-9

    def test_timer_empty_fraction(self):
        assert Timer().fraction("missing") == 0.0
