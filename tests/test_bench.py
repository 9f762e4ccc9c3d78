"""Tests for the benchmark harness (workloads, runner, report, registry)."""

import numpy as np
import pytest

from repro.bench.registry import EXPERIMENTS, experiment_ids, get_experiment
from repro.bench.report import format_value, render_bars, render_table
from repro.bench.runner import (
    ExperimentResult,
    clear_cache,
    time_algorithm,
)
from repro.bench.workloads import (
    bench_graph_names,
    bench_scale,
    get_graph,
    get_partition,
    get_suite,
    scaling_graph,
)
from repro.errors import BenchmarkError
from repro.generators.suite import suite_names
from repro.graph.build import from_edges


@pytest.fixture(autouse=True)
def _fresh_runner_cache():
    clear_cache()
    yield
    clear_cache()


@pytest.fixture
def small_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    monkeypatch.setenv("REPRO_GRAPHS", "Email-Enron,USA-roadNY")


class TestWorkloads:
    def test_default_scale(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert bench_scale() == 1.0

    def test_scale_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert bench_scale() == 0.5

    def test_scale_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "abc")
        with pytest.raises(BenchmarkError, match="float"):
            bench_scale()
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(BenchmarkError, match="positive"):
            bench_scale()

    def test_graph_names_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_GRAPHS", raising=False)
        assert bench_graph_names() == suite_names()

    def test_graph_names_env(self, small_env):
        assert bench_graph_names() == ["Email-Enron", "USA-roadNY"]

    def test_graph_names_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPHS", "NotAGraph")
        with pytest.raises(BenchmarkError, match="unknown"):
            bench_graph_names()

    def test_graph_caching(self, small_env):
        a = get_graph("Email-Enron")
        b = get_graph("Email-Enron")
        assert a is b

    def test_suite_order(self, small_env):
        assert list(get_suite()) == ["Email-Enron", "USA-roadNY"]

    def test_partition_cached_with_alpha(self, small_env):
        p = get_partition("Email-Enron")
        assert p is get_partition("Email-Enron")
        has_boundary = any(
            sg.boundary_arts().size for sg in p.subgraphs
        )
        if has_boundary:
            assert any(sg.alpha.sum() > 0 for sg in p.subgraphs)

    def test_scaling_graph(self, small_env):
        name, g = scaling_graph()
        assert name == "dblp-2010"
        assert g.n > 0


class TestRunner:
    def test_time_algorithm_caches(self, small_env):
        g = get_graph("USA-roadNY")
        a = time_algorithm("serial", g, graph_name="USA-roadNY")
        b = time_algorithm("serial", g, graph_name="USA-roadNY")
        assert a is b
        assert a.seconds > 0 and a.mteps > 0

    def test_unsupported_returns_none(self, small_env):
        g = from_edges([(0, 1), (1, 2)], directed=True)
        assert time_algorithm("async", g, graph_name="tiny-dir") is None

    def test_verification_catches_wrong_scores(self, small_env, monkeypatch):
        from repro.baselines import registry as reg

        def bogus(graph, **kwargs):
            return np.ones(graph.n)

        monkeypatch.setitem(reg.ALGORITHMS, "bogus", bogus)
        g = get_graph("USA-roadNY")
        time_algorithm("serial", g, graph_name="USA-roadNY")
        with pytest.raises(BenchmarkError, match="disagrees"):
            time_algorithm("bogus", g, graph_name="USA-roadNY")


class TestReport:
    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(0.0) == "0"
        assert format_value(3.14159) == "3.14"
        assert format_value(0.1234567) == "0.1235"
        assert format_value(123456.0) == "123,456"
        assert format_value("x", width=3) == "  x"

    def test_render_table(self):
        text = render_table(
            "My Table",
            ["a", "bbb"],
            [[1, 2.5], [None, "x"]],
            notes="hello\nworld",
        )
        assert "My Table" in text
        assert "=" * len("My Table") in text
        assert "-" in text.splitlines()[3]
        assert "note: hello" in text
        assert "note: world" in text

    def test_render_bars(self):
        text = render_bars("Chart", ["aa", "b"], [2.0, 1.0], width=10)
        lines = text.splitlines()
        assert lines[2].count("#") == 10
        assert lines[3].count("#") == 5

    def test_render_bars_empty(self):
        assert "Chart" in render_bars("Chart", [], [])

    def test_experiment_result_render(self):
        r = ExperimentResult(
            exp_id="T", title="t", headers=["x"], rows=[[1]]
        )
        assert "T: t" in r.render()


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        for required in (
            "table1",
            "table2",
            "table3",
            "table4",
            "fig6",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
        ):
            assert required in EXPERIMENTS

    def test_get_experiment_unknown(self):
        with pytest.raises(BenchmarkError, match="unknown experiment"):
            get_experiment("table99")

    def test_experiment_ids_order(self):
        ids = experiment_ids()
        assert ids[0] == "table1"


class TestExperimentsSmoke:
    """Each cheap experiment runs end-to-end on a tiny suite."""

    def test_table1(self, small_env):
        r = get_experiment("table1")()
        assert len(r.rows) == 2
        assert r.headers[0] == "Graph"
        assert "paper #V" in r.headers

    def test_table4(self, small_env):
        r = get_experiment("table4")()
        assert len(r.rows) == 2
        assert r.headers[1] == "#SG"
        # top share is a percent string
        assert r.rows[0][4].endswith("%")

    def test_fig7(self, small_env):
        r = get_experiment("fig7")()
        for row in r.rows:
            values = [float(cell.rstrip("%")) for cell in row[1:]]
            assert abs(sum(values) - 100.0) < 0.5

    def test_fig8(self, small_env):
        r = get_experiment("fig8")()
        for row in r.rows:
            shares = [float(cell.rstrip("%")) for cell in row[1:5]]
            assert abs(sum(shares) - 100.0) < 0.5

    def test_table2_table3_fig6_consistent(self, small_env, monkeypatch):
        from repro.baselines import registry as reg

        monkeypatch.delenv("REPRO_BENCH_TIMEOUT", raising=False)
        apgre_calls = []
        real_apgre = reg.ALGORITHMS["APGRE"]

        def spy(graph, **kwargs):
            apgre_calls.append(kwargs)
            return real_apgre(graph, **kwargs)

        monkeypatch.setitem(reg.ALGORITHMS, "APGRE", spy)
        t2 = get_experiment("table2")()
        t3 = get_experiment("table3")()
        f6 = get_experiment("fig6")()
        # the APGRE column times the per-source kernel, once per graph
        assert apgre_calls == [{"batch_size": None}] * 2
        # table2 ends with the average-speedup row
        assert t2.rows[-1][0].startswith("Average")
        assert len(t3.rows) == 2
        # fig6 speedups = serial / algo from the same (cached) timings
        for row2, row6 in zip(t2.rows[:-1], f6.rows):
            serial = row2[1]
            apgre = row2[2]
            assert row6[1] == pytest.approx(serial / apgre)


class TestRenderLines:
    def test_basic_chart(self):
        from repro.bench.report import render_lines

        text = render_lines(
            "Chart", [1, 2, 4], {"up": [1.0, 2.0, 4.0], "flat": [1.0, 1.0, 1.0]}
        )
        assert "Chart" in text
        assert "o = up" in text and "x = flat" in text
        assert "x: 1.00 .. 4.00" in text

    def test_handles_none_values(self):
        from repro.bench.report import render_lines

        text = render_lines("C", [1, 2], {"a": [1.0, None]})
        assert "a" in text

    def test_empty_series(self):
        from repro.bench.report import render_lines

        assert "(no data)" in render_lines("C", [], {})

    def test_monotone_series_rows_descend(self):
        from repro.bench.report import render_lines

        text = render_lines("C", [1, 2, 3], {"a": [1.0, 2.0, 3.0]},
                            height=6, width=12)
        rows = [l.split("|")[1] for l in text.splitlines() if "|" in l]
        cols = [row.index("o") for row in rows if "o" in row]
        # a rising series puts its rightmost point in the top row, so a
        # top-down scan sees strictly decreasing columns
        assert cols == sorted(cols, reverse=True)


class TestPersistence:
    def _toy_results(self, apgre_time):
        return [
            ExperimentResult(
                exp_id="Table 2",
                title="timing",
                headers=["Graph", "serial", "APGRE"],
                rows=[["Email-Enron", 1.0, apgre_time], ["roads", 2.0, 1.5]],
                notes="n",
            )
        ]

    def test_roundtrip(self, tmp_path):
        from repro.bench.persistence import load_results, save_results

        results = self._toy_results(0.5)
        path = tmp_path / "run.json"
        save_results(results, path, metadata={"scale": 1.0})
        loaded = load_results(path)
        assert loaded[0].exp_id == "Table 2"
        assert loaded[0].rows == [["Email-Enron", 1.0, 0.5], ["roads", 2.0, 1.5]]
        assert loaded[0].notes == "n"

    def test_diff_detects_regression(self, tmp_path):
        from repro.bench.persistence import diff_results

        old = self._toy_results(0.5)
        new = self._toy_results(1.2)  # APGRE slowed 2.4x
        changes = diff_results(old, new, rel_tolerance=0.25)
        assert len(changes) == 1
        ch = changes[0]
        assert ch.row_label == "Email-Enron"
        assert ch.column == "APGRE"
        assert ch.ratio == pytest.approx(2.4)

    def test_diff_tolerates_noise(self):
        from repro.bench.persistence import diff_results

        old = self._toy_results(0.5)
        new = self._toy_results(0.55)  # 10% — under tolerance
        assert diff_results(old, new) == []

    def test_diff_ignores_layout_changes(self):
        from repro.bench.persistence import diff_results

        old = self._toy_results(0.5)
        new = [
            ExperimentResult(
                exp_id="Table 9", title="other", headers=["x"], rows=[[1]]
            )
        ]
        assert diff_results(old, new) == []

    def test_load_bad_file(self, tmp_path):
        from repro.bench.persistence import load_results

        p = tmp_path / "junk.json"
        p.write_text("{not json")
        with pytest.raises(BenchmarkError, match="cannot read"):
            load_results(p)
        p.write_text('{"schema": 99, "experiments": []}')
        with pytest.raises(BenchmarkError, match="schema"):
            load_results(p)


@pytest.mark.benchmarks
class TestParallelBenchSmoke:
    """Quick-mode invocation of the parallel pool benchmark.

    Keeps ``benchmarks/bench_parallel_batched.py --quick`` runnable
    from the suite (marker ``benchmarks``) so a routing or provenance
    regression in the bench script is caught before a full run.
    Skipped on single-core machines where a 2-worker pool cannot be
    exercised meaningfully.
    """

    def test_quick_mode(self, tmp_path):
        import importlib.util
        from pathlib import Path

        from repro.parallel.pool import available_workers

        if available_workers() < 2:
            pytest.skip("needs >= 2 CPUs for a 2-worker pool smoke")
        script = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_parallel_batched.py"
        )
        spec = importlib.util.spec_from_file_location(
            "bench_parallel_batched_smoke", script
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        out = tmp_path / "quick.json"
        payload, written = mod.run_bench(quick=True, out_path=out)
        assert written == out
        mod.check_rows(payload["workloads"], quick=True)
        assert payload["environment"]["workers"] == mod.QUICK_WORKERS
        row = payload["workloads"][0]
        assert row["speedup"] > 0
        assert row["health"].startswith("ok")

    def test_speedup_targets_are_four_worker_bars(self, monkeypatch):
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_parallel_batched.py"
        )
        spec = importlib.util.spec_from_file_location(
            "bench_parallel_batched_bars", script
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        monkeypatch.setattr(mod, "available_workers", lambda: 8)

        def rows(workers, speedup):
            return [{"graph": "ring", "backend": "processes",
                     "workers": workers, "speedup": speedup,
                     "model_speedup": 3.0}]

        mod.check_rows(rows(2, 1.28))  # no bar at 2 workers
        mod.check_rows(rows(4, 2.6))
        with pytest.raises(AssertionError, match="target"):
            mod.check_rows(rows(4, 1.28))
        with pytest.raises(AssertionError, match="min-speedup"):
            mod.check_rows(rows(2, 1.28), min_speedup=1.5)


class TestBatchedKernelBenchChecks:
    """``bench_batched_kernel.check_rows``' quick guards on fixed rows."""

    @staticmethod
    def _bench():
        import importlib.util
        from pathlib import Path

        script = (
            Path(__file__).resolve().parent.parent
            / "benchmarks"
            / "bench_batched_kernel.py"
        )
        spec = importlib.util.spec_from_file_location(
            "bench_batched_kernel_checks", script
        )
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    @staticmethod
    def _road_rows(spmm_vs_arcs):
        rows = [{
            "graph": "USA-roadBAY", "kernel": "arcs", "speedup": 3.0,
            "spmm_layout": "sparse", "speedup_vs_arcs": 1.0,
        }]
        if spmm_vs_arcs is not None:
            rows.append({
                "graph": "USA-roadBAY", "kernel": "spmm",
                "speedup": 3.0 * spmm_vs_arcs, "spmm_layout": "sparse",
                "speedup_vs_arcs": spmm_vs_arcs,
            })
        return rows

    def test_spmm_must_keep_its_lead_on_the_road_grid(self):
        mod = self._bench()
        mod.check_rows(self._road_rows(1.7), quick=True)
        # a host without scipy's extension has no spmm row to check
        mod.check_rows(self._road_rows(None), quick=True)
        with pytest.raises(AssertionError, match="spmm fell behind arcs"):
            mod.check_rows(self._road_rows(0.9), quick=True)
        # the full-size run keeps its committed-baseline guard instead
        mod.check_rows(self._road_rows(0.9), quick=False)
