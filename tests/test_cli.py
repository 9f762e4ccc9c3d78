"""Tests for the repro-bc command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.generators.structured import paper_example_graph
from repro.graph.build import from_edges
from repro.io import write_edgelist


@pytest.fixture
def graph_file(tmp_path):
    g = from_edges([(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)])
    path = tmp_path / "g.txt"
    write_edgelist(g, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro-bc" in capsys.readouterr().out

    def test_compute_defaults(self):
        args = build_parser().parse_args(["compute", "g.txt"])
        assert args.algorithm == "APGRE"
        assert args.top == 10
        assert not args.directed

    def test_removed_shard_flags_exit_two(self, graph_file, capsys):
        for argv in (
            ["compute", graph_file, "--shard"],
            ["compute", graph_file, "--shard-max-size", "64"],
            ["serve", graph_file, "--shard"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_removed_pull_kernel_exits_two(self, graph_file, capsys):
        for argv in (
            ["compute", graph_file, "--kernel", "pull"],
            ["serve", graph_file, "--kernel", "pull"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert "invalid choice: 'pull'" in capsys.readouterr().err


class TestCompute:
    def test_compute_apgre(self, graph_file, capsys):
        assert main(["compute", graph_file]) == 0
        out = capsys.readouterr().out
        assert "APGRE BC" in out
        assert "vertex" in out

    def test_compute_serial_matches(self, graph_file, capsys):
        main(["compute", graph_file, "--algorithm", "serial", "--top", "2"])
        out = capsys.readouterr().out
        # vertices 1 and 3 are the most central in the fixture graph
        body = [l.split() for l in out.splitlines()[2:]]
        top_vertices = {int(row[0]) for row in body}
        assert top_vertices == {1, 3}

    def test_compute_directed_flag(self, tmp_path, capsys):
        g = paper_example_graph()
        path = tmp_path / "pe.txt"
        write_edgelist(g, path)
        assert main(["compute", str(path), "--directed"]) == 0


class TestPartition:
    def test_partition_output(self, graph_file, capsys):
        assert main(["partition", graph_file]) == 0
        out = capsys.readouterr().out
        assert "#SG=" in out
        assert "V/G.V" in out

    def test_partition_threshold(self, graph_file, capsys):
        assert main(["partition", graph_file, "--threshold", "0"]) == 0
        assert "threshold=0" in capsys.readouterr().out


class TestBench:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out and "fig10" in out

    def test_run_one_experiment(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_GRAPHS", raising=False)
        code = main(
            [
                "bench",
                "table1",
                "--scale",
                "0.25",
                "--graphs",
                "USA-roadBAY",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "USA-roadBAY" in out


class TestSuite:
    def test_suite_listing(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        monkeypatch.setenv("REPRO_GRAPHS", "Email-Enron")
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "Email-Enron" in out
        assert "scale=0.25" in out


class TestInfo:
    def test_info_output(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "vertices" in out and "articulation points" in out
        assert "directed             : no" in out

    def test_info_directed(self, tmp_path, capsys):
        g = paper_example_graph()
        path = tmp_path / "pe.txt"
        write_edgelist(g, path)
        assert main(["info", str(path), "--directed"]) == 0
        out = capsys.readouterr().out
        assert "directed             : yes" in out
        assert "articulation points  : 3" in out
        assert "pendant vertices     : 2" in out
        # the power-of-two BCC size histogram: [(2, 3, 2), (4, 7, 3)]
        assert "biconnected components: 5" in out
        assert "BCC size           2-3 : 2" in out
        assert "BCC size           4-7 : 3" in out


class TestConvert:
    def test_text_to_text(self, graph_file, tmp_path, capsys):
        target = tmp_path / "g.gr"
        assert main(["convert", graph_file, str(target)]) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.io import load_graph, read_dimacs

        assert read_dimacs(target, directed=False) == load_graph(
            graph_file, directed=False
        )

    def test_text_to_npz_roundtrip(self, graph_file, tmp_path, capsys):
        npz = tmp_path / "g.npz"
        assert main(["convert", graph_file, str(npz)]) == 0
        back = tmp_path / "back.txt"
        assert main(["convert", str(npz), str(back)]) == 0
        from repro.io import load_graph

        assert load_graph(back, directed=False) == load_graph(
            graph_file, directed=False
        )

    def test_explicit_format(self, graph_file, tmp_path):
        target = tmp_path / "odd_name"
        assert main(
            ["convert", graph_file, str(target), "--to", "matrixmarket"]
        ) == 0
        from repro.io import read_matrix_market

        assert read_matrix_market(target).n > 0


class TestCompare:
    def test_compare_exact_algorithms(self, graph_file, capsys):
        assert main(["compare", graph_file]) == 0
        out = capsys.readouterr().out
        assert "APGRE vs serial" in out
        assert "exact match      : yes" in out

    def test_compare_custom_pair(self, graph_file, capsys):
        code = main(
            ["compare", graph_file, "--reference", "serial",
             "--candidate", "treefold"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "treefold vs serial" in out
        assert "exact match      : yes" in out


class TestBenchSave:
    def test_save_results_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.delenv("REPRO_GRAPHS", raising=False)
        out_file = tmp_path / "run.json"
        code = main(
            ["bench", "table1", "--scale", "0.25",
             "--graphs", "USA-roadBAY", "--save", str(out_file)]
        )
        assert code == 0
        from repro.bench.persistence import load_results

        loaded = load_results(out_file)
        assert loaded[0].exp_id == "Table 1"
        assert "saved 1 experiment" in capsys.readouterr().out


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "checks passed" in out
        assert "[ok]" in out


class TestErrorHandling:
    """ReproError/OSError exit with a clean one-liner, not a traceback."""

    def test_malformed_graph_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket nonsense\n1 2\n")
        code = main(["compute", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-bc: error:")
        assert "Traceback" not in captured.err

    def test_missing_file_exits_nonzero(self, capsys):
        code = main(["info", "/nonexistent/graph.txt"])
        assert code == 2
        assert "repro-bc: error:" in capsys.readouterr().err

    def test_unknown_algorithm_exits_nonzero(self, graph_file, capsys):
        code = main(["compute", graph_file, "--algorithm", "nope"])
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err


class TestCacheFlags:
    def test_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["compute", "g.txt", "--cache", "--cache-dir", "/tmp/c",
             "--delta", "d.txt"]
        )
        assert args.cache
        assert args.cache_dir == "/tmp/c"
        assert args.delta == "d.txt"

    def test_compute_with_cache(self, graph_file, capsys):
        assert main(["compute", graph_file, "--cache"]) == 0
        assert "APGRE BC" in capsys.readouterr().out

    def test_compute_delta(self, graph_file, tmp_path, capsys):
        delta = tmp_path / "delta.txt"
        delta.write_text("# widen the 1-3 block\n+ 0 3\n- 2 3\n")
        code = main(["compute", graph_file, "--delta", str(delta)])
        assert code == 0
        out = capsys.readouterr().out
        assert "+1/-1 edges" in out
        assert "incremental:" in out
        assert "patched" in out and "unwound)" in out

    def test_cache_requires_apgre(self, graph_file, capsys):
        code = main(
            ["compute", graph_file, "--algorithm", "serial", "--cache"]
        )
        assert code == 2
        assert "APGRE" in capsys.readouterr().err

    def test_malformed_delta_exits_two(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "bad_delta.txt"
        bad.write_text("+ 0 1\n* 2 3\n")
        code = main(["compute", graph_file, "--delta", str(bad)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro-bc: error:")
        assert "bad_delta.txt:2" in captured.err
        assert "Traceback" not in captured.err

    def test_out_of_range_delta_exits_two(self, graph_file, tmp_path, capsys):
        bad = tmp_path / "oob_delta.txt"
        bad.write_text("+ 0 99\n")
        code = main(["compute", graph_file, "--delta", str(bad)])
        assert code == 2
        assert "repro-bc: error:" in capsys.readouterr().err


class TestSupervisionFlags:
    def test_compute_flags_parse(self):
        args = build_parser().parse_args(
            ["compute", "g.txt", "--workers", "4", "--timeout", "30",
             "--max-retries", "1", "--no-fallback"]
        )
        assert args.timeout == 30.0
        assert args.max_retries == 1
        assert args.no_fallback

    def test_compute_with_supervised_workers(self, graph_file, capsys):
        code = main(
            ["compute", graph_file, "--workers", "2", "--timeout", "60"]
        )
        assert code == 0
        assert "APGRE BC" in capsys.readouterr().out

    def test_bench_timeout_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_TIMEOUT", raising=False)
        import os

        assert main(["bench", "--list", "--timeout", "90"]) == 0
        assert os.environ.pop("REPRO_BENCH_TIMEOUT") == "90.0"
