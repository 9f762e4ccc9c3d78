"""Documentation regression tests.

The tutorial's python blocks are executed verbatim so the docs cannot
rot; README/DESIGN/EXPERIMENTS are checked for the structural promises
they make (referenced files exist, module paths resolve).
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestTutorialExecutes:
    def test_all_python_blocks_run(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # tutorial writes /tmp files
        text = (ROOT / "docs" / "TUTORIAL.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert len(blocks) >= 6
        namespace: dict = {}
        for i, block in enumerate(blocks):
            exec(compile(block, f"<tutorial block {i}>", "exec"), namespace)


class TestReadmePromises:
    def test_quickstart_snippet_runs(self):
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"```python\n(.*?)```", text, re.S)
        assert blocks, "README must contain python examples"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, "<readme>", "exec"), namespace)

    def test_referenced_files_exist(self):
        for rel in (
            "DESIGN.md",
            "EXPERIMENTS.md",
            "docs/ALGORITHM.md",
            "docs/API.md",
            "docs/CACHING.md",
            "docs/KERNELS.md",
            "docs/PERFORMANCE.md",
            "docs/ROBUSTNESS.md",
            "docs/SERVING.md",
            "docs/TUTORIAL.md",
            "LICENSE",
            "CONTRIBUTING.md",
            "CHANGELOG.md",
        ):
            assert (ROOT / rel).exists(), rel

    def test_examples_listed_exist(self):
        for name in (
            "quickstart.py",
            "community_detection.py",
            "power_grid_contingency.py",
            "road_network.py",
            "compare_algorithms.py",
            "extensions_tour.py",
            "approximation_tradeoffs.py",
        ):
            assert (ROOT / "examples" / name).exists(), name


class TestRemovedSpellings:
    """``backend=`` is the only engine spelling, the numba and pull
    kernels are gone, and so are the batched four-dependency sweep and
    the shard and compress layers; only the CHANGELOG's migration note
    may name what was removed."""

    REMOVED = re.compile(
        r"\bparallel=|\bparallel_batched\b|--parallel-batched"
        r"|\bfork_map\b|\bthread_map\b|\bnumba\b"
        r"|\baccumulate_four_dependencies_batched\b"
        r"|\bBatchedFourDependencies\b"
        r"|\bshard=|--shard\b|\bshard_max_size\b|repro\.shard\b"
        r"|SHARDING\.md"
        r"|\bedges_pulled\b|\bkernel_switches\b|\bselect_kernel\b"
        r"|\bPULL_ALPHA\b|\bbfs_sigma_batched_pull\b"
        r"|repro\.graph\.kernels\.pull\b|\brow_tallies\b"
        r"|--kernel pull\b|\bkernel=\"pull\""
        r"|repro\.compress\b|--compress\b|compress=True|COMPRESSION\.md"
        r"|compression_plan|bc_subgraph_compressed|compression_ratio"
        r"|vertices_merged|chains_contracted|vertices_peeled"
    )

    def test_docs_name_only_live_surfaces(self):
        docs = [ROOT / "README.md", ROOT / "DESIGN.md",
                ROOT / "CONTRIBUTING.md", *sorted((ROOT / "docs").glob("*.md"))]
        for path in docs:
            found = self.REMOVED.findall(path.read_text())
            assert not found, f"{path.name} names {found}"

    def test_changelog_carries_the_migration(self):
        text = (ROOT / "CHANGELOG.md").read_text()
        assert 'backend="processes"' in text
        assert 'parallel="threads"' in text
        assert 'kernel="pull"' in text
        assert "drop `compress=True`; the default runs the same scores" in text


class TestRobustnessDoc:
    """ROBUSTNESS.md promises a crash-recovery contract; pin the
    structural claims so the doc cannot drift from the code."""

    def text(self):
        return (ROOT / "docs" / "ROBUSTNESS.md").read_text()

    def test_one_ladder_documented(self):
        text = self.text()
        assert "**one ladder**" in text
        assert "_compute_units" in text

    def test_crash_recovery_matrix_present(self):
        text = self.text()
        assert "Crash-recovery matrix" in text
        for row in (
            "torn line",
            "digest mismatch",
            "ENOSPC",
            "final: interrupted",
            "commits are parent-side",
        ):
            assert row in text, row

    def test_named_surfaces_exist(self):
        """Every API surface the doc names must resolve."""
        from repro.core.config import APGREConfig
        from repro.errors import JournalError  # noqa: F401 - named
        from repro.journal import RunJournal, run_fingerprint  # noqa: F401
        from repro.parallel.faults import FaultSpec, fire_disk_faults
        from repro.parallel.sharedmem import (  # noqa: F401 - named
            collect_orphans,
            list_orphans,
        )

        config = APGREConfig()
        for field in ("journal_dir", "resume"):
            assert hasattr(config, field), field
        # the disk-fault targets the doc documents must be accepted
        for target in ("journal.payload", "journal.append",
                       "journal.committed", "cache.disk"):
            FaultSpec("enospc", task=0, target=target)
        assert fire_disk_faults("journal.append") is None  # no plan

    def test_cli_flags_exist(self):
        """--journal-dir/--resume and the gc subcommand must parse."""
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["compute", "g.txt", "--journal-dir", "d", "--resume"]
        )
        assert args.journal_dir == "d" and args.resume is True
        args = parser.parse_args(["gc", "--dry-run", "--shm-dir", "x"])
        assert args.dry_run is True and args.shm_dir == "x"

    def test_stats_identity_fields_exist(self):
        from repro.core.result import APGREStats

        stats = APGREStats()
        for field in ("edges_resumed", "subgraphs_resumed",
                      "edges_replayed", "subgraphs_replayed",
                      "edges_traversed"):
            assert hasattr(stats, field), field


class TestKernelsDoc:
    """KERNELS.md promises a kernel-dispatch contract; pin the
    structural claims so the doc cannot drift from the code."""

    def text(self):
        return (ROOT / "docs" / "KERNELS.md").read_text()

    def test_structural_claims_present(self):
        text = self.text()
        for claim in (
            "Composition matrix",
            "Why `pull` was deleted",
            "`WorkCounter.examined` equals `edges`",
            "REPRO_KERNEL",
            "selects an unavailable kernel",
        ):
            assert claim in text, claim

    def test_named_surfaces_exist(self):
        """Every API surface the doc names must resolve."""
        from repro.graph.kernels import (  # noqa: F401 - named in doc
            KERNEL_ENV_VAR,
            KernelFeatures,
            default_kernel_name,
            kernel_names,
            kernel_report,
            register_kernel,
            resolve_kernel_name,
        )
        from repro.core.config import APGREConfig

        assert KERNEL_ENV_VAR == "REPRO_KERNEL"
        assert set(kernel_names()) == {"arcs", "spmm"}
        assert APGREConfig(kernel="auto").kernel == "auto"

    def test_cli_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["compute", "g.txt", "--kernel", "arcs"]
        )
        assert args.kernel == "arcs"

    def test_stats_carry_one_examined_count(self):
        from repro.baselines.common import WorkCounter

        counter = WorkCounter()
        counter.add(3)
        assert counter.examined == counter.edges == 3

    def test_provenance_records_kernels(self):
        from repro.bench.persistence import environment_provenance

        info = environment_provenance()
        assert "arcs" in info["kernels_available"]
        assert info["kernel_default"] in info["kernels_available"]


class TestBatchSizeDocs:
    """The docs describe ``batch_size="auto"`` as the default, sized
    to a fixed working set; pin those claims to the code."""

    def test_structural_claims_present(self):
        claims = {
            "docs/PERFORMANCE.md": ("AUTO_WORKSET_BYTES", "AUTO_MIN_BATCH"),
            "docs/ALGORITHM.md": (
                "AUTO_WORKSET_BYTES", "the `APGREConfig` default",
            ),
            "docs/API.md": ('`batch_size` defaults to `"auto"`',),
            "docs/KERNELS.md": ("`kernel=` with `batch_size=None`",),
            "EXPERIMENTS.md": ("`batch_size=None`, its per-source kernel",),
        }
        for rel, needles in claims.items():
            text = (ROOT / rel).read_text()
            for claim in needles:
                assert claim in text, (rel, claim)
        text = (ROOT / "docs" / "ALGORITHM.md").read_text()
        assert "matters more than the RAM bound" not in text

    def test_named_surfaces_exist(self, capsys):
        from repro.cli import build_parser
        from repro.graph.batched import AUTO_MIN_BATCH, AUTO_WORKSET_BYTES

        assert AUTO_WORKSET_BYTES == 4 << 20
        assert AUTO_MIN_BATCH == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compute", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "'auto', APGRE's default, sizes batches to a ~4 MiB" in help_text


class TestServingDoc:
    """SERVING.md promises the daemon's protocol and versioning
    contract; pin the structural claims so the doc cannot drift."""

    def text(self):
        return (ROOT / "docs" / "SERVING.md").read_text()

    def test_structural_claims_present(self):
        text = self.text()
        for claim in (
            "Composition matrix",
            "versioned immutable",
            "single\n  committed version",
            "(graph version, config fingerprint)",
            "Connection: close",
            "exits **0**",
            "bit-identical",
            "`/healthz`",
            "`/stats`",
            "`/delta`",
            "--lru-entries",
            "--lru-bytes",
        ):
            assert claim in text, claim

    def test_named_surfaces_exist(self):
        """Every API surface the doc names must resolve."""
        from repro.serve import (  # noqa: F401 - named in the doc
            RequestParams,
            ScoreLRU,
            ServeClient,
            SnapshotManager,
            build_config,
            config_fingerprint,
            make_server,
            parse_delta_body,
        )
        from repro.cache.incremental import (  # noqa: F401
            apgre_bc_delta,
            apply_edge_delta,
            parse_delta_lines,
        )
        from repro.core.config import APGREConfig

        # supervision budgets must stay outside the fingerprint
        assert config_fingerprint(
            APGREConfig(timeout=9.0, max_retries=0)
        ) == config_fingerprint(APGREConfig())

    def test_cli_flags_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "g.txt", "--port", "9000",
             "--lru-entries", "8", "--lru-bytes", "1000000"]
        )
        assert args.port == 9000
        assert args.lru_entries == 8 and args.lru_bytes == 1000000
        args = parser.parse_args(
            ["query", "bc", "--unix-socket", "s.sock", "--top", "5"]
        )
        assert args.unix_socket == "s.sock" and args.top == 5
        args = parser.parse_args(["info", "g.txt", "--json"])
        assert args.as_json is True

    def test_store_stats_surface_exists(self):
        from repro.cache.store import ContributionStore

        stats = ContributionStore().stats()
        for key in ("hits", "misses", "puts", "evictions",
                    "entries_in_memory", "bytes_in_memory"):
            assert key in stats, key


class TestDesignModuleMap:
    DOCS = ("README.md", "DESIGN.md", "CONTRIBUTING.md", "EXPERIMENTS.md")

    def test_module_paths_resolve(self):
        """Every backticked `repro.x.y` path in the prose docs must name
        live code (the docs are the map; stale entries mislead): its
        longest importable module prefix, down to `repro` itself,
        imports and the rest of the path resolves as attributes."""
        docs = [ROOT / name for name in self.DOCS]
        docs += sorted((ROOT / "docs").glob("*.md"))
        paths = set()
        for doc in docs:
            paths |= set(re.findall(r"`(repro(?:\.\w+)+)`", doc.read_text()))
        assert paths
        for dotted in sorted(paths):
            parts = dotted.split(".")
            for k in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:k]))
                    break
                except ImportError:
                    continue
            for attr in parts[k:]:
                assert hasattr(obj, attr), dotted
                obj = getattr(obj, attr)


class TestWeightedSweepDocs:
    """APGRE's batched sub-graph step is one weighted sweep that every
    registered kernel runs, ``spmm`` by default; pin the docs to it."""

    def test_structural_claims_present(self):
        claims = {
            "docs/ALGORITHM.md": (
                "**One weighted sweep.**",
                "`δ_o2o = β(s)·δ_i2o`",
                "arXiv:1209.6007",
                "**self term**",
                "**Why APGRE runs every kernel.**",
            ),
            "docs/KERNELS.md": (
                "each name runs its own kernel",
                "3. the host default, `default_kernel_name()`",
                "`\"auto\"` is the host default under another name",
            ),
            "docs/API.md": ("`sweep_weights(sg, gamma)` → `SweepWeights`",),
        }
        for rel, needles in claims.items():
            text = (ROOT / rel).read_text()
            for claim in needles:
                assert claim in text, (rel, claim)
        kernels = (ROOT / "docs" / "KERNELS.md").read_text()
        assert "which `spmm` does not produce" not in kernels
        readme = " ".join((ROOT / "README.md").read_text().split())
        assert "scipy `spmm` (the default when scipy's extension loads)" in readme

    def test_docstrings_describe_the_fold(self):
        from repro.core import batched_subgraph
        from repro.core.config import APGREConfig

        assert "δ_o2o = β(s)·δ_i2o" in batched_subgraph.__doc__
        doc = " ".join(APGREConfig.__doc__.split())
        assert "then the host default" in doc
        assert "which APGRE's sub-graph sweep runs by default" in doc

    def test_named_surfaces_exist(self):
        import inspect

        from repro.core import batched_subgraph
        from repro.graph.batched import (  # noqa: F401 - named in docs
            SweepWeights,
            batched_bc_scores,
            merge_rows,
        )
        from repro.graph.kernels import get_kernel, kernel_names

        assert batched_subgraph.__all__ == [
            "bc_bundle", "bc_subgraph_batched", "sweep_weights"
        ]
        assert "weights" in inspect.signature(batched_bc_scores).parameters
        for name in kernel_names():
            kernel = get_kernel(name)
            params = inspect.signature(kernel.contributions).parameters
            assert "weights" in params, name
            assert "row_edges" in params, name

    def test_changelog_carries_the_note(self):
        text = " ".join((ROOT / "CHANGELOG.md").read_text().split())
        for claim in (
            "Kernel names now take effect inside APGRE",
            "`accumulate_four_dependencies_batched`",
            "`BatchedFourDependencies`",
            "never imports the `scipy.sparse` package",
        ):
            assert claim in text, claim


class TestAlphaBetaDocs:
    """The sub-graph-tree α/β DP covers directed graphs and is what
    ``"auto"`` picks everywhere; no doc may still call it
    undirected-only."""

    STALE = re.compile(
        r"undirected tree-DP fast path|DP for undirected graphs"
        r"|tree DP on undirected graphs|undirected only\) or"
        r"|tree when undirected"
    )

    def test_docs_describe_one_dp(self):
        from repro.core.config import APGREConfig
        from repro.decompose import alphabeta

        docs = [ROOT / "README.md", ROOT / "DESIGN.md",
                ROOT / "EXPERIMENTS.md", *sorted((ROOT / "docs").glob("*.md"))]
        texts = {p.name: p.read_text() for p in docs}
        texts["APGREConfig"] = APGREConfig.__doc__
        texts["alphabeta"] = alphabeta.__doc__
        for name, text in texts.items():
            found = self.STALE.findall(text)
            assert not found, f"{name} names {found}"
        assert "always tree" in APGREConfig.__doc__
        assert "D_j(a)" in texts["ALGORITHM.md"]

    def test_changelog_carries_the_note(self):
        text = (ROOT / "CHANGELOG.md").read_text()
        assert '`compute_alpha_beta(method="tree")` accepts directed' in text
        assert 'picks `"tree"` for every' in text
