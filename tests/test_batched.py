"""Tests for the batched multi-source kernels.

The contract under test: batching only regroups work.  Per-row
``dist``/``sigma`` are *bit-identical* to :func:`bfs_sigma`, BC scores
match the per-source path within float64 summation tolerance, and the
examined-edge tally (the MTEPS denominator) is exactly the serial one.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc, brandes_python_bc
from repro.baselines.common import WorkCounter, run_per_source
from repro.baselines.registry import get_algorithm
from repro.core.apgre import apgre_bc
from repro.core.batched_subgraph import bc_bundle, bc_subgraph_batched
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError
from repro.generators.suite import analogue_graph, paper_suite
from repro.graph import batched
from repro.graph.batched import (
    AUTO_DENSE_WORKSET_BYTES,
    AUTO_MIN_BATCH,
    AUTO_WORKSET_BYTES,
    DEFAULT_MAX_BATCH,
    auto_batch_size,
    batched_contributions,
    bfs_sigma_batched,
    dense_row_bytes,
    resolve_batch_size,
)
from repro.graph.build import from_edges
from repro.graph.kernels import (
    _FEATURE_CACHE,
    SPMM_LEVEL_MARGIN,
    get_kernel,
    kernel_features,
    kernel_names,
    resolve_kernel_batch,
    spmm_layout,
)
from repro.graph.traversal import bfs_sigma

from tests.conftest import nx_betweenness

#: every kernel this host can run (spmm needs scipy's extension)
KERNELS = [k for k in kernel_names() if get_kernel(k).available()]


class TestBfsSigmaBatched:
    def test_rows_match_serial_bfs(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        sources = sorted({0, g.n // 3, g.n // 2, g.n - 1})
        res = bfs_sigma_batched(g, sources, keep_level_arcs=True)
        serial_edges = 0
        for row, s in enumerate(sources):
            ref = bfs_sigma(g, s, keep_level_arcs=True)
            serial_edges += ref.edges_traversed
            assert np.array_equal(res.dist[row], ref.dist)
            assert np.array_equal(res.sigma[row], ref.sigma)
        assert res.edges_traversed == serial_edges

    def test_level_arcs_match_serial(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        n = g.n
        sources = sorted({0, n - 1})
        res = bfs_sigma_batched(g, sources, keep_level_arcs=True)
        for row, s in enumerate(sources):
            ref = bfs_sigma(g, s, keep_level_arcs=True)
            for d, (ref_src, ref_dst) in enumerate(ref.level_arcs or []):
                if d < len(res.level_arcs):
                    b_src, b_dst = res.level_arcs[d]
                    mask = b_src // n == row
                    got = set(
                        zip(
                            (b_src[mask] % n).tolist(),
                            (b_dst[mask] % n).tolist(),
                        )
                    )
                else:
                    got = set()
                assert got == set(zip(ref_src.tolist(), ref_dst.tolist()))

    def test_single_source_batch(self, und_random):
        res = bfs_sigma_batched(und_random, [5])
        ref = bfs_sigma(und_random, 5)
        assert np.array_equal(res.dist[0], ref.dist)
        assert np.array_equal(res.sigma[0], ref.sigma)
        assert res.edges_traversed == ref.edges_traversed
        assert res.batch == 1
        assert res.depth == ref.depth

    def test_empty_batch_rejected(self, und_random):
        with pytest.raises(AlgorithmError):
            bfs_sigma_batched(und_random, [])


class TestBatchSizing:
    def test_auto_respects_memory_budget(self):
        # per row: 44n + 20m bytes; a quarter of available_bytes is
        # budgeted, so 8 rows need 32x the per-row estimate
        n, m = 1000, 4000
        per_row = 44 * n + 20 * m
        assert auto_batch_size(n, m, available_bytes=per_row * 32) == 8

    def test_auto_bounds(self):
        assert auto_batch_size(10, 10, available_bytes=0) == 1
        assert (
            auto_batch_size(10, 10, available_bytes=1 << 60)
            == DEFAULT_MAX_BATCH
        )
        assert auto_batch_size(0, 0) == 1

    def test_resolve(self):
        assert resolve_batch_size(None, 10, 10) is None
        assert resolve_batch_size(7, 10, 10) == 7
        auto = resolve_batch_size("auto", 10, 10)
        assert 1 <= auto <= DEFAULT_MAX_BATCH
        with pytest.raises(AlgorithmError):
            resolve_batch_size(0, 10, 10)
        with pytest.raises(AlgorithmError):
            resolve_batch_size(-3, 10, 10)
        with pytest.raises(AlgorithmError):
            resolve_batch_size("large", 10, 10)
        # numpy integers are widths; bools and fractions are not
        width = resolve_batch_size(np.int64(7), 10, 10)
        assert width == 7 and type(width) is int
        for bad in (True, False, 2.5, 2.7, 3.0, np.float64(4.0)):
            with pytest.raises(AlgorithmError):
                resolve_batch_size(bad, 10, 10)
        with pytest.raises(AlgorithmError):
            brandes_bc(from_edges([(0, 1), (1, 2)]), batch_size=True)

    def test_auto_working_set_pins(self):
        ram = 1 << 34  # the RAM ceiling does not bind
        # road-cold's top sub-graph: 17 rows fill the working set
        assert auto_batch_size(2113, 7282, available_bytes=ram) == 17
        # ... or 41 spmm rows priced by its widest level (177 arcs);
        # a level estimate of m or more is the base model
        assert (
            auto_batch_size(
                2113, 7282, available_bytes=ram,
                level_arcs=SPMM_LEVEL_MARGIN * 177,
            )
            == 41
        )
        for level_arcs in (7282, 10**6):
            assert (
                auto_batch_size(
                    2113, 7282, available_bytes=ram, level_arcs=level_arcs
                )
                == 17
            )
        # the probe finds that level on road-cold's graph
        top = graph_partition(
            analogue_graph("USA-roadBAY", scale=2.0, seed=1)
        ).top.graph
        assert (top.n, top.num_arcs) == (2113, 7282)
        # roots that fit one base-width batch never run the probe
        assert resolve_kernel_batch("auto", top, 17, kernel="spmm") == 17
        assert top not in _FEATURE_CACHE
        assert resolve_kernel_batch("auto", top, 18, kernel="arcs") == 17
        assert top not in _FEATURE_CACHE
        assert resolve_kernel_batch("auto", top, 18, kernel="spmm") == 41
        assert kernel_features(top).peak_level_arcs == 177
        # dense-form rows: web-cold's top 19, the serve graph's 41
        for (n, m), rows in {(2186, 11466): 19, (865, 8658): 41}.items():
            assert AUTO_DENSE_WORKSET_BYTES // dense_row_bytes(n, m) == rows
            assert (
                auto_batch_size(n, m, available_bytes=ram, dense=True)
                == rows
            )
        serve = graph_partition(
            analogue_graph("Email-Enron", scale=2.0, seed=1)
        ).top.graph
        assert (serve.n, serve.num_arcs) == (865, 8658)
        assert resolve_kernel_batch("auto", serve, 19, kernel="spmm") == 19
        assert resolve_kernel_batch("auto", serve, 20, kernel="spmm") == 41
        assert resolve_kernel_batch("auto", serve, 20, kernel="arcs") == 19
        # the 55k-vertex road bench graph sits on the row floor
        assert (
            auto_batch_size(55_375, 199_824, available_bytes=ram)
            == AUTO_MIN_BATCH
        )
        # ... which never overrides the RAM ceiling
        assert auto_batch_size(55_375, 199_824, available_bytes=1 << 20) == 1

    def test_config_validation(self):
        APGREConfig(batch_size=None)
        APGREConfig(batch_size="auto")
        APGREConfig(batch_size=16)
        for bad in (0, -1, "big", 2.5, True):
            with pytest.raises(AlgorithmError):
                APGREConfig(batch_size=bad)
        # the per-source reference runs only in the inline loop
        for engine in (
            {"backend": "serial"},
            {"kernel": "arcs"},
            {"workers": 2},
        ):
            with pytest.raises(AlgorithmError, match="batch_size=None"):
                APGREConfig(batch_size=None, **engine)


class TestBatchedBrandes:
    def test_matches_oracle(self, zoo_entry):
        _name, g, nxg = zoo_entry
        if g.n == 0:
            return
        ref = nx_betweenness(nxg)
        got = brandes_bc(g, batch_size=5)
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_batch_size_invariance(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        base = brandes_bc(g)
        for bs in (1, 3, g.n, "auto"):
            got = brandes_bc(g, batch_size=bs)
            np.testing.assert_allclose(got, base, rtol=1e-9, atol=1e-9)

    def test_edge_tally_identical_to_serial(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        serial, batched = WorkCounter(), WorkCounter()
        brandes_bc(g, counter=serial)
        brandes_bc(g, counter=batched, batch_size=7)
        assert batched.edges == serial.edges

    def test_contributions_match_per_source_sum(self, und_random):
        g = und_random
        sources = [0, 3, 9, 20]
        expected = run_per_source(g, sources=sources, mode="arcs")
        got = batched_contributions(g, sources)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)

    def test_requires_arcs_mode(self, und_random):
        with pytest.raises(AlgorithmError):
            run_per_source(und_random, mode="succs", batch_size=4)
        with pytest.raises(AlgorithmError):
            run_per_source(
                und_random,
                mode="arcs",
                forward=lambda *a, **k: None,
                batch_size=4,
            )

    def test_registry_entry(self, und_random):
        fn = get_algorithm("batched")
        np.testing.assert_allclose(
            fn(und_random), brandes_bc(und_random), rtol=1e-9, atol=1e-9
        )

    def test_workers_compose_with_batching(self, und_random):
        got = brandes_python_bc(und_random)
        batched = run_per_source(
            und_random, mode="arcs", workers=2, batch_size=4
        )
        np.testing.assert_allclose(batched, got, rtol=1e-9, atol=1e-9)


class TestBatchedSubgraph:
    # the kernels loop inside the tests: one id per (graph, mode)
    # covers every kernel the host can run
    @pytest.mark.parametrize("eliminate", [True, False])
    def test_matches_per_source_subgraph(self, zoo_entry, eliminate):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        for sg in partition.subgraphs:
            serial_c = WorkCounter()
            ref = bc_subgraph(
                sg, eliminate_pendants=eliminate, counter=serial_c
            )
            for kernel in KERNELS:
                for bs in (1, 3, "auto"):
                    batched_c = WorkCounter()
                    got = bc_subgraph_batched(
                        sg,
                        eliminate_pendants=eliminate,
                        batch_size=bs,
                        kernel=kernel,
                        counter=batched_c,
                    )
                    np.testing.assert_allclose(
                        got, ref, rtol=1e-9, atol=1e-9, err_msg=kernel
                    )
                    assert batched_c.edges == serial_c.edges, kernel

    @pytest.mark.parametrize(
        "name,scale",
        [("USA-roadBAY", 2.0), ("Email-Enron", 2.0), ("WikiTalk", 6.0)],
        ids=["USA-roadBAY", "Email-Enron", "WikiTalk"],
    )
    def test_auto_batch_stays_in_working_set(self, name, scale):
        g = analogue_graph(name, scale=scale, seed=1)
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        top = partition.top
        roots = top.roots[:128]
        for kernel in [k for k in ("arcs", "spmm") if k in KERNELS]:
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                bc_subgraph_batched(
                    top, batch_size="auto", roots=roots, kernel=kernel
                )
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak <= 2 * AUTO_WORKSET_BYTES, (
                f"{kernel}: {peak / 2**20:.1f} MiB"
            )
            if kernel == "spmm":
                # sized by its widest level or its dense row, spmm fits
                # the working set, counted (the DAG-arc gather) or not
                assert peak <= AUTO_WORKSET_BYTES, (
                    f"{kernel}: {peak / 2**20:.1f} MiB"
                )
                layout = spmm_layout(top.graph, roots.size)
                assert layout == (
                    "sparse" if name == "USA-roadBAY" else "dense"
                )
                tracemalloc.start()
                try:
                    base = tracemalloc.get_traced_memory()[0]
                    bc_subgraph_batched(
                        top, batch_size="auto", roots=roots,
                        kernel=kernel, counter=WorkCounter(),
                    )
                    peak = tracemalloc.get_traced_memory()[1] - base
                finally:
                    tracemalloc.stop()
                assert peak <= AUTO_WORKSET_BYTES, (
                    f"counted {layout} spmm: {peak / 2**20:.1f} MiB"
                )

    @pytest.mark.parametrize("eliminate", [True, False])
    def test_bundle_matches_its_members(self, zoo_entry, eliminate):
        """One block-diagonal sweep gives every member exactly what its
        own batched sweep gives it: scores to 1e-9, tally to the arc."""
        _name, g, _nxg = zoo_entry
        partition = graph_partition(g, threshold=2)
        compute_alpha_beta(g, partition)
        sgs = partition.subgraphs
        if not sgs:
            return
        for kernel in KERNELS:
            local, offsets, tallies = bc_bundle(
                sgs, kernel=kernel, eliminate_pendants=eliminate
            )
            assert offsets.tolist() == np.cumsum(
                [0] + [sg.num_vertices for sg in sgs]
            ).tolist()
            for k, sg in enumerate(sgs):
                counter = WorkCounter()
                alone = bc_subgraph_batched(
                    sg, eliminate_pendants=eliminate, batch_size=1 << 20,
                    kernel=kernel, counter=counter,
                )
                np.testing.assert_allclose(
                    local[offsets[k] : offsets[k + 1]], alone,
                    rtol=1e-9, atol=1e-9, err_msg=kernel,
                )
                assert tallies[k] == counter.examined, kernel

    @pytest.mark.skipif("spmm" not in KERNELS, reason="needs scipy")
    def test_bundle_keeps_the_sparse_form(self, monkeypatch):
        """A bundle's rows each touch one block: even members that
        would take the dense form alone run the sparse one bundled."""
        sgs = []
        for name in ("Email-Enron", "com-youtube"):  # both undirected
            g = analogue_graph(name, scale=1.0, seed=1)
            partition = graph_partition(g)
            compute_alpha_beta(g, partition)
            sgs.append(partition.top)
        for sg in sgs:
            assert spmm_layout(sg.graph, sg.roots.size) == "dense"
        calls = []
        real = batched._spmm_dense

        def spy(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(batched, "_spmm_dense", spy)
        local, offsets, tallies = bc_bundle(sgs, kernel="spmm")
        assert not calls
        for k, sg in enumerate(sgs):
            counter = WorkCounter()
            alone = bc_subgraph_batched(sg, kernel="spmm", counter=counter)
            np.testing.assert_allclose(
                local[offsets[k] : offsets[k + 1]], alone,
                rtol=1e-9, atol=1e-9,
            )
            assert tallies[k] == counter.examined
        assert calls  # alone, each takes the dense form

    def test_bundle_without_roots_commits_zeros(self):
        # two isolated edges: both ends are removable pendants
        g = from_edges([(0, 1), (2, 3)])
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        sgs = partition.subgraphs
        assert [sg.roots.size for sg in sgs] == [0, 0]
        local, offsets, tallies = bc_bundle(sgs, kernel="arcs")
        assert local.tolist() == [0.0] * 4
        assert offsets.tolist() == [0, 2, 4]
        assert tallies.tolist() == [0, 0]

    def test_root_subsets_sum(self, zoo_entry):
        _name, g, _nxg = zoo_entry
        if g.n == 0:
            return
        partition = graph_partition(g)
        compute_alpha_beta(g, partition)
        sg = partition.subgraphs[0]
        roots = sg.roots
        if roots.size < 2:
            return
        whole = bc_subgraph_batched(sg, batch_size=2)
        half = roots.size // 2
        split = bc_subgraph_batched(
            sg, roots=roots[:half], batch_size=2
        ) + bc_subgraph_batched(sg, roots=roots[half:], batch_size=2)
        np.testing.assert_allclose(split, whole, rtol=1e-9, atol=1e-9)


class TestAPGREBatched:
    def test_matches_oracle(self, zoo_entry):
        _name, g, nxg = zoo_entry
        if g.n == 0:
            return
        ref = nx_betweenness(nxg)
        for bs in (4, "auto"):
            got = apgre_bc(g, batch_size=bs)
            np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_processes_mode(self, und_random):
        ref = apgre_bc(und_random)
        got = apgre_bc(
            und_random, backend="processes", workers=2, batch_size=3
        )
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)

    def test_no_elimination_ablation(self, und_random):
        ref = apgre_bc(und_random, eliminate_pendants=False, batch_size=None)
        got = apgre_bc(
            und_random, eliminate_pendants=False, batch_size="auto"
        )
        np.testing.assert_allclose(got, ref, rtol=1e-9, atol=1e-9)


class TestGeneratorSuite:
    """Acceptance sweep: batched vs the pure-Python oracle, all 12
    Table-1 analogues (reduced scale keeps the oracle affordable)."""

    @pytest.mark.timeout(300)
    def test_full_suite_matches_python_oracle(self):
        for name, g in paper_suite(scale=0.2).items():
            ref = brandes_python_bc(g)
            got = brandes_bc(g, batch_size="auto")
            np.testing.assert_allclose(
                got, ref, rtol=1e-9, atol=1e-9,
                err_msg=f"batched kernel diverged on {name}",
            )
