"""Tests for the structural compression layer (repro.compress).

Acceptance guards of the compression PR:

* the compressed kernel matches the plain kernel (and Brandes) to
  1e-9 on randomized graphs across every suite analogue family and
  every execution path (serial / batched / pooled / cached);
* per-rule tallies satisfy the exact-inversion identity
  ``peeled + merged + chain_interiors == n - n_core``;
* compression composes with the contribution cache (twin-identical
  components share one store entry) and with fault injection (a
  worker killed mid-batch still yields 1e-9-correct scores);
* the shared ``two_core`` peel and the memoized ``to_undirected``
  satellite helpers behave as documented.
"""

import numpy as np
import pytest

import networkx as nx

from repro.baselines.brandes import brandes_bc
from repro.cache import ContributionStore, subgraph_key
from repro.compress import (
    STATUS_CHAIN,
    STATUS_CORE,
    STATUS_PEELED,
    STATUS_TWIN,
    SubgraphPlan,
    bc_subgraph_compressed,
    build_plan,
    compression_plan,
)
from repro.compress.plan import TWIN_CLOSED, TWIN_OPEN
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.generators import suite
from repro.graph.build import from_edges, from_networkx
from repro.graph.csr import CSRGraph
from repro.graph.kcore import TwoCoreResult, two_core
from repro.graph.ops import to_undirected
from repro.parallel.faults import FaultSpec, injected_faults

TOL = dict(rtol=1e-9, atol=1e-9)


def _random_compressible(rng, n, m, twins=2, chains=2, pendants=3):
    """A random core with grafted twin bundles, chains and pendants."""
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    es, ed = list(src), list(dst)
    nn = n
    for _ in range(twins):
        nbrs = np.unique(rng.integers(0, n, size=3)).tolist()
        for _ in range(int(rng.integers(2, 4))):
            for b in nbrs:
                es.append(nn)
                ed.append(b)
            nn += 1
    for _ in range(chains):
        a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
        prev = a
        for _ in range(int(rng.integers(2, 5))):
            es.append(prev)
            ed.append(nn)
            prev = nn
            nn += 1
        es.append(prev)
        ed.append(b)
    for _ in range(pendants):
        es.append(int(rng.integers(0, nn)))
        ed.append(nn)
        nn += 1
    return CSRGraph.from_arcs(nn, es, ed, directed=False)


def _partition_with_summaries(g):
    part = graph_partition(g)
    compute_alpha_beta(g, part)
    return part


# ---------------------------------------------------------------------------
# satellite: the shared two_core peel
# ---------------------------------------------------------------------------
class TestTwoCore:
    def test_path_peels_to_one_survivor(self):
        # an acyclic component folds down to a single degree-0 survivor
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], n=5)
        res = two_core(g)
        assert isinstance(res, TwoCoreResult)
        assert res.core_mask.sum() == 1
        assert res.peel_order.size == 4
        survivor = int(np.flatnonzero(res.core_mask)[0])
        assert res.peel_parent[survivor] == -1

    def test_cycle_with_tail(self):
        # triangle 0-1-2 with tail 2-3-4
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], n=5)
        res = two_core(g)
        assert res.core_mask.tolist() == [True, True, True, False, False]
        # 4 peels first (into 3), then 3 (into 2)
        assert res.peel_order.tolist() == [4, 3]
        assert res.peel_parent[4] == 3
        assert res.peel_parent[3] == 2

    def test_parent_order_children_before_parents(self):
        g = from_networkx(nx.balanced_tree(2, 3))
        res = two_core(g)
        seen = set()
        for v in res.peel_order.tolist():
            p = int(res.peel_parent[v])
            assert p not in seen  # parent peels after its children
            seen.add(v)

    def test_eligible_mask_restricts_peel(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], n=5)
        eligible = np.array([False, False, False, False, True])
        res = two_core(g, eligible=eligible)
        assert res.peel_order.tolist() == [4]
        assert res.core_mask.sum() == 4

    def test_k2_one_survivor(self):
        g = from_edges([(0, 1)], n=2)
        res = two_core(g)
        assert res.peel_order.size == 1
        # exactly one endpoint survives as the other's parent
        v = int(res.peel_order[0])
        assert res.peel_parent[v] == 1 - v
        assert res.core_mask.sum() == 1

    def test_matches_networkx_two_core(self):
        nxg = nx.gnm_random_graph(40, 48, seed=7)
        g = from_networkx(nxg)
        res = two_core(g)
        core = set(nx.k_core(nxg, 2).nodes)
        survivors = set(np.flatnonzero(res.core_mask).tolist())
        # every true 2-core vertex survives…
        assert core <= survivors
        # …and each extra survivor is the lone degree-0 remnant of an
        # acyclic component (nx drops those, the peel keeps one anchor)
        for comp in nx.connected_components(nxg):
            sub = nxg.subgraph(comp)
            extra = (comp & survivors) - core
            if sub.number_of_edges() >= sub.number_of_nodes():
                assert not extra  # has a cycle: exact agreement
            else:
                assert len(extra) == 1


# ---------------------------------------------------------------------------
# satellite: memoized undirected shadow
# ---------------------------------------------------------------------------
class TestToUndirectedMemo:
    def test_undirected_identity(self):
        g = from_edges([(0, 1), (1, 2)], n=3)
        assert to_undirected(g) is g

    def test_directed_shadow_memoized(self):
        g = from_edges([(0, 1), (1, 2), (2, 3)], directed=True, n=4)
        first = to_undirected(g)
        assert first is not g
        assert first is to_undirected(g)
        assert not first.directed

    def test_cache_evicts_on_collection(self):
        import gc

        from repro.graph.ops import _UNDIRECTED_CACHE

        g = from_edges([(0, 1), (1, 2)], directed=True, n=3)
        to_undirected(g)
        key = id(g)
        assert key in _UNDIRECTED_CACHE
        del g
        gc.collect()
        assert key not in _UNDIRECTED_CACHE


# ---------------------------------------------------------------------------
# the reduction ladder
# ---------------------------------------------------------------------------
class TestLadder:
    def test_type1_twins_merge(self):
        # 0-1 edge; 2,3,4 all adjacent to both 0 and 1 (open twins)
        g = from_edges(
            [(0, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)], n=5
        )
        part = _partition_with_summaries(g)
        plan = build_plan(part.subgraphs[0])
        # round 1 merges the open twins {2,3,4}; that exposes 0 and 1
        # as closed twins, which round 2 merges — fixpoint finds both
        twins = np.flatnonzero(plan.status == STATUS_TWIN)
        assert sorted(twins.tolist()) == [1, 3, 4]
        kinds = {tc.rep: tc.kind for tc in plan.twin_classes}
        assert kinds == {2: TWIN_OPEN, 0: TWIN_CLOSED}
        open_tc = next(t for t in plan.twin_classes if t.kind == TWIN_OPEN)
        assert sorted(open_tc.members.tolist()) == [2, 3, 4]
        assert plan.mult[2] == 3
        assert plan.mult[0] == 2

    def test_type2_twins_merge(self):
        g = from_networkx(nx.complete_graph(5))
        part = _partition_with_summaries(g)
        plan = build_plan(part.subgraphs[0])
        # a clique is one closed twin class collapsed to a point
        assert plan.n_core == 1
        assert plan.twin_classes[0].kind == TWIN_CLOSED
        assert plan.mult[plan.twin_classes[0].rep] == 5

    def test_chain_contracts_with_length(self):
        # hubs 0,1 each anchored by a triangle (bridged 6-8 so the
        # whole thing is one biconnected component) and joined by a
        # 4-interior chain; the triangles are asymmetric enough that
        # no twin rule fires and the hubs keep degree >= 3
        g = from_edges(
            [(0, 6), (0, 7), (6, 7), (1, 8), (1, 9), (8, 9), (6, 8),
             (0, 2), (2, 3), (3, 4), (4, 5), (5, 1)],
            n=10,
        )
        part = _partition_with_summaries(g)
        plan = build_plan(part.subgraphs[0])
        chain_members = np.flatnonzero(plan.status == STATUS_CHAIN)
        assert sorted(chain_members.tolist()) == [2, 3, 4, 5]
        (ch,) = plan.chains
        assert {ch.u, ch.v} == {0, 1}
        assert ch.length == 5
        assert plan.has_lengths
        # super-edge arcs carry the integer length in both orientations
        assert plan.arc_lengths[ch.arc_uv] == 5
        assert plan.arc_lengths[ch.arc_vu] == 5

    def test_parallel_super_edge_skipped(self):
        # two chains of different lengths between triangle-anchored
        # hubs 0 and 1: whichever chain contracts first takes the
        # (0,1) slot, the other would create a parallel super-edge
        # and must stay uncontracted (the CSR is simple)
        g = from_edges(
            [(0, 5), (0, 6), (5, 6), (1, 7), (1, 8), (7, 8), (5, 7),
             (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)],
            n=9,
        )
        part = _partition_with_summaries(g)
        plan = build_plan(part.subgraphs[0])
        assert len(plan.chains) == 1
        # the loser's interiors survive as core vertices, and the
        # compressed kernel is still exact on the mixed graph
        sg = part.subgraphs[0]
        np.testing.assert_allclose(
            bc_subgraph_compressed(sg), bc_subgraph(sg), **TOL
        )

    def test_directed_gets_trivial_plan(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 0)], directed=True, n=4)
        part = _partition_with_summaries(g)
        plan = build_plan(part.subgraphs[0])
        assert isinstance(plan, SubgraphPlan)
        assert not plan.nontrivial
        assert (plan.status == STATUS_CORE).all()

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tallies_identity_randomized(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_compressible(rng, 20, 40)
        part = _partition_with_summaries(g)
        for sg in part.subgraphs:
            for ep in (True, False):
                plan = build_plan(sg, eliminate_pendants=ep)
                assert (
                    plan.vertices_peeled
                    + plan.vertices_merged
                    + plan.chain_interiors
                    == plan.n - plan.n_core
                )

    def test_plan_memoized_per_flag(self):
        g = from_networkx(nx.complete_graph(4))
        part = _partition_with_summaries(g)
        sg = part.subgraphs[0]
        assert compression_plan(sg) is compression_plan(sg)
        assert compression_plan(sg) is not compression_plan(
            sg, eliminate_pendants=False
        )


# ---------------------------------------------------------------------------
# kernel equivalence: compressed vs plain, randomized
# ---------------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_plain_kernel(self, seed):
        rng = np.random.default_rng(seed)
        g = _random_compressible(
            rng,
            int(rng.integers(8, 25)),
            int(rng.integers(15, 50)),
            twins=int(rng.integers(0, 3)),
            chains=int(rng.integers(0, 3)),
            pendants=int(rng.integers(0, 4)),
        )
        part = _partition_with_summaries(g)
        for ep in (True, False):
            for sg in part.subgraphs:
                ref = bc_subgraph(sg, eliminate_pendants=ep)
                got = bc_subgraph_compressed(sg, eliminate_pendants=ep)
                np.testing.assert_allclose(got, ref, **TOL)

    def test_root_chunks_sum_to_whole(self):
        rng = np.random.default_rng(42)
        g = _random_compressible(rng, 15, 30)
        part = _partition_with_summaries(g)
        for sg in part.subgraphs:
            plan = compression_plan(sg)
            whole = bc_subgraph_compressed(sg, plan)
            acc = np.zeros(sg.graph.n)
            perm = rng.permutation(sg.roots.size)
            for chunk in np.array_split(sg.roots[perm], 3):
                acc += bc_subgraph_compressed(sg, plan, roots=chunk)
            np.testing.assert_allclose(acc, whole, **TOL)

    def test_compress_flag_on_plain_kernels(self):
        rng = np.random.default_rng(5)
        g = _random_compressible(rng, 12, 25)
        part = _partition_with_summaries(g)
        for sg in part.subgraphs:
            ref = bc_subgraph(sg)
            np.testing.assert_allclose(
                bc_subgraph(sg, compress=True), ref, **TOL
            )
            np.testing.assert_allclose(
                bc_subgraph(sg, compress=True, batch_size="auto"), ref, **TOL
            )


# ---------------------------------------------------------------------------
# end-to-end equivalence across suite families and execution paths
# ---------------------------------------------------------------------------
def _analogue(name, seed=11):
    for scale in (0.06, 0.12, 0.25):
        try:
            return suite.analogue_graph(name, scale=scale, seed=seed)
        except Exception:
            continue
    raise RuntimeError(f"no workable scale for {name}")


class TestSuiteEquivalence:
    @pytest.mark.parametrize("name", suite.suite_names())
    def test_serial_and_batched(self, name):
        g = _analogue(name)
        ref = brandes_bc(g)
        got = apgre_bc(g, compress=True)
        np.testing.assert_allclose(got, ref, **TOL)
        got_b = apgre_bc(g, compress=True, batch_size="auto")
        np.testing.assert_allclose(got_b, ref, **TOL)

    @pytest.mark.parametrize("name", ["Email-Enron", "USA-roadNY"])
    def test_pooled(self, name):
        g = _analogue(name)
        ref = brandes_bc(g)
        res = apgre_bc_detailed(
            g,
            APGREConfig(
                compress=True,
                backend="processes",
                workers=2,
            ),
        )
        np.testing.assert_allclose(res.scores, ref, **TOL)

    @pytest.mark.parametrize("name", ["Email-Enron", "USA-roadNY"])
    def test_cached(self, name, tmp_path):
        g = _analogue(name)
        ref = brandes_bc(g)
        store = ContributionStore(cache_dir=str(tmp_path))
        cold = apgre_bc_detailed(g, APGREConfig(compress=True, cache=store))
        warm = apgre_bc_detailed(g, APGREConfig(compress=True, cache=store))
        np.testing.assert_allclose(cold.scores, ref, **TOL)
        np.testing.assert_allclose(warm.scores, ref, **TOL)
        assert warm.stats.subgraphs_recomputed == 0
        assert warm.stats.subgraphs_replayed == warm.stats.num_subgraphs

    def test_eliminate_pendants_off(self):
        g = _analogue("com-youtube")
        ref = brandes_bc(g)
        got = apgre_bc(g, compress=True, eliminate_pendants=False)
        np.testing.assert_allclose(got, ref, **TOL)


# ---------------------------------------------------------------------------
# stats plumbing
# ---------------------------------------------------------------------------
class TestStats:
    def test_compression_counters(self):
        rng = np.random.default_rng(9)
        g = _random_compressible(rng, 20, 40, twins=3, chains=3, pendants=5)
        res = apgre_bc_detailed(g, APGREConfig(compress=True))
        s = res.stats
        assert s.vertices_merged > 0 or s.chains_contracted > 0
        assert s.compression_ratio > 1.0
        # the identity aggregates over sub-graphs
        part = _partition_with_summaries(g)
        plans = [compression_plan(sg) for sg in part.subgraphs]
        assert s.vertices_merged == sum(p.vertices_merged for p in plans)
        assert s.chains_contracted == sum(p.chain_interiors for p in plans)
        assert s.vertices_peeled == sum(p.vertices_peeled for p in plans)

    def test_counters_default_without_compress(self):
        g = from_networkx(nx.complete_graph(5))
        res = apgre_bc_detailed(g)
        assert res.stats.vertices_merged == 0
        assert res.stats.compression_ratio == 1.0

    def test_compressed_run_examines_fewer_edges(self):
        # a chain/twin/pendant-heavy graph must traverse strictly less
        rng = np.random.default_rng(13)
        g = _random_compressible(rng, 25, 50, twins=4, chains=4, pendants=8)
        plain = apgre_bc_detailed(g)
        comp = apgre_bc_detailed(g, APGREConfig(compress=True))
        np.testing.assert_allclose(comp.scores, plain.scores, **TOL)
        assert comp.stats.edges_traversed < plain.stats.edges_traversed


# ---------------------------------------------------------------------------
# cache composition: twin-identical components share one entry
# ---------------------------------------------------------------------------
class TestCacheSharing:
    # the partition's small-BCC merge (threshold 8) absorbs size-2
    # bridge blocks into the TOP group only, so the fixture hangs two
    # 8-vertex twin gadgets symmetrically off a denser K7 centre: the
    # centre is the top, eats both bridges, and the gadget sub-graphs
    # come out byte-identical in local coordinates
    def _two_identical_components(self):
        gadget = [(0, 1)] + [(t, h) for t in range(2, 8) for h in (0, 1)]
        edges = list(gadget)
        edges += [(u + 8, v + 8) for u, v in gadget]
        edges += [
            (i, j) for i in range(16, 23) for j in range(i + 1, 23)
        ]  # K7 centre
        edges += [(0, 16), (8, 17)]
        return from_edges(edges, n=23)

    def test_twin_identical_components_share_key(self):
        g = self._two_identical_components()
        part = _partition_with_summaries(g)
        big = [sg for sg in part.subgraphs if sg.num_vertices == 8]
        assert len(big) == 2
        k0 = subgraph_key(big[0], compress=True)
        k1 = subgraph_key(big[1], compress=True)
        assert k0 == k1
        # and the compressed domain differs from the raw-CSR domain
        assert k0 != subgraph_key(big[0], compress=False)

    def test_components_hit_same_store_entry(self):
        g = self._two_identical_components()
        ref = brandes_bc(g)
        store = ContributionStore()
        res = apgre_bc_detailed(
            g, APGREConfig(compress=True, cache=store)
        )
        np.testing.assert_allclose(res.scores, ref, **TOL)
        part = _partition_with_summaries(g)
        keys = {
            subgraph_key(sg, compress=True)
            for sg in part.subgraphs
            if sg.num_vertices == 8
        }
        assert len(keys) == 1  # one entry serves both components
        warm = apgre_bc_detailed(
            g, APGREConfig(compress=True, cache=store)
        )
        np.testing.assert_allclose(warm.scores, ref, **TOL)
        assert warm.stats.subgraphs_replayed == warm.stats.num_subgraphs


# ---------------------------------------------------------------------------
# CLI wiring
# ---------------------------------------------------------------------------
class TestCLI:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.io import write_edgelist

        rng = np.random.default_rng(3)
        g = _random_compressible(rng, 10, 20)
        path = tmp_path / "g.txt"
        write_edgelist(g, path)
        return str(path), g

    def test_compress_flag_computes(self, graph_file, capsys):
        from repro.cli import main

        path, g = graph_file
        assert main(["compute", path, "--compress"]) == 0
        out = capsys.readouterr().out
        assert "APGRE BC" in out

    def test_compress_requires_apgre(self, graph_file, capsys):
        from repro.cli import main

        path, _ = graph_file
        assert main(
            ["compute", path, "--algorithm", "serial", "--compress"]
        ) == 2

    def test_compress_matches_plain_output(self, graph_file, capsys):
        from repro.cli import main

        path, _ = graph_file
        main(["compute", path, "--top", "5"])
        plain = capsys.readouterr().out.splitlines()[2:]
        main(["compute", path, "--compress", "--top", "5"])
        comp = capsys.readouterr().out.splitlines()[2:]
        assert plain == comp


# ---------------------------------------------------------------------------
# fault composition: kill mid-batch, still exact
# ---------------------------------------------------------------------------
@pytest.mark.faults
class TestFaultComposition:
    def test_kill_mid_batch_still_exact(self):
        g = _analogue("Email-Enron")
        ref = brandes_bc(g)
        with injected_faults(FaultSpec("kill", task=0)):
            res = apgre_bc_detailed(
                g,
                APGREConfig(
                    compress=True,
                    backend="processes",
                    workers=2,
                ),
            )
        np.testing.assert_allclose(res.scores, ref, **TOL)
        assert res.health.worker_crashes == 1

    def test_kill_exhausting_retries_degrades_exact(self):
        g = _analogue("USA-roadNY")
        ref = brandes_bc(g)
        specs = [
            FaultSpec("kill", task=t, attempts=tuple(range(16)))
            for t in range(4)
        ]
        with injected_faults(*specs):
            res = apgre_bc_detailed(
                g,
                APGREConfig(
                    compress=True,
                    backend="processes",
                    workers=2,
                    max_retries=1,
                ),
            )
        np.testing.assert_allclose(res.scores, ref, **TOL)
