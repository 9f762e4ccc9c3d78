"""Divide-and-conquer sharding of the dominant BCC (docs/SHARDING.md).

Four layers of coverage:

* the separator finder: balanced interiors under the size ceiling,
  pairwise non-adjacent interiors, graphs that refuse to split;
* the shard plan + kernel: the per-task sum identity against
  :func:`repro.core.bc_subgraph.bc_subgraph`, shard fingerprints;
* the end-to-end equivalence contract: ``shard=True`` reproduces
  Brandes to 1e-9 across serial / threads / processes / backend
  engines × compressed / cached / journaled / resumed, with exact
  edge-tally identity (replayed == from-scratch traversed, resumed +
  recomputed == from-scratch);
* crash safety: a SIGKILL mid-run commits no partial shard — every
  journal record is a complete shard vector, and resume recomputes
  exactly the missing units.

The shared test graph is a deterministic ring of cliques — one
dominant biconnected component (the shape sharding exists for) plus
pendant 2-paths so the partition also has small sub-graphs, boundary
articulation points and nonzero α/β/γ summaries.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.errors import AlgorithmError, JournalError
from repro.graph.build import from_edges
from repro.journal import scan_log
from repro.shard import (
    bc_subgraph_sharded,
    find_shard_labels,
    shard_key,
    shard_plan,
    shard_task_scores,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Deterministic ring of 4 cliques (K12) joined into one biconnected
# ring, plus a pendant 2-path off each clique.  Inlined into subprocess
# scripts too, so parent and child build fingerprint-identical graphs.
RING_SRC = """
edges = []
for b in range(4):
    off = b * 12
    edges += [(off + i, off + j) for i in range(12) for j in range(i + 1, 12)]
n = 48
for b in range(4):
    edges.append((b * 12, ((b + 1) % 4) * 12 + 6))
for b in range(4):
    edges += [(b * 12 + 1, n), (n, n + 1)]
    n += 2
"""
_ns: dict = {}
exec(RING_SRC, _ns)
RING_EDGES, RING_N = _ns["edges"], _ns["n"]

MAX_SIZE = 16  # splits the 52-vertex top sub-graph into 4 shards


def make_graph():
    return from_edges(RING_EDGES, n=RING_N, directed=False)


@pytest.fixture(scope="module")
def graph():
    return make_graph()


@pytest.fixture(scope="module")
def reference(graph):
    return brandes_bc(graph)


@pytest.fixture(scope="module")
def partition(graph):
    part = graph_partition(graph, threshold=2)
    compute_alpha_beta(graph, part)
    return part


def shard_config(**kw):
    return APGREConfig(
        threshold=2, shard=True, shard_max_size=MAX_SIZE, **kw
    )


# ----------------------------------------------------------------------
# separator finder
# ----------------------------------------------------------------------
class TestSeparator:
    def test_path_graph_splits_balanced(self):
        g = from_edges(
            [(i, i + 1) for i in range(99)], n=100, directed=False
        )
        labels, k = find_shard_labels(g, 20)
        assert k >= 2
        sizes = np.bincount(labels[labels >= 0], minlength=k)
        assert sizes.max() <= 20
        assert sizes.min() >= 1

    def test_interiors_pairwise_non_adjacent(self, graph):
        labels, k = find_shard_labels(graph, MAX_SIZE)
        assert k >= 2
        src, dst = graph.arcs()
        ls, ld = labels[src], labels[dst]
        both_interior = (ls >= 0) & (ld >= 0)
        # every arc between interiors stays within one shard
        assert (ls[both_interior] == ld[both_interior]).all()

    def test_every_vertex_labelled(self, graph):
        labels, k = find_shard_labels(graph, MAX_SIZE)
        assert labels.shape == (graph.n,)
        assert labels.min() >= -1
        assert labels.max() == k - 1
        assert set(np.unique(labels[labels >= 0]).tolist()) == set(
            range(k)
        )

    def test_clique_refuses_to_split(self):
        g = from_edges(
            [(i, j) for i in range(20) for j in range(i + 1, 20)],
            n=20,
            directed=False,
        )
        labels, k = find_shard_labels(g, 8)
        # diameter-1 graphs have no usable level cut
        assert k == 1
        assert (labels == 0).all()


# ----------------------------------------------------------------------
# plan + kernel: the per-task sum identity
# ----------------------------------------------------------------------
class TestPlanAndKernel:
    def test_plan_none_below_threshold(self, partition):
        assert shard_plan(partition.subgraphs[1], max_size=MAX_SIZE) is None

    def test_plan_memoized(self, partition):
        top = partition.subgraphs[0]
        p1 = shard_plan(top, max_size=MAX_SIZE)
        p2 = shard_plan(top, max_size=MAX_SIZE)
        assert p1 is p2 and p1 is not None

    @pytest.mark.parametrize("eliminate", [True, False])
    def test_task_sum_matches_bc_subgraph(self, partition, eliminate):
        top = partition.subgraphs[0]
        plan = shard_plan(top, max_size=MAX_SIZE)
        assert plan is not None and plan.k >= 2
        want = bc_subgraph(top, eliminate_pendants=eliminate)
        total = np.zeros(top.num_vertices)
        for s in range(plan.k):
            total += shard_task_scores(
                top, plan, s, eliminate_pendants=eliminate
            )
        np.testing.assert_allclose(total, want, atol=1e-9)
        np.testing.assert_allclose(
            bc_subgraph_sharded(top, plan, eliminate_pendants=eliminate),
            want,
            atol=1e-9,
        )

    def test_largest_shard_shrinks_critical_path(self, partition):
        top = partition.subgraphs[0]
        plan = shard_plan(top, max_size=MAX_SIZE)
        assert plan.largest_shard < top.num_vertices

    def test_shard_keys_deterministic_and_distinct(self, partition):
        top = partition.subgraphs[0]
        plan = shard_plan(top, max_size=MAX_SIZE)
        keys = [
            shard_key(top, s, max_size=MAX_SIZE) for s in range(plan.k)
        ]
        assert len(set(keys)) == plan.k
        assert keys == [
            shard_key(top, s, max_size=MAX_SIZE) for s in range(plan.k)
        ]
        # the threshold and the pendant mode are part of the identity
        assert shard_key(top, 0, max_size=MAX_SIZE + 1) != keys[0]
        assert (
            shard_key(top, 0, max_size=MAX_SIZE, eliminate_pendants=False)
            != keys[0]
        )


# ----------------------------------------------------------------------
# end-to-end equivalence across execution paths
# ----------------------------------------------------------------------
EXEC_PATHS = {
    "serial": {},
    "compressed": {"compress": True},
    "batched": {"batch_size": 4},
    # workers alone: the host-default engine (threads where scipy imports)
    "threads": {"workers": 2},
    "processes": {"backend": "processes", "workers": 2},
    "backend-threads": {"backend": "threads", "workers": 2},
}


class TestEquivalence:
    @pytest.mark.parametrize("path", sorted(EXEC_PATHS))
    def test_matches_brandes(self, graph, reference, path):
        result = apgre_bc_detailed(graph, shard_config(**EXEC_PATHS[path]))
        np.testing.assert_allclose(result.scores, reference, atol=1e-9)

    def test_no_pendant_elimination(self, graph, reference):
        scores = apgre_bc(
            graph,
            threshold=2,
            shard=True,
            shard_max_size=MAX_SIZE,
            eliminate_pendants=False,
        )
        np.testing.assert_allclose(scores, reference, atol=1e-9)

    def test_convenience_kwargs(self, graph, reference):
        scores = apgre_bc(
            graph, threshold=2, shard=True, shard_max_size=MAX_SIZE
        )
        np.testing.assert_allclose(scores, reference, atol=1e-9)

    def test_stats_populated(self, graph):
        result = apgre_bc_detailed(graph, shard_config())
        stats = result.stats
        assert stats.shards_created >= 2
        assert stats.separator_vertices >= 1
        assert stats.edges_correction > 0
        assert 0.0 < stats.largest_shard_ratio < 1.0
        # an unsharded run keeps the defaults
        plain = apgre_bc_detailed(graph, APGREConfig(threshold=2))
        assert plain.stats.shards_created == 0
        assert plain.stats.largest_shard_ratio == 1.0

    def test_scores_identical_to_unsharded(self, graph):
        sharded = apgre_bc_detailed(graph, shard_config()).scores
        plain = apgre_bc_detailed(graph, APGREConfig(threshold=2)).scores
        np.testing.assert_allclose(sharded, plain, atol=1e-9)


# ----------------------------------------------------------------------
# cache composition: shard units are first-class entries
# ----------------------------------------------------------------------
class TestCacheComposition:
    def test_cold_warm_and_edge_tally_identity(self, graph, reference):
        store = ContributionStore()
        cold = apgre_bc_detailed(graph, shard_config(cache=store))
        warm = apgre_bc_detailed(graph, shard_config(cache=store))
        np.testing.assert_allclose(cold.scores, reference, atol=1e-9)
        np.testing.assert_allclose(warm.scores, reference, atol=1e-9)
        # units dedupe into fewer store entries (the four identical
        # pendant sub-graphs share one) but every unit replays
        assert 0 < len(store) < cold.stats.subgraphs_recomputed
        assert warm.stats.edges_traversed == 0
        assert (
            warm.stats.subgraphs_replayed
            == cold.stats.subgraphs_recomputed
        )
        # the replayed tallies are exactly the cold run's traversal
        assert warm.stats.edges_replayed == cold.stats.edges_traversed

    def test_identical_components_share_shard_entries(self):
        # two structurally identical ring components: units double,
        # store entries do not
        edges = list(RING_EDGES) + [
            (u + RING_N, v + RING_N) for u, v in RING_EDGES
        ]
        g = from_edges(edges, n=2 * RING_N, directed=False)
        ref = brandes_bc(g)
        store = ContributionStore()
        single = ContributionStore()
        apgre_bc_detailed(make_graph(), shard_config(cache=single))
        cold = apgre_bc_detailed(g, shard_config(cache=store))
        np.testing.assert_allclose(cold.scores, ref, atol=1e-9)
        # twice the units, identical content: the second component's
        # shard tasks land on the first component's keys
        assert len(store) == len(single)
        assert cold.stats.subgraphs_recomputed >= 2 * len(store) - 1
        warm = apgre_bc_detailed(g, shard_config(cache=store))
        np.testing.assert_allclose(warm.scores, ref, atol=1e-9)
        assert (
            warm.stats.subgraphs_replayed
            == cold.stats.subgraphs_recomputed
        )
        assert warm.stats.edges_traversed == 0


# ----------------------------------------------------------------------
# journal composition: composite slots, resume, digest back-compat
# ----------------------------------------------------------------------
class TestJournalComposition:
    def test_journal_and_resume(self, tmp_path, graph, reference):
        cold = apgre_bc_detailed(
            graph, shard_config(journal_dir=str(tmp_path))
        )
        np.testing.assert_allclose(cold.scores, reference, atol=1e-9)
        resumed = apgre_bc_detailed(
            graph, shard_config(journal_dir=str(tmp_path), resume=True)
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_recomputed == 0
        assert (
            resumed.stats.subgraphs_resumed
            == cold.stats.subgraphs_recomputed
        )
        assert resumed.stats.edges_resumed == cold.stats.edges_traversed
        assert resumed.stats.edges_traversed == 0

    def test_partial_journal_resumes_missing_units(
        self, tmp_path, graph, reference
    ):
        from repro.journal import decode_line

        cold = apgre_bc_detailed(
            graph, shard_config(journal_dir=str(tmp_path))
        )
        total = cold.stats.subgraphs_recomputed
        # crash stand-in: keep the header + first two commits only
        log = tmp_path / "journal.log"
        kept, contribs = [], 0
        for line in log.read_bytes().splitlines(keepends=True):
            body = decode_line(line)
            if body is None:
                break
            if body.get("type") == "header":
                kept.append(line)
            elif body.get("type") == "contribution" and contribs < 2:
                kept.append(line)
                contribs += 1
        log.write_bytes(b"".join(kept))
        resumed = apgre_bc_detailed(
            graph, shard_config(journal_dir=str(tmp_path), resume=True)
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        assert resumed.stats.subgraphs_recomputed == total - 2
        assert (
            resumed.stats.edges_resumed + resumed.stats.edges_traversed
            == cold.stats.edges_traversed
        )

    def test_sharded_journal_rejects_unsharded_resume(
        self, tmp_path, graph
    ):
        apgre_bc_detailed(graph, shard_config(journal_dir=str(tmp_path)))
        with pytest.raises(JournalError):
            apgre_bc_detailed(
                graph,
                APGREConfig(
                    threshold=2, journal_dir=str(tmp_path), resume=True
                ),
            )

    def test_unsharded_digest_unchanged(self):
        # pre-shard journals must keep their digests (back-compat):
        # shard fields only join the digest when sharding is enabled
        import hashlib

        from repro.journal.journal import _config_digest

        config = APGREConfig(threshold=2)
        legacy = hashlib.blake2b(
            b"threshold=2;alpha_beta_method=auto;eliminate_pendants=True",
            digest_size=16,
        ).hexdigest()
        assert _config_digest(config) == legacy
        assert _config_digest(shard_config()) != legacy


# ----------------------------------------------------------------------
# crash safety: SIGKILL mid-run commits no partial shard
# ----------------------------------------------------------------------
def run_child(script, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
        cwd=str(ROOT),
    )


@pytest.mark.faults
class TestKillMidShard:
    def test_sigkill_mid_run_commits_only_whole_shards(
        self, tmp_path, graph, reference
    ):
        """SIGKILL at the second commit point: the journal holds
        exactly two records, each a complete full-length shard vector
        (never a partially swept one), and resume recomputes exactly
        the missing units."""
        script = f"""
import sys
from repro.graph.build import from_edges
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.parallel.faults import FaultSpec, FaultPlan, install_faults
{RING_SRC}
g = from_edges(edges, n=n, directed=False)
install_faults(FaultPlan([FaultSpec(
    'kill', task=1, target='journal.committed')]))
result = apgre_bc_detailed(g, APGREConfig(
    threshold=2, shard=True, shard_max_size={MAX_SIZE},
    journal_dir={str(tmp_path)!r}))
print("FINISHED", result.stats.subgraphs_recomputed)
"""
        proc = run_child(script)
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "FINISHED" not in proc.stdout

        records, _ = scan_log(tmp_path / "journal.log")
        contribs = [r for r in records if r["type"] == "contribution"]
        assert [r["type"] for r in records[:1]] == ["header"]
        assert len(contribs) == 2
        # no partial shard commit: every journaled vector spans its
        # whole sub-graph (shard tasks produce full-length vectors)
        part = graph_partition(graph, threshold=2)
        sizes = {sg.num_vertices for sg in part.subgraphs}
        for rec in contribs:
            assert rec["n"] in sizes

        cold = apgre_bc_detailed(graph, shard_config())
        resumed = apgre_bc_detailed(
            graph, shard_config(journal_dir=str(tmp_path), resume=True)
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        assert resumed.stats.subgraphs_recomputed > 0
        assert (
            resumed.stats.edges_resumed + resumed.stats.edges_traversed
            == cold.stats.edges_traversed
        )


# ----------------------------------------------------------------------
# configuration and CLI surface
# ----------------------------------------------------------------------
class TestConfigAndCli:
    def test_shard_max_size_floor(self):
        with pytest.raises(AlgorithmError):
            APGREConfig(shard_max_size=15)

    def test_shard_max_size_type(self):
        with pytest.raises(AlgorithmError):
            APGREConfig(shard_max_size=True)
        with pytest.raises(AlgorithmError):
            APGREConfig(shard_max_size="2048")

    def test_cli_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["compute", "g.txt", "--shard", "--shard-max-size", "64"]
        )
        assert args.shard is True
        assert args.shard_max_size == 64

    def test_cli_shard_needs_apgre(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        code = main(
            ["compute", str(path), "--algorithm", "serial", "--shard"]
        )
        assert code == 2

    def test_directed_graph_runs_unsharded(self):
        # directed sub-graphs decline the plan and run whole — the
        # config composes, the scores stay exact
        edges = [(i, (i + 1) % 30) for i in range(30)] + [
            (i, (i + 7) % 30) for i in range(30)
        ]
        g = from_edges(edges, n=30, directed=True)
        ref = brandes_bc(g)
        result = apgre_bc_detailed(
            g, APGREConfig(shard=True, shard_max_size=16)
        )
        np.testing.assert_allclose(result.scores, ref, atol=1e-9)
        assert result.stats.shards_created == 0
