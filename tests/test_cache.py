"""Tests for the BCC-scoped contribution cache (repro.cache).

The acceptance guards of the caching PR live here: a warm store
replays every contribution (zero edges traversed, replay tally equal
to the cold traversal tally), a k <= 8-edge delta recomputes only the
dirty sub-graphs (asserted via the edge-tally identity), and the
incremental scores match a from-scratch run to 1e-9.
"""

import numpy as np
import pytest

import networkx as nx

from repro.baselines.brandes import brandes_bc
from repro.cache import (
    ContributionStore,
    DeltaResult,
    apgre_bc_delta,
    apply_edge_delta,
    graph_fingerprint,
    resolve_store,
    subgraph_key,
)
from repro.cache.incremental import parse_delta_file
from repro.core.apgre import apgre_bc, apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.decompose.partition import graph_partition
from repro.errors import (
    AlgorithmError,
    CacheError,
    GraphFormatError,
    GraphValidationError,
)
from repro.graph.build import from_edges, from_networkx


@pytest.fixture
def bridged_graph():
    """A dominant K7 and a K5 joined by a 3-path (plus one isolate).

    The K7 outweighs everything else, so the top sub-graph never flips
    under small deltas — which keeps sub-graph deltas *local* (see
    ``test_localized_delta_recomputes_only_dirty``).
    """
    g = nx.complete_graph(7)
    g.update(
        nx.relabel_nodes(nx.complete_graph(5), {i: 10 + i for i in range(5)})
    )
    g.add_edges_from([(6, 7), (7, 8), (8, 10)])
    return from_networkx(g, n=15)


@pytest.fixture
def random_graph():
    return from_networkx(nx.gnm_random_graph(48, 110, seed=9), n=48)


class TestFingerprint:
    def test_graph_fingerprint_deterministic(self, bridged_graph):
        assert graph_fingerprint(bridged_graph) == graph_fingerprint(
            bridged_graph
        )

    def test_graph_fingerprint_distinguishes_structure(self):
        a = from_edges([(0, 1), (1, 2)])
        b = from_edges([(0, 1), (0, 2)])
        assert graph_fingerprint(a) != graph_fingerprint(b)

    def test_subgraph_keys_stable_and_distinct(self, bridged_graph):
        part = graph_partition(bridged_graph)
        keys = [subgraph_key(sg) for sg in part.subgraphs]
        keys_again = [
            subgraph_key(sg) for sg in graph_partition(bridged_graph).subgraphs
        ]
        assert keys == keys_again
        assert len(set(keys)) >= 2  # cliques and bridges do not collide

    def test_identical_local_structure_shares_key(self):
        # two disjoint copies of the same clique produce sub-graphs
        # with identical local structure — global vertex ids must not
        # leak into the key, so they share one cache entry
        g = nx.disjoint_union(nx.complete_graph(4), nx.complete_graph(4))
        part = graph_partition(from_networkx(g, n=8))
        keys = sorted(subgraph_key(sg) for sg in part.subgraphs)
        assert keys[0] == keys[-1]

    def test_pendant_flag_changes_key(self, bridged_graph):
        sg = graph_partition(bridged_graph).subgraphs[0]
        assert subgraph_key(sg, eliminate_pendants=True) != subgraph_key(
            sg, eliminate_pendants=False
        )


class TestContributionStore:
    def test_put_get_roundtrip(self):
        store = ContributionStore()
        scores = np.array([1.0, 2.5, 0.0])
        store.put("k", scores, 42)
        entry = store.get("k")
        assert entry.edges == 42
        np.testing.assert_array_equal(entry.scores, scores)
        assert store.counters.hits == 1 and store.counters.puts == 1

    def test_entries_are_insulated_from_caller(self):
        store = ContributionStore()
        scores = np.ones(3)
        store.put("k", scores, 1)
        scores[0] = 99.0  # caller mutates after put
        entry = store.get("k")
        assert entry.scores[0] == 1.0
        assert not entry.scores.flags.writeable

    def test_miss_counted(self):
        store = ContributionStore()
        assert store.get("absent") is None
        assert store.counters.misses == 1

    def test_lru_eviction_by_entries(self):
        store = ContributionStore(max_entries=2)
        for i in range(3):
            store.put(f"k{i}", np.zeros(4), i)
        assert store.get("k0") is None  # oldest evicted
        assert store.get("k2") is not None
        assert store.counters.evictions == 1

    def test_get_refreshes_recency(self):
        store = ContributionStore(max_entries=2)
        store.put("a", np.zeros(2), 0)
        store.put("b", np.zeros(2), 0)
        store.get("a")  # refresh: b becomes LRU
        store.put("c", np.zeros(2), 0)
        assert store.get("b") is None
        assert store.get("a") is not None

    def test_disk_persistence_across_instances(self, tmp_path):
        d = str(tmp_path / "cache")
        first = ContributionStore(cache_dir=d)
        first.put("key", np.arange(5, dtype=np.float64), 17)
        second = ContributionStore(cache_dir=d)
        entry = second.get("key")
        assert entry is not None and entry.edges == 17
        assert second.counters.disk_hits == 1

    def test_corrupted_disk_entry_degrades_to_miss(self, tmp_path):
        d = tmp_path / "cache"
        store = ContributionStore(cache_dir=str(d))
        store.put("key", np.zeros(3), 5)
        fresh = ContributionStore(cache_dir=str(d))
        for p in d.glob("*.npz"):
            p.write_bytes(b"not a zipfile")
        assert fresh.get("key") is None
        assert fresh.counters.disk_errors == 1

    def test_resolve_store_semantics(self, tmp_path):
        assert resolve_store(False, None) is None
        assert resolve_store(None, None) is None
        store = ContributionStore()
        assert resolve_store(store, None) is store
        assert resolve_store(True, None) is not None
        d = str(tmp_path / "c")
        assert resolve_store(True, d) is resolve_store(True, d)  # global
        with pytest.raises(CacheError):
            resolve_store(store, d)  # explicit store vs conflicting dir


class TestConfigValidation:
    def test_bool_and_store_accepted(self):
        APGREConfig(cache=True)
        APGREConfig(cache=ContributionStore())

    def test_bad_cache_object_rejected(self):
        with pytest.raises(AlgorithmError, match="cache"):
            APGREConfig(cache="yes please")


class TestWarmReplay:
    """The tier-1 acceptance guard: warm runs replay, exactly."""

    @pytest.mark.parametrize(
        "backend,workers",
        [("serial", 1), ("threads", 2), ("processes", 2)],
    )
    def test_warm_rerun_traverses_nothing(
        self, random_graph, backend, workers
    ):
        store = ContributionStore()
        config = APGREConfig(
            backend=backend, workers=workers, cache=store
        )
        cold = apgre_bc_detailed(random_graph, config)
        warm = apgre_bc_detailed(random_graph, config)
        np.testing.assert_allclose(
            warm.scores, brandes_bc(random_graph), rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            warm.scores, cold.scores, rtol=1e-9, atol=1e-9
        )
        assert cold.stats.edges_traversed > 0
        assert cold.stats.edges_replayed == 0
        assert warm.stats.edges_traversed == 0
        assert warm.stats.edges_replayed == cold.stats.edges_traversed
        assert warm.stats.subgraphs_replayed == cold.stats.num_subgraphs

    def test_apgre_bc_cache_kwarg(self, bridged_graph):
        store = ContributionStore()
        first = apgre_bc(bridged_graph, cache=store)
        second = apgre_bc(bridged_graph, cache=store)
        np.testing.assert_allclose(second, first, rtol=1e-9, atol=1e-9)
        assert store.counters.hits > 0

    def test_directed_graph_cached(self):
        g = from_networkx(
            nx.gnm_random_graph(30, 80, seed=3, directed=True), n=30
        )
        store = ContributionStore()
        config = APGREConfig(cache=store)
        cold = apgre_bc_detailed(g, config)
        warm = apgre_bc_detailed(g, config)
        np.testing.assert_allclose(
            warm.scores, brandes_bc(g), rtol=1e-9, atol=1e-9
        )
        assert warm.stats.edges_traversed == 0
        assert warm.stats.edges_replayed == cold.stats.edges_traversed


class TestApplyEdgeDelta:
    def test_add_and_remove(self, bridged_graph):
        new = apply_edge_delta(
            bridged_graph, edges_added=[(0, 10)], edges_removed=[(7, 8)]
        )
        assert new.n == bridged_graph.n
        assert new.num_arcs == bridged_graph.num_arcs  # one in, one out

    def test_add_existing_is_idempotent(self, bridged_graph):
        new = apply_edge_delta(bridged_graph, edges_added=[(0, 1)])
        assert new.num_arcs == bridged_graph.num_arcs

    def test_remove_absent_raises(self, bridged_graph):
        with pytest.raises(GraphValidationError, match="absent edge"):
            apply_edge_delta(bridged_graph, edges_removed=[(0, 14)])

    def test_self_loop_rejected(self, bridged_graph):
        with pytest.raises(GraphValidationError, match="self loop"):
            apply_edge_delta(bridged_graph, edges_added=[(3, 3)])

    def test_out_of_range_rejected(self, bridged_graph):
        with pytest.raises(GraphValidationError, match="out of range"):
            apply_edge_delta(bridged_graph, edges_added=[(0, 99)])

    def test_undirected_orientation_canonical(self, bridged_graph):
        a = apply_edge_delta(bridged_graph, edges_added=[(0, 12)])
        b = apply_edge_delta(bridged_graph, edges_added=[(12, 0)])
        assert graph_fingerprint(a) == graph_fingerprint(b)


class TestIncrementalDelta:
    """k <= 8-edge deltas recompute only dirty BCCs, scores exact."""

    def test_delta_scores_match_from_scratch(self, random_graph):
        store = ContributionStore()
        config = APGREConfig(cache=store)
        apgre_bc_detailed(random_graph, config)  # warm the store
        rng = np.random.default_rng(2)
        u = np.repeat(
            np.arange(random_graph.n), np.diff(random_graph.out_indptr)
        )
        v = random_graph.out_indices
        pairs = np.stack([u[u < v], v[u < v]], axis=1)
        removed = pairs[rng.choice(len(pairs), 5, replace=False)]
        delta = apgre_bc_delta(
            random_graph, edges_removed=removed, cache=store, config=config
        )
        assert isinstance(delta, DeltaResult)
        np.testing.assert_allclose(
            delta.scores, brandes_bc(delta.graph), rtol=1e-9, atol=1e-9
        )

    def test_localized_delta_recomputes_only_dirty(self, bridged_graph):
        # removing two non-adjacent clique edges keeps that block
        # biconnected over the same vertex set, so every other
        # sub-graph's fingerprint stays untouched: the replay tallies
        # must show exactly the dirty sub-graph being recomputed
        store = ContributionStore()
        config = APGREConfig(cache=store)
        apgre_bc_detailed(bridged_graph, config)
        delta = apgre_bc_delta(
            bridged_graph, edges_removed=[(10, 12), (11, 13)],
            cache=store, config=config,
        )
        stats = delta.result.stats
        assert stats.subgraphs_recomputed >= 1
        assert stats.subgraphs_replayed >= 1
        assert (
            stats.subgraphs_recomputed + stats.subgraphs_replayed
            == stats.num_subgraphs
        )
        # tally identity against a from-scratch run on the new graph
        scratch = apgre_bc_detailed(
            delta.graph, APGREConfig(cache=ContributionStore())
        )
        assert (
            stats.edges_traversed + stats.edges_replayed
            == scratch.stats.edges_traversed
        )
        assert stats.edges_traversed < scratch.stats.edges_traversed
        np.testing.assert_allclose(
            delta.scores, scratch.scores, rtol=1e-9, atol=1e-9
        )

    def test_delta_without_cache_raises(self, bridged_graph):
        with pytest.raises(CacheError):
            apgre_bc_delta(bridged_graph, edges_added=[(0, 10)], cache=False)

    def test_delta_conflicting_stores_raise(self, bridged_graph):
        mine = ContributionStore()
        other = ContributionStore()
        config = APGREConfig(cache=other)
        with pytest.raises(CacheError):
            apgre_bc_delta(
                bridged_graph, edges_added=[(0, 10)],
                cache=mine, config=config,
            )

    def test_empty_delta_is_pure_replay(self, bridged_graph):
        store = ContributionStore()
        config = APGREConfig(cache=store)
        cold = apgre_bc_detailed(bridged_graph, config)
        delta = apgre_bc_delta(bridged_graph, cache=store, config=config)
        np.testing.assert_allclose(
            delta.scores, cold.scores, rtol=1e-9, atol=1e-9
        )
        assert delta.result.stats.edges_traversed == 0

    def test_two_sequential_deltas_match_one_combined(self, bridged_graph):
        # applying {e1} then {e2} must land on the same graph and the
        # same exact scores as applying {e1, e2} at once — the serving
        # daemon's streamed-delta path is the sequential side of this
        first, second = (0, 10), (5, 14)
        seq_store = ContributionStore()
        config = APGREConfig(cache=seq_store)
        apgre_bc_detailed(bridged_graph, config)
        step1 = apgre_bc_delta(
            bridged_graph, edges_added=[first],
            cache=seq_store, config=config,
        )
        step2 = apgre_bc_delta(
            step1.graph, edges_added=[second],
            cache=seq_store, config=config,
        )
        comb_store = ContributionStore()
        comb_config = APGREConfig(cache=comb_store)
        apgre_bc_detailed(bridged_graph, comb_config)
        combined = apgre_bc_delta(
            bridged_graph, edges_added=[first, second],
            cache=comb_store, config=comb_config,
        )
        assert graph_fingerprint(step2.graph) == graph_fingerprint(
            combined.graph
        )
        np.testing.assert_allclose(
            step2.scores, combined.scores, rtol=1e-9, atol=1e-9
        )
        np.testing.assert_allclose(
            step2.scores, brandes_bc(step2.graph), rtol=1e-9, atol=1e-9
        )


class TestParseDeltaFile:
    def test_parse_ops_and_comments(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text(
            "# comment\n+ 0 3\nadd 4 5\n\n- 1 2\nremove 6 7\n"
        )
        added, removed = parse_delta_file(p)
        np.testing.assert_array_equal(added, [[0, 3], [4, 5]])
        np.testing.assert_array_equal(removed, [[1, 2], [6, 7]])

    def test_malformed_line_reports_position(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+ 0 1\n* 2 3\n")
        with pytest.raises(GraphFormatError, match=r"d\.txt:2"):
            parse_delta_file(p)

    def test_non_integer_endpoint_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+ 0 x\n")
        with pytest.raises(GraphFormatError, match=r"d\.txt:1"):
            parse_delta_file(p)

    def test_empty_file_is_empty_delta(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("")
        added, removed = parse_delta_file(p)
        assert added.shape == (0, 2) and removed.shape == (0, 2)
        assert added.dtype == np.int64 and removed.dtype == np.int64

    def test_comment_only_file_is_empty_delta(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# nothing here\n   # indented comment\n\n")
        added, removed = parse_delta_file(p)
        assert added.shape == (0, 2) and removed.shape == (0, 2)

    def test_missing_trailing_newline_parses(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("+ 0 3\n- 1 2")  # no final newline
        added, removed = parse_delta_file(p)
        np.testing.assert_array_equal(added, [[0, 3]])
        np.testing.assert_array_equal(removed, [[1, 2]])

    def test_duplicate_edge_kept_verbatim(self, tmp_path):
        # the parser does not dedupe — apply_edge_delta's union does,
        # so a feed that repeats an add stays an idempotent no-op
        p = tmp_path / "d.txt"
        p.write_text("+ 0 3\n+ 0 3\n+ 3 0\n")
        added, removed = parse_delta_file(p)
        np.testing.assert_array_equal(added, [[0, 3], [0, 3], [3, 0]])
        assert removed.shape == (0, 2)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(GraphFormatError, match="cannot read"):
            parse_delta_file(tmp_path / "absent.txt")

    def test_parse_delta_lines_shares_the_grammar(self):
        from repro.cache.incremental import parse_delta_lines

        added, removed = parse_delta_lines("+ 0 3\n- 1 2\n")
        np.testing.assert_array_equal(added, [[0, 3]])
        np.testing.assert_array_equal(removed, [[1, 2]])
        with pytest.raises(GraphFormatError, match=r"<wire>:2"):
            parse_delta_lines("+ 0 1\nbogus\n", name="<wire>")


class TestDiskWarmAcrossRuns:
    def test_cache_dir_survives_process_state(self, tmp_path, bridged_graph):
        d = str(tmp_path / "bc-cache")
        cold = apgre_bc_detailed(
            bridged_graph, APGREConfig(cache=ContributionStore(cache_dir=d))
        )
        # a brand-new store over the same directory replays everything
        warm = apgre_bc_detailed(
            bridged_graph, APGREConfig(cache=ContributionStore(cache_dir=d))
        )
        np.testing.assert_allclose(
            warm.scores, cold.scores, rtol=1e-9, atol=1e-9
        )
        assert warm.stats.edges_traversed == 0
        assert warm.stats.edges_replayed == cold.stats.edges_traversed
