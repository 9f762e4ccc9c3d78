"""Tests for the warm-path serving daemon (repro.serve).

The serving PR's acceptance guards live here:

* served results are **bit-identical** to :func:`apgre_bc_detailed`
  for the same config across serial / threads / cached / batched /
  kernel request parameters;
* concurrent readers racing ``POST /delta`` always observe a single
  consistent committed version (every response's scores match the
  Brandes oracle of *its reported version's* graph to 1e-9);
* ``/stats`` keeps exact edge-tally accounting (traversed vs
  replayed) across cold, warm-LRU and store-replay requests;
* SIGTERM drains the daemon cleanly with exit code 0.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.errors import ServeError
from repro.graph.build import from_networkx
from repro.serve.client import ServeClient
from repro.serve.protocol import (
    RequestParams,
    build_config,
    config_fingerprint,
    parse_delta_body,
)
from repro.serve.score_lru import ScoreLRU
from repro.serve.server import make_server
from repro.serve.snapshots import SnapshotManager


def _serve_graph():
    """A K6 core, a K4 satellite and a bridge path: several BCCs, two
    articulation chains — deltas stay local, partitions non-trivial."""
    g = nx.complete_graph(6)
    g.update(
        nx.relabel_nodes(nx.complete_graph(4), {i: 10 + i for i in range(4)})
    )
    g.add_edges_from([(5, 6), (6, 7), (7, 10), (3, 8), (8, 9)])
    return from_networkx(g, n=14)


@pytest.fixture
def graph():
    return _serve_graph()


class _Served:
    """An in-process daemon plus a client, shut down on fixture exit."""

    def __init__(self, graph, **kwargs):
        self.store = kwargs.pop("store", ContributionStore())
        base = kwargs.pop(
            "base_config", APGREConfig(cache=self.store)
        )
        self.server = make_server(
            graph, port=0, base_config=base, store=self.store, **kwargs
        )
        self.state = self.server.state
        self.graph = graph
        host, port = self.server.server_address
        self.client = ServeClient(host=host, port=port, timeout=60.0)
        self.thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.02},
        )
        self.thread.start()

    def close(self):
        self.server.shutdown()
        self.thread.join(timeout=30)
        self.server.server_close()


@pytest.fixture
def served(graph):
    box = _Served(graph)
    yield box
    box.close()


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshotManager:
    def test_versions_are_monotonic(self, graph):
        mgr = SnapshotManager(graph)
        assert mgr.version == 1
        snap2 = mgr.advance(graph)
        snap3 = mgr.advance(graph)
        assert (snap2.version, snap3.version) == (2, 3)
        assert mgr.version == 3

    def test_unpinned_version_retires_on_advance(self, graph):
        retired = []
        mgr = SnapshotManager(graph, on_retire=retired.append)
        mgr.advance(graph)
        assert retired == [1]
        with pytest.raises(ServeError) as err:
            mgr.get(1)
        assert err.value.http_status == 409

    def test_pinned_version_survives_until_reader_drains(self, graph):
        retired = []
        mgr = SnapshotManager(graph, on_retire=retired.append)
        with mgr.acquire() as snap:
            assert snap.version == 1
            mgr.advance(graph)
            # the reader still holds v1: it must stay resident
            assert retired == []
            assert mgr.get(1) is snap
        # last reader drained: now it retires
        assert retired == [1]

    def test_acquire_specific_version(self, graph):
        mgr = SnapshotManager(graph)
        with mgr.acquire():
            mgr.advance(graph)
        with mgr.acquire(2) as snap:
            assert snap.version == 2
        with pytest.raises(ServeError):
            with mgr.acquire(1):
                pass

    def test_partition_memoised_per_config_key(self, graph):
        mgr = SnapshotManager(graph)
        snap = mgr.current()
        a = snap.partition_for(APGREConfig())
        b = snap.partition_for(APGREConfig())
        assert a is b
        c = snap.partition_for(APGREConfig(threshold=0))
        assert c is not a
        assert len(snap.partition_keys()) == 2

    def test_report_shape(self, graph):
        mgr = SnapshotManager(graph)
        report = mgr.report()
        assert report["version"] == 1
        assert report["live_versions"] == [1]
        assert report["deltas_applied"] == 0


# ----------------------------------------------------------------------
# score LRU
# ----------------------------------------------------------------------
class TestScoreLRU:
    def test_roundtrip_and_frozen(self):
        lru = ScoreLRU()
        lru.put(1, "fp", np.arange(4.0), {"src": "test"})
        entry = lru.get(1, "fp")
        assert entry is not None
        assert not entry.scores.flags.writeable
        assert entry.meta["src"] == "test"
        assert lru.get(1, "other") is None
        assert lru.stats()["hits"] == 1
        assert lru.stats()["misses"] == 1

    def test_entry_budget_evicts_lru_first(self):
        lru = ScoreLRU(max_entries=2)
        lru.put(1, "a", np.zeros(4))
        lru.put(1, "b", np.zeros(4))
        lru.get(1, "a")  # bump a: b is now least recent
        lru.put(1, "c", np.zeros(4))
        assert lru.get(1, "b") is None
        assert lru.get(1, "a") is not None
        assert lru.stats()["evictions"] == 1

    def test_byte_budget(self):
        lru = ScoreLRU(max_bytes=100)
        lru.put(1, "a", np.zeros(8))  # 64 bytes
        lru.put(1, "b", np.zeros(8))
        assert len(lru) == 1
        # a single oversized vector is still admitted and served
        lru.put(1, "big", np.zeros(64))
        assert lru.get(1, "big") is not None

    def test_purge_version(self):
        lru = ScoreLRU()
        lru.put(1, "a", np.zeros(4))
        lru.put(1, "b", np.zeros(4))
        lru.put(2, "a", np.zeros(4))
        assert lru.purge_version(1) == 2
        assert lru.get(1, "a") is None
        assert lru.get(2, "a") is not None
        assert lru.stats()["purged"] == 2

    def test_invalid_budgets_raise(self):
        with pytest.raises(ServeError):
            ScoreLRU(max_entries=0)
        with pytest.raises(ServeError):
            ScoreLRU(max_bytes=0)


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def _params(self, qs: dict) -> RequestParams:
        return RequestParams.from_query(
            {k: [v] for k, v in qs.items()}
        )

    def test_parse_types(self):
        params = self._params(
            {
                "backend": "threads",
                "kernel": "arcs",
                "batch_size": "auto",
                "workers": "2",
                "steal": "0",
                "top": "5",
                "full": "1",
                "fresh": "yes",
                "version": "3",
                "timeout": "1.5",
            }
        )
        assert params.backend == "threads"
        assert params.kernel == "arcs"
        assert params.batch_size == "auto"
        assert params.workers == 2
        assert params.steal is False
        assert (params.top, params.full, params.fresh) == (5, True, True)
        assert params.version == 3
        assert params.timeout == 1.5

    def test_unknown_parameter_rejected(self):
        # "shard" is a removed parameter: it must fail loudly, not be
        # silently ignored
        for name in ("bogus", "shard"):
            with pytest.raises(ServeError, match="unknown parameter"):
                self._params({name: "1"})

    def test_repeated_parameter_rejected(self):
        with pytest.raises(ServeError, match="given 2 times"):
            RequestParams.from_query({"top": ["1", "2"]})

    def test_bad_values_rejected(self):
        for qs in (
            {"backend": "gpu"},
            {"kernel": "cuda"},
            {"kernel": "pull"},
            {"steal": "maybe"},
            {"workers": "two"},
            {"top": "0"},
            {"batch_size": "0"},
        ):
            with pytest.raises(ServeError):
                self._params(qs)

    def test_fingerprint_covers_score_affecting_fields(self):
        base = APGREConfig()
        assert config_fingerprint(base) == config_fingerprint(APGREConfig())
        for variant in (
            APGREConfig(threshold=0),
            APGREConfig(kernel="arcs"),
            APGREConfig(backend="threads", workers=2),
            APGREConfig(eliminate_pendants=False),
        ):
            assert config_fingerprint(variant) != config_fingerprint(base)
        # the engine layout alone still changes the fingerprint: one
        # field at a time, everything else equal
        engine = APGREConfig(backend="threads", workers=2)
        for variant in (
            replace(engine, backend="processes"),
            replace(engine, backend=None),
            replace(engine, workers=3),
        ):
            assert config_fingerprint(variant) != config_fingerprint(engine)

    def test_fingerprint_ignores_supervisor_budgets(self):
        base = APGREConfig()
        tuned = APGREConfig(timeout=5.0, max_retries=0, fallback=False)
        assert config_fingerprint(tuned) == config_fingerprint(base)

    def test_build_config_routes_the_store(self):
        store = ContributionStore()
        base = APGREConfig(cache=store)
        config = build_config(RequestParams(), base, store)
        assert config.cache is store
        off = build_config(RequestParams(cache=False), base, store)
        assert off.cache is None

    def test_build_config_validation_is_a_400(self):
        store = ContributionStore()
        with pytest.raises(ServeError) as err:
            build_config(
                RequestParams(workers=0), APGREConfig(), store
            )
        assert err.value.http_status == 400

    def test_parse_delta_body_json(self):
        added, removed = parse_delta_body(
            json.dumps({"add": [[0, 3]], "remove": [[1, 2]]}).encode(),
            "application/json",
        )
        np.testing.assert_array_equal(added, [[0, 3]])
        np.testing.assert_array_equal(removed, [[1, 2]])

    def test_parse_delta_body_text(self):
        added, removed = parse_delta_body(
            b"+ 0 3\n- 1 2\n", "text/plain"
        )
        np.testing.assert_array_equal(added, [[0, 3]])
        np.testing.assert_array_equal(removed, [[1, 2]])

    def test_parse_delta_body_rejects_garbage(self):
        with pytest.raises(ServeError):
            parse_delta_body(b"{not json", "application/json")
        with pytest.raises(ServeError):
            parse_delta_body(b'{"explode": []}', "application/json")
        with pytest.raises(ServeError):
            parse_delta_body(b"bogus line\n", "text/plain")
        with pytest.raises(ServeError):
            parse_delta_body(b"\xff\xfe", "text/plain")


# ----------------------------------------------------------------------
# endpoints
# ----------------------------------------------------------------------
class TestEndpoints:
    def test_healthz(self, served):
        payload = served.client.healthz()
        assert payload["status"] == "ok"
        assert payload["version"] == 1
        assert payload["draining"] is False

    def test_bc_top_and_lru_hit(self, served):
        first = served.client.bc(top=3)
        assert first["cached"] is False
        assert len(first["top"]) == 3
        second = served.client.bc(top=3)
        assert second["cached"] is True
        assert second["top"] == first["top"]
        assert served.state.computed_vectors == 1

    def test_bc_full_bit_identical_to_local(self, served):
        payload = served.client.bc(full=True)
        local = apgre_bc_detailed(
            served.graph, APGREConfig(cache=ContributionStore())
        )
        assert np.array_equal(
            np.asarray(payload["scores"]), local.scores
        ), "served full vector differs from a local run"
        for field in ("subgraphs_bundled", "bundles"):
            assert payload["meta"][field] == getattr(local.stats, field)

    def test_vertex_matches_full_vector(self, served):
        full = np.asarray(served.client.bc(full=True)["scores"])
        for v in (0, 5, 7, 13):
            payload = served.client.vertex(v)
            assert payload["score"] == full[v]
            assert payload["vertex"] == v

    def test_vertex_out_of_range_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client.vertex(99)
        assert err.value.http_status == 404

    def test_vertex_non_integer_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.request("GET", "/vertex/zero")
        assert err.value.http_status == 400

    def test_unknown_path_is_404(self, served):
        with pytest.raises(ServeError) as err:
            served.client.request("GET", "/nope")
        assert err.value.http_status == 404

    def test_unknown_parameter_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.bc(bogus=1)
        assert err.value.http_status == 400

    def test_removed_compress_is_400(self, served):
        with pytest.raises(
            ServeError, match=r"unknown parameter\(s\) compress"
        ) as err:
            served.client.bc(compress=1)
        assert err.value.http_status == 400

    def test_removed_kernel_is_400(self, served):
        with pytest.raises(ServeError, match="kernel must be") as err:
            served.client.bc(kernel="pull")
        assert err.value.http_status == 400

    def test_concurrent_identical_requests_collapse(self, served):
        results = []

        def read():
            results.append(served.client.bc(top=4))

        threads = [threading.Thread(target=read) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 6
        tops = {json.dumps(r["top"]) for r in results}
        assert len(tops) == 1
        # singleflight: identical in-flight queries compute at most once
        assert served.state.computed_vectors == 1

    def test_stats_edge_tally_accounting(self, served):
        cold = served.client.bc(top=1)
        local = apgre_bc_detailed(
            served.graph, APGREConfig(cache=ContributionStore())
        )
        stats = served.client.stats()
        assert (
            stats["edges"]["traversed"] == local.stats.edges_traversed
        ), "served cold traversal tally differs from a local cold run"
        assert stats["edges"]["replayed"] == 0
        # an LRU hit does no graph work at all: tallies must not move
        warm = served.client.bc(top=1)
        assert warm["cached"] is True
        stats = served.client.stats()
        assert stats["edges"]["traversed"] == local.stats.edges_traversed
        assert stats["edges"]["replayed"] == 0
        # fresh=1 bypasses the LRU: the ContributionStore replays every
        # contribution, and the tally is accounted as replayed edges
        fresh = served.client.bc(top=1, fresh=True)
        assert fresh["cached"] is False
        assert fresh["top"] == cold["top"]
        stats = served.client.stats()
        assert stats["edges"]["traversed"] == local.stats.edges_traversed
        assert stats["edges"]["replayed"] == local.stats.edges_traversed

    def test_stats_surface(self, served):
        served.client.bc(top=2)
        stats = served.client.stats()
        assert stats["graph"]["version"] == 1
        assert stats["graph"]["vertices"] == served.graph.n
        assert stats["server"]["requests"]["bc"] == 1
        assert stats["score_lru"]["puts"] == 1
        assert stats["contribution_store"]["puts"] > 0
        assert "backends" in stats["registries"]
        assert "kernels" in stats["registries"]
        assert stats["health"]["degraded"] is False
        assert stats["snapshots"]["live_versions"] == [1]
        # the registries block is exactly repro-bc info --json's
        from repro.introspect import registry_payload

        assert stats["registries"] == registry_payload()

    def test_delta_text_and_json(self, served):
        first = served.client.delta(text="+ 0 9\n")
        assert (first["from_version"], first["version"]) == (1, 2)
        second = served.client.delta(remove=[(0, 9)])
        assert second["version"] == 3
        # back at the original graph: scores must match version 1's
        final = served.client.bc(full=True)
        assert final["version"] == 3
        local = apgre_bc_detailed(
            served.graph, APGREConfig(cache=ContributionStore())
        )
        np.testing.assert_allclose(
            np.asarray(final["scores"]), local.scores,
            rtol=1e-9, atol=1e-9,
        )

    def test_patched_delta_shows_its_work(self):
        # an edge inside a dense core patches the core's stored vector:
        # the response, the new version's meta and /stats all say so
        from repro.cache.incremental import apgre_bc_delta

        core = nx.gnp_random_graph(20, 0.8, seed=4)
        core.add_edges_from([(0, 20), (20, 21), (21, 22)])
        graph = from_networkx(core, n=23)
        store = ContributionStore()
        apgre_bc_detailed(graph, APGREConfig(cache=store))
        edge = next(
            (u, v) for u in range(20) for v in range(u + 1, 20)
            if not core.has_edge(u, v) and apgre_bc_delta(
                graph, edges_added=[(u, v)], cache=store
            ).result.stats.subgraphs_patched
        )
        box = _Served(graph)
        try:
            box.client.bc(top=1)
            reply = box.client.delta(add=[edge])
            assert reply["subgraphs_patched"] == 1
            assert reply["edges_unwound"] > 0
            meta = box.client.bc(top=1)["meta"]
            assert meta["subgraphs_patched"] == 1
            assert meta["edges_unwound"] == reply["edges_unwound"]
            stats = box.client.stats()
            assert stats["server"]["subgraphs_patched"] == 1
            assert stats["edges"]["unwound"] == reply["edges_unwound"]
            scores = np.asarray(box.client.bc(full=True)["scores"])
            np.testing.assert_allclose(
                scores,
                brandes_bc(from_networkx(nx.Graph(
                    list(core.edges) + [edge]), n=23)),
                rtol=1e-9, atol=1e-9,
            )
        finally:
            box.close()

    def test_delta_seeds_the_successor_partition(self):
        # an in-block edge derives the new partition from the current
        # snapshot's; the new version's memo holds it before any read,
        # and a fresh read over it matches a local run on the new graph
        from repro.serve.snapshots import partition_key

        core = nx.gnp_random_graph(20, 0.8, seed=4)
        core.add_edges_from([(0, 20), (20, 21), (21, 22)])
        graph = from_networkx(core, n=23)
        edge = next((u, v) for u in range(20) for v in range(u + 1, 20)
                    if not core.has_edge(u, v))
        box = _Served(graph)
        try:
            reply = box.client.delta(add=[edge])
            assert reply["partition_derived"] is True
            assert reply["partition_seconds"] > 0
            stats = box.client.stats()
            assert stats["server"]["partitions_derived"] == 1
            key = list(partition_key(box.state.base_config))
            assert stats["snapshots"]["partitions_resident"]["2"] == [key]
            meta = box.client.bc(top=1)["meta"]
            assert meta["delta"] is True and meta["partition_derived"] is True
            fresh = box.client.bc(full=True, fresh=True)
            assert fresh["version"] == 2 and fresh["cached"] is False
            local = apgre_bc_detailed(
                box.state.manager.current().graph,
                APGREConfig(cache=box.store),
            )
            assert np.array_equal(np.asarray(fresh["scores"]), local.scores)
        finally:
            box.close()

    def test_delta_primes_the_new_version(self, served):
        served.client.delta(add=[(0, 9)])
        payload = served.client.bc(top=2)
        assert payload["version"] == 2
        assert payload["cached"] is True  # admitted by the delta path

    def test_empty_delta_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.delta(text="# nothing\n")
        assert err.value.http_status == 400

    def test_delta_removing_absent_edge_is_400(self, served):
        with pytest.raises(ServeError) as err:
            served.client.delta(remove=[(0, 13)])
        assert err.value.http_status == 400
        assert served.client.healthz()["version"] == 1  # nothing committed
        assert served.client.stats()["server"]["deltas_rejected"] == 1

    def test_retired_version_is_409(self, served):
        served.client.delta(add=[(0, 9)])
        with pytest.raises(ServeError) as err:
            served.client.bc(version=1)
        assert err.value.http_status == 409
        assert served.client.bc(version=2)["version"] == 2

    def test_cache_free_daemon_rejects_deltas(self, graph):
        box = _Served(
            graph, store=None, base_config=APGREConfig()
        )
        try:
            assert box.client.bc(top=2)["cached"] is False
            with pytest.raises(ServeError) as err:
                box.client.delta(add=[(0, 9)])
            assert err.value.http_status == 409
        finally:
            box.close()

    def test_unix_socket_server(self, graph, tmp_path):
        path = str(tmp_path / "bc.sock")
        store = ContributionStore()
        server = make_server(
            graph,
            unix_socket=path,
            base_config=APGREConfig(cache=store),
            store=store,
        )
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.02}
        )
        thread.start()
        try:
            client = ServeClient(unix_socket=path)
            assert client.healthz()["status"] == "ok"
            assert len(client.bc(top=3)["top"]) == 3
        finally:
            server.shutdown()
            thread.join(timeout=30)
            server.server_close()
        assert not os.path.exists(path)  # closed daemon unlinks its socket


# ----------------------------------------------------------------------
# bit-identity matrix (acceptance)
# ----------------------------------------------------------------------
class TestBitIdentityMatrix:
    """Served bytes == local bytes for the same config, per path.

    ``fresh=1`` forces each request through a real compute (no LRU
    read), so the comparison exercises the serving execution path, not
    a memoised vector.  ``steal=0`` keeps the threads backend on its
    deterministic static LPT placement.
    """

    CASES = [
        ("serial", {}, {}),
        ("cached-replay", {"fresh": True}, {}),
        (
            "threads",
            {"backend": "threads", "workers": 2, "steal": False},
            {"backend": "threads", "workers": 2, "steal": False},
        ),
        ("batched", {"batch_size": "auto"}, {"batch_size": "auto"}),
        ("kernel-arcs", {"kernel": "arcs"}, {"kernel": "arcs"}),
    ]

    @pytest.mark.parametrize(
        "label,params,cfg", CASES, ids=[c[0] for c in CASES]
    )
    def test_served_equals_local(self, served, label, params, cfg):
        payload = served.client.bc(full=True, **params)
        local = apgre_bc_detailed(
            served.graph,
            APGREConfig(cache=ContributionStore(), **cfg),
        )
        assert np.array_equal(
            np.asarray(payload["scores"]), local.scores
        ), f"{label}: served scores differ from the local run"


# ----------------------------------------------------------------------
# concurrent readers vs streamed deltas (acceptance)
# ----------------------------------------------------------------------
class TestConcurrentDeltaConsistency:
    @pytest.mark.timeout(300)
    def test_readers_always_see_one_committed_version(self, served):
        """Readers racing a delta stream never see a torn update.

        A writer streams single-edge deltas while reader threads pull
        full vectors.  Every response names the version it was served
        from; replaying the delta log locally gives each version's
        graph, and every response must match the Brandes oracle of
        *its own* version to 1e-9 — a reader observing any blend of
        two versions fails against every oracle.
        """
        deltas = [(0, 9), (1, 12), (2, 8), (4, 9)]
        observations = []
        failures = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    payload = served.client.bc(full=True, fresh=True)
                except ServeError as exc:  # pragma: no cover - fatal
                    failures.append(exc)
                    return
                observations.append(
                    (payload["version"], payload["scores"])
                )

        readers = [threading.Thread(target=reader) for _ in range(3)]
        for t in readers:
            t.start()
        try:
            for edge in deltas:
                time.sleep(0.05)
                served.client.delta(add=[edge])
        finally:
            stop.set()
            for t in readers:
                t.join(timeout=60)
        assert not failures, f"reader failed: {failures[0]}"
        assert observations, "readers never completed a request"

        # rebuild every committed version's graph from the delta log
        from repro.cache.incremental import apply_edge_delta

        graphs = {1: served.graph}
        g = served.graph
        for i, edge in enumerate(deltas):
            g = apply_edge_delta(g, edges_added=[edge])
            graphs[i + 2] = g
        oracles = {}
        seen_versions = set()
        for version, scores in observations:
            assert version in graphs, f"impossible version {version}"
            seen_versions.add(version)
            if version not in oracles:
                oracles[version] = brandes_bc(graphs[version])
            np.testing.assert_allclose(
                np.asarray(scores), oracles[version],
                rtol=1e-9, atol=1e-9,
                err_msg=f"reader saw inconsistent scores at v{version}",
            )
        final = served.client.bc(full=True)
        assert final["version"] == len(deltas) + 1


# ----------------------------------------------------------------------
# CLI daemon lifecycle (drain on SIGTERM)
# ----------------------------------------------------------------------
class TestServeCLI:
    @pytest.mark.timeout(180)
    def test_sigterm_drains_cleanly_exit_zero(self, tmp_path):
        graph_path = tmp_path / "g.txt"
        lines = []
        g = _serve_graph()
        src = np.repeat(np.arange(g.n), np.diff(g.out_indptr))
        for u, v in zip(src.tolist(), g.out_indices.tolist()):
            if u < v:
                lines.append(f"{u} {v}")
        graph_path.write_text("\n".join(lines) + "\n")
        sock = str(tmp_path / "bc.sock")
        env = dict(os.environ)
        root = Path(__file__).resolve().parents[1]
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                str(graph_path), "--unix-socket", sock,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            deadline = time.time() + 60
            while not os.path.exists(sock):
                assert proc.poll() is None, (
                    f"daemon died early:\n{proc.stdout.read()}"
                )
                assert time.time() < deadline, "daemon never bound"
                time.sleep(0.05)
            client = ServeClient(unix_socket=sock)
            assert client.healthz()["status"] == "ok"
            payload = client.bc(top=3)
            assert len(payload["top"]) == 3
            delta = client.delta(text="+ 0 9\n")
            assert delta["version"] == 2
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, f"drain exit {proc.returncode}:\n{out}"
        assert "drained cleanly" in out
        assert "final version 2" in out
        assert not os.path.exists(sock)
