"""The warm-path BC serving daemon (stdlib HTTP, TCP or unix socket).

A long-lived process loads one graph, then keeps everything a cold CLI
invocation pays for over and over resident across requests:

* the graph itself and its per-config decomposition (partition + α/β),
  memoised on the current :class:`~repro.serve.snapshots.Snapshot`;
* the shared :class:`~repro.cache.store.ContributionStore`, so any
  recompute replays clean sub-graph contributions;
* a :class:`~repro.serve.score_lru.ScoreLRU` of assembled final
  vectors keyed by (graph version, config fingerprint), so a repeat
  query is a dictionary lookup.

Endpoints (all responses JSON, every data response carries the graph
``version`` it was served from):

``GET /healthz``
    Liveness: status, version, uptime, in-flight count, drain state.
``GET /stats``
    The full observability surface: request counters, snapshot
    residency, score-LRU and ContributionStore counters, the merged
    :class:`~repro.parallel.supervisor.RunHealth` of every computed
    request, exact edge tallies (traversed vs replayed), and the
    backend/kernel registry report of :mod:`repro.introspect`.
``GET /bc``
    Full BC under the request's config (query parameters — see
    :mod:`repro.serve.protocol`): ``top=k`` ranks (default) or
    ``full=1`` for the whole vector.
``GET /vertex/<id>``
    One vertex's score.
``POST /delta``
    Apply a streamed edge delta through
    :func:`repro.cache.incremental.apgre_bc_delta` and publish the
    successor graph version.  Writers serialise on one lock; readers
    keep their pinned versions until they drain (docs/SERVING.md).

Concurrency model: ``ThreadingHTTPServer`` runs one handler thread
per connection.  Identical in-flight queries collapse to one compute
(per-key singleflight locks); the delta path is single-writer.  The
daemon never installs signal handlers itself — the CLI wires
SIGINT/SIGTERM to ``shutdown()`` so in-flight requests finish and the
process exits 0 (``block_on_close`` joins the handler threads).
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro._version import __version__
from repro.errors import (
    ReproError,
    ServeError,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.serve.protocol import (
    RequestParams,
    build_config,
    config_fingerprint,
    parse_delta_body,
)
from repro.serve.score_lru import ScoreEntry, ScoreLRU
from repro.serve.snapshots import SnapshotManager

__all__ = ["ServerState", "BCRequestHandler", "make_server"]


def health_dict(health) -> Dict:
    """A :class:`~repro.parallel.supervisor.RunHealth` as JSON fields."""
    return {
        "tasks": health.tasks,
        "pool_ok": health.pool_ok,
        "retries": health.retries,
        "steals": health.steals,
        "worker_crashes": health.worker_crashes,
        "timeouts": health.timeouts,
        "task_errors": health.task_errors,
        "corrupt_results": health.corrupt_results,
        "serial_retries": health.serial_retries,
        "workers_spawned": health.workers_spawned,
        "pool_abandoned": health.pool_abandoned,
        "drained_serial": health.drained_serial,
        "fallback_path": health.fallback_path,
        "interrupted": health.interrupted,
        "degraded": health.degraded,
        "summary": health.summary(),
    }


def _compute_fresh(graph, config):
    """Module-level compute for the fork-isolated path (``isolate=1``).

    The forked child cannot see the parent's snapshot memo, so it pays
    partition + α/β itself — the price of crash isolation.
    """
    from repro.core.apgre import apgre_bc_detailed

    return apgre_bc_detailed(graph, config)


class ServerState:
    """Everything the daemon keeps warm, plus its counters.

    Shared by every handler thread; the internal lock covers only the
    scalar counters — the snapshot manager, score LRU and contribution
    store each carry their own locking.
    """

    def __init__(
        self,
        graph,
        *,
        base_config=None,
        store=None,
        lru: Optional[ScoreLRU] = None,
        name: str = "",
        source: Optional[str] = None,
    ) -> None:
        from repro.core.config import APGREConfig
        from repro.parallel.supervisor import RunHealth

        self.lru = lru if lru is not None else ScoreLRU()
        self.manager = SnapshotManager(
            graph, on_retire=self.lru.purge_version
        )
        self.store = store
        self.base_config = base_config or APGREConfig()
        self.name = name
        self.source = source
        self.started = time.time()
        self.delta_lock = threading.Lock()
        self.health = RunHealth()
        self._lock = threading.Lock()
        self._flights: Dict[Tuple[int, str], threading.Lock] = {}
        self.requests: Dict[str, int] = {}
        self.error_responses = 0
        self.in_flight = 0
        self.draining = False
        self.computed_vectors = 0
        self.edges_traversed = 0
        self.edges_replayed = 0
        self.deltas_rejected = 0

    # ------------------------------------------------------------------
    # counters
    # ------------------------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def _flight_lock(self, key: Tuple[int, str]) -> threading.Lock:
        with self._lock:
            lock = self._flights.get(key)
            if lock is None:
                lock = threading.Lock()
                self._flights[key] = lock
            return lock

    # ------------------------------------------------------------------
    # the warm path
    # ------------------------------------------------------------------
    def scores_for(
        self, snap, params: RequestParams
    ) -> Tuple[ScoreEntry, str, bool]:
        """The (entry, fingerprint, was_cached) triple for one request.

        Identical concurrent requests collapse onto one compute: the
        per-(version, fingerprint) lock makes the first thread compute
        and admit while the rest wait, then hit the LRU.  ``fresh=1``
        skips the LRU read (still admits) to force the
        ContributionStore replay path.
        """
        config = build_config(params, self.base_config, self.store)
        fp = config_fingerprint(config)
        key = (snap.version, fp)
        with self._flight_lock(key):
            if not params.fresh:
                entry = self.lru.get(*key)
                if entry is not None:
                    return entry, fp, True
            entry = self._compute(snap, config, params, fp)
            return entry, fp, False

    def _compute(self, snap, config, params: RequestParams, fp: str):
        from repro.core.apgre import apgre_bc_detailed
        from repro.parallel.supervisor import call_with_timeout

        t0 = time.perf_counter()
        if params.isolate:
            budget = (
                params.timeout
                if params.timeout is not None
                else config.timeout
            )
            result = call_with_timeout(
                _compute_fresh, snap.graph, config, timeout=budget
            )
        else:
            result = apgre_bc_detailed(
                snap.graph, config, partition=snap.partition_for(config)
            )
        elapsed = time.perf_counter() - t0
        with self._lock:
            self.computed_vectors += 1
            self.edges_traversed += result.stats.edges_traversed
            self.edges_replayed += result.stats.edges_replayed
            if result.health is not None:
                self.health.merge(result.health)
        meta = {
            "elapsed_seconds": elapsed,
            "edges_traversed": result.stats.edges_traversed,
            "edges_replayed": result.stats.edges_replayed,
            "subgraphs_replayed": result.stats.subgraphs_replayed,
            "subgraphs_recomputed": result.stats.subgraphs_recomputed,
            "subgraphs_bundled": result.stats.subgraphs_bundled,
            "bundles": result.stats.bundles,
            "degraded": bool(
                result.health is not None and result.health.degraded
            ),
            "isolated": bool(params.isolate),
        }
        return self.lru.put(snap.version, fp, result.scores, meta)

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------
    def apply_delta(self, added, removed) -> Dict:
        """Apply one edge delta and publish the successor version.

        Single-writer: the lock is held across recompute *and*
        advance, so versions commit in submission order and every
        version number corresponds to exactly one delta.  The delta
        result's score vector is admitted to the LRU under the base
        config's fingerprint, so the first read of the new version is
        already warm.
        """
        from repro.cache.incremental import apgre_bc_delta

        if self.store is None:
            raise ServeError(
                "this daemon runs cache-free (--no-cache); the delta "
                "endpoint needs the contribution store",
                http_status=409,
            )
        with self.delta_lock:
            snap = self.manager.current()
            t0 = time.perf_counter()
            dr = apgre_bc_delta(
                snap.graph,
                edges_added=added,
                edges_removed=removed,
                cache=self.store,
                config=self.base_config,
            )
            elapsed = time.perf_counter() - t0
            new_snap = self.manager.advance(dr.graph)
            stats = dr.result.stats
            with self._lock:
                self.computed_vectors += 1
                self.edges_traversed += stats.edges_traversed
                self.edges_replayed += stats.edges_replayed
                if dr.result.health is not None:
                    self.health.merge(dr.result.health)
            config = build_config(
                RequestParams(), self.base_config, self.store
            )
            self.lru.put(
                new_snap.version,
                config_fingerprint(config),
                dr.result.scores,
                {
                    "elapsed_seconds": elapsed,
                    "edges_traversed": stats.edges_traversed,
                    "edges_replayed": stats.edges_replayed,
                    "subgraphs_replayed": stats.subgraphs_replayed,
                    "subgraphs_recomputed": stats.subgraphs_recomputed,
                    "subgraphs_bundled": stats.subgraphs_bundled,
                    "bundles": stats.bundles,
                    "degraded": False,
                    "delta": True,
                },
            )
            return {
                "from_version": snap.version,
                "version": new_snap.version,
                "edges_added": int(added.shape[0]),
                "edges_removed": int(removed.shape[0]),
                "vertices": int(dr.graph.n),
                "arcs": int(dr.graph.num_arcs),
                "elapsed_seconds": elapsed,
                "subgraphs_replayed": stats.subgraphs_replayed,
                "subgraphs_recomputed": stats.subgraphs_recomputed,
                "edges_traversed": stats.edges_traversed,
                "edges_replayed": stats.edges_replayed,
            }

    # ------------------------------------------------------------------
    # observability payloads
    # ------------------------------------------------------------------
    def healthz_payload(self) -> Dict:
        with self._lock:
            in_flight = self.in_flight
            draining = self.draining
        return {
            "status": "draining" if draining else "ok",
            "version": self.manager.version,
            "uptime_seconds": time.time() - self.started,
            "in_flight": in_flight,
            "draining": draining,
        }

    def stats_payload(self) -> Dict:
        from repro.introspect import registry_payload

        snap = self.manager.current()
        with self._lock:
            requests = dict(self.requests)
            payload_counters = {
                "computed_vectors": self.computed_vectors,
                "error_responses": self.error_responses,
                "deltas_rejected": self.deltas_rejected,
                "in_flight": self.in_flight,
                "draining": self.draining,
            }
            edges = {
                "traversed": self.edges_traversed,
                "replayed": self.edges_replayed,
            }
            health = health_dict(self.health)
        return {
            "server": {
                "name": self.name,
                "source": self.source,
                "uptime_seconds": time.time() - self.started,
                "requests": requests,
                **payload_counters,
            },
            "graph": {
                "version": snap.version,
                "vertices": int(snap.graph.n),
                "arcs": int(snap.graph.num_arcs),
                "directed": bool(snap.graph.directed),
                "fingerprint": snap.fingerprint,
            },
            "snapshots": self.manager.report(),
            "score_lru": self.lru.stats(),
            "contribution_store": (
                self.store.stats() if self.store is not None else None
            ),
            "edges": edges,
            "health": health,
            "registries": registry_payload(),
            "repro_version": __version__,
        }


class BCRequestHandler(BaseHTTPRequestHandler):
    """Routes one HTTP request against the shared :class:`ServerState`."""

    server_version = f"repro-bc-serve/{__version__}"
    protocol_version = "HTTP/1.1"

    @property
    def state(self) -> ServerState:
        return self.server.state  # type: ignore[attr-defined]

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def address_string(self) -> str:  # unix sockets have no peer tuple
        if isinstance(self.client_address, tuple) and self.client_address:
            return str(self.client_address[0])
        return "local"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "verbose", False):
            BaseHTTPRequestHandler.log_message(self, format, *args)

    def _send_json(self, status: int, payload: Dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        # one request per connection: a drain must never wait on an
        # idle keep-alive client holding its handler thread open
        self.send_header("Connection", "close")
        self.close_connection = True
        self.end_headers()
        self.wfile.write(body)
        if status >= 400:
            with self.state._lock:
                self.state.error_responses += 1

    def _fail(self, exc: BaseException) -> None:
        if isinstance(exc, ServeError):
            status = exc.http_status
        elif isinstance(exc, TaskTimeoutError):
            status = 503
        elif isinstance(exc, WorkerCrashError):
            status = 500
        elif isinstance(exc, ReproError):
            status = 400
        else:
            status = 500
        self._send_json(
            status, {"error": str(exc), "type": type(exc).__name__}
        )

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query, keep_blank_values=True)
        with self.state._lock:
            self.state.in_flight += 1
        try:
            if path == "/healthz":
                self.state.count_request("healthz")
                self._send_json(200, self.state.healthz_payload())
            elif path == "/stats":
                self.state.count_request("stats")
                self._send_json(200, self.state.stats_payload())
            elif path == "/bc":
                self.state.count_request("bc")
                self._handle_bc(query)
            elif path.startswith("/vertex/"):
                self.state.count_request("vertex")
                self._handle_vertex(path[len("/vertex/"):], query)
            else:
                self._send_json(
                    404,
                    {
                        "error": f"unknown path {split.path!r}",
                        "paths": [
                            "/healthz", "/stats", "/bc",
                            "/vertex/<id>", "/delta",
                        ],
                    },
                )
        except BrokenPipeError:  # client went away mid-response
            pass
        except BaseException as exc:  # noqa: BLE001 - boundary
            try:
                self._fail(exc)
            except BrokenPipeError:
                pass
        finally:
            with self.state._lock:
                self.state.in_flight -= 1

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        split = urlsplit(self.path)
        path = split.path.rstrip("/")
        with self.state._lock:
            self.state.in_flight += 1
        try:
            if path == "/delta":
                self.state.count_request("delta")
                self._handle_delta()
            else:
                self._send_json(
                    404, {"error": f"unknown POST path {split.path!r}"}
                )
        except BrokenPipeError:
            pass
        except BaseException as exc:  # noqa: BLE001 - boundary
            if path == "/delta":
                with self.state._lock:
                    self.state.deltas_rejected += 1
            try:
                self._fail(exc)
            except BrokenPipeError:
                pass
        finally:
            with self.state._lock:
                self.state.in_flight -= 1

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def _handle_bc(self, query: Dict) -> None:
        params = RequestParams.from_query(query)
        with self.state.manager.acquire(params.version) as snap:
            entry, fp, cached = self.state.scores_for(snap, params)
            payload: Dict = {
                "version": snap.version,
                "config_fingerprint": fp,
                "cached": cached,
                "vertices": int(snap.graph.n),
                "meta": entry.meta,
            }
            if params.full:
                payload["scores"] = entry.scores.tolist()
            else:
                import numpy as np

                k = min(params.top, entry.scores.size)
                order = np.argsort(-entry.scores)[:k]
                payload["top"] = [
                    [int(v), float(entry.scores[v])]
                    for v in order.tolist()
                ]
            self._send_json(200, payload)

    def _handle_vertex(self, raw_id: str, query: Dict) -> None:
        params = RequestParams.from_query(query)
        try:
            vertex = int(raw_id)
        except ValueError:
            raise ServeError(
                f"vertex id must be an integer, got {raw_id!r}"
            ) from None
        with self.state.manager.acquire(params.version) as snap:
            if not 0 <= vertex < snap.graph.n:
                raise ServeError(
                    f"vertex {vertex} out of range [0, {snap.graph.n})",
                    http_status=404,
                )
            entry, fp, cached = self.state.scores_for(snap, params)
            self._send_json(
                200,
                {
                    "version": snap.version,
                    "config_fingerprint": fp,
                    "cached": cached,
                    "vertex": vertex,
                    "score": float(entry.scores[vertex]),
                },
            )

    def _handle_delta(self) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        added, removed = parse_delta_body(
            body, self.headers.get("Content-Type", "")
        )
        if added.size == 0 and removed.size == 0:
            raise ServeError("empty delta (no add/remove operations)")
        self._send_json(200, self.state.apply_delta(added, removed))


class BCHTTPServer(ThreadingHTTPServer):
    """TCP server: one handler thread per connection, clean drain.

    ``daemon_threads=False`` + ``block_on_close=True`` make
    ``server_close()`` join in-flight handlers — the SIGTERM drain
    contract (docs/SERVING.md).
    """

    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True
    verbose = False


class BCUnixServer(BCHTTPServer):
    """The same daemon on a unix domain socket (local, no TCP port)."""

    address_family = socket.AF_UNIX

    def server_bind(self) -> None:
        path = self.server_address
        if os.path.exists(path):
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(path)
            except OSError:
                os.unlink(path)  # stale socket from a dead daemon
            else:
                probe.close()
                raise ServeError(
                    f"unix socket {path} already has a live listener",
                    http_status=409,
                )
            finally:
                probe.close()
        self.socket.bind(path)
        self.server_name = str(path)
        self.server_port = 0

    def server_close(self) -> None:
        super().server_close()
        try:
            os.unlink(self.server_address)
        except OSError:
            pass


def make_server(
    graph,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    unix_socket: Optional[str] = None,
    base_config=None,
    store=None,
    lru: Optional[ScoreLRU] = None,
    name: str = "",
    source: Optional[str] = None,
    verbose: bool = False,
):
    """Build a ready-to-serve daemon; does not start the accept loop.

    Returns a :class:`BCHTTPServer` (or :class:`BCUnixServer` when
    ``unix_socket`` is given) whose ``state`` attribute holds the
    shared :class:`ServerState`.  ``port=0`` binds an ephemeral TCP
    port (read it back from ``server.server_address``).  Call
    ``serve_forever()`` to run and ``shutdown()`` + ``server_close()``
    to drain.
    """
    state = ServerState(
        graph,
        base_config=base_config,
        store=store,
        lru=lru,
        name=name,
        source=source,
    )
    try:
        if unix_socket is not None:
            server = BCUnixServer(str(unix_socket), BCRequestHandler)
        else:
            server = BCHTTPServer((host, port), BCRequestHandler)
    except OSError as exc:
        raise ServeError(
            f"cannot bind serving address "
            f"{unix_socket or f'{host}:{port}'}: {exc}",
            http_status=409,
        ) from exc
    server.state = state
    server.verbose = verbose
    return server
