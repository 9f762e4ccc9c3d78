"""Warm-path BC serving: a long-lived daemon over the APGRE stack.

The cold path pays process startup, graph parsing and BCC
decomposition on every query; this package keeps all of it resident
(docs/SERVING.md):

* :mod:`repro.serve.snapshots` — versioned immutable graph snapshots
  with reader pinning, advanced by streamed edge deltas;
* :mod:`repro.serve.score_lru` — an LRU of assembled score vectors
  keyed by (graph version, config fingerprint);
* :mod:`repro.serve.protocol` — query-parameter parsing, per-request
  :class:`~repro.core.config.APGREConfig` construction and the config
  fingerprint;
* :mod:`repro.serve.server` — the stdlib HTTP daemon (TCP or unix
  socket) behind ``repro-bc serve``;
* :mod:`repro.serve.client` — the stdlib client behind
  ``repro-bc query``, the tests and ``benchmarks/bench_serving.py``.

Every name resolves on first use (a lazy namespace, as every package
here): importing :mod:`repro.serve` must not drag numpy-adjacent
machinery into processes that only want the client, and
``import repro.serve.client`` loads no numpy.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "BCRequestHandler": ".server",
    "RequestParams": ".protocol",
    "ScoreLRU": ".score_lru",
    "ServeClient": ".client",
    "ServerState": ".server",
    "Snapshot": ".snapshots",
    "SnapshotManager": ".snapshots",
    "build_config": ".protocol",
    "config_fingerprint": ".protocol",
    "make_server": ".server",
    "parse_delta_body": ".protocol",
})
