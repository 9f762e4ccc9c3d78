"""Decomposition-aware contribution cache (docs/CACHING.md).

APGRE's BCC tree localises dependency flow: a sub-graph's local score
vector depends only on its own edges plus the α/β/γ summaries crossing
its articulation points (PAPER.md §3–4).  This package turns that
theorem into a cache:

* :mod:`repro.cache.fingerprint` — canonical, content-addressed keys
  over exactly the inputs the local scores depend on;
* :mod:`repro.cache.store` — an in-memory LRU with an optional
  on-disk layer (``cache_dir``), storing each sub-graph's local score
  vector *and* its exact examined-edge tally so TEPS accounting stays
  honest on replay;
* :mod:`repro.cache.incremental` — ``apgre_bc_delta``: apply a small
  edge delta, re-decompose, and recompute only the sub-graphs whose
  fingerprints changed, replaying everything else.

Every name resolves on first use (a lazy namespace, as every package
here), so the delta path (``apgre_bc_delta`` and the APGRE run it
imports) loads only when first used.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "graph_fingerprint": ".fingerprint",
    "subgraph_key": ".fingerprint",
    "CacheEntry": ".store",
    "CacheStats": ".store",
    "ContributionStore": ".store",
    "resolve_store": ".store",
    "apgre_bc_delta": ".incremental",
    "apply_edge_delta": ".incremental",
    "DeltaResult": ".incremental",
    "parse_delta_file": ".incremental",
    "parse_delta_lines": ".incremental",
})
