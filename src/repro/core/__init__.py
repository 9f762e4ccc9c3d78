"""APGRE — the paper's contribution.

* :mod:`repro.core.dependencies` — the four-dependency backward kernel
  (paper equations 3–6);
* :mod:`repro.core.bc_subgraph` — per-sub-graph BC (paper Algorithm 2,
  with the R/γ total-redundancy elimination and the v==s merge rule of
  equation 7);
* :mod:`repro.core.apgre` — the three-step driver (Algorithm 5 /
  Figure 5): decompose, count α/β, compute per-sub-graph scores and
  merge (equation 8), with serial / process / thread execution modes;
* :mod:`repro.core.config` / :mod:`repro.core.result` — options and
  the instrumented result type.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "APGREConfig": ".config",
    "APGREStats": ".result",
    "BCResult": ".result",
    "PhaseTimings": ".result",
    "bc_subgraph": ".bc_subgraph",
    "bc_subgraph_batched": ".batched_subgraph",
    "apgre_bc": ".apgre",
    "apgre_bc_detailed": ".apgre",
    "treefold_bc": ".treefold",
    "peel_pendant_trees": ".treefold",
    "weighted_apgre_bc": ".weighted_apgre",
})
