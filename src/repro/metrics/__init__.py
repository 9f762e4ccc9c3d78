"""Measurement and instrumentation.

Everything the evaluation section needs to quantify:

* :mod:`repro.metrics.teps` — the paper's TEPS_BC = n·m/t search rate
  (Tables 2/3);
* :mod:`repro.metrics.redundancy` — partial/total redundancy
  accounting (Figure 7);
* :mod:`repro.metrics.breakdown` — APGRE phase timing shares
  (Figure 8);
* :mod:`repro.metrics.stats` — graph and partition statistics
  (Tables 1/4);
* :mod:`repro.metrics.timers` — tiny wall-clock helpers.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "teps": ".teps",
    "mteps": ".teps",
    "RedundancyBreakdown": ".redundancy",
    "measure_redundancy": ".redundancy",
    "phase_breakdown": ".breakdown",
    "GraphStats": ".stats",
    "PartitionStats": ".stats",
    "SubgraphRow": ".stats",
    "graph_stats": ".stats",
    "partition_stats": ".stats",
    "ScoreComparison": ".comparison",
    "compare_scores": ".comparison",
    "kendall_tau": ".comparison",
    "top_k_overlap": ".comparison",
    "Timer": ".timers",
    "stopwatch": ".timers",
})
