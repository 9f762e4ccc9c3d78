"""Synthetic graph generators.

Every benchmark workload in this reproduction is generated here:
classic random models (Erdős–Rényi, Barabási–Albert, R-MAT,
Watts–Strogatz), road-like lattices, structured fixtures (including the
paper's Figure-3 worked example) and — most importantly — the
*paper-analogue suite* (:mod:`repro.generators.suite`) that stands in
for the 12 SNAP/DIMACS graphs of Table 1 (see DESIGN.md §1 for the
substitution rationale).
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "gnm_random_graph": ".random",
    "gnp_random_graph": ".random",
    "barabasi_albert_graph": ".powerlaw",
    "powerlaw_cluster_graph": ".powerlaw",
    "rmat_graph": ".rmat",
    "watts_strogatz_graph": ".smallworld",
    "grid_road_graph": ".road",
    "districted_road_graph": ".road",
    "barbell_graph": ".structured",
    "block_tree_graph": ".structured",
    "caterpillar_graph": ".structured",
    "complete_graph": ".structured",
    "cycle_graph": ".structured",
    "disease_network_analogue": ".structured",
    "paper_example_graph": ".structured",
    "path_graph": ".structured",
    "pendant_augment": ".structured",
    "star_graph": ".structured",
    "GraphSpec": ".suite",
    "SUITE_SPECS": ".suite",
    "analogue_graph": ".suite",
    "paper_suite": ".suite",
    "suite_names": ".suite",
})
