"""Graph decomposition by articulation points.

Implements steps 1 and 2 of APGRE (paper §3/§4):

* :mod:`repro.decompose.articulation` — iterative Hopcroft–Tarjan
  articulation points + biconnected components (the paper's
  ``FINDBCC``);
* :mod:`repro.decompose.bcc_tree` — the block-cut tree ("any connected
  graph decomposes into a tree of biconnected components", §3.1);
* :mod:`repro.decompose.partition` — the paper's Algorithm 1
  (``GraphPartition``): small-BCC merging around the top BCC, sub-graph
  construction, root sets R and pendant multiplicities γ;
* :mod:`repro.decompose.alphabeta` — α/β counting per articulation
  point via blocked (reverse) BFS, with a block-cut-tree fast path for
  undirected graphs.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "BCCResult": ".articulation",
    "articulation_points": ".articulation",
    "bridges": ".articulation",
    "biconnected_components": ".articulation",
    "BlockCutTree": ".bcc_tree",
    "build_block_cut_tree": ".bcc_tree",
    "Partition": ".partition",
    "Subgraph": ".partition",
    "graph_partition": ".partition",
    "compute_alpha_beta": ".alphabeta",
})
