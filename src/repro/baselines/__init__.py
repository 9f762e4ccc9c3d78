"""Baseline BC algorithms (the paper's §5.1 comparators).

Every algorithm in this package computes the same quantity — exact,
unnormalised betweenness centrality over ordered vertex pairs — and is
cross-checked against the others by the test suite. They differ in
*how* the per-source work is organised, mirroring the parallelisation
strategies the paper benchmarks against:

===============  ====================================================
``serial``        Brandes' algorithm, one source at a time
                  (:func:`repro.baselines.brandes.brandes_bc`), plus a
                  pure-Python exact-arithmetic oracle for tests.
``preds``         Level-synchronous, predecessor lists (Bader–Madduri).
``succs``         Level-synchronous, successor scans, no predecessor
                  storage (Madduri et al.).
``lockSyncFree``  Edge-parallel, conflict-free accumulation (Tan et
                  al.).
``async``         Asynchronous worklist dependency propagation
                  (Prountzos–Pingali / Galois); undirected only, as in
                  the paper.
``hybrid``        Direction-optimising BFS (Shun–Blelloch / Ligra +
                  Beamer).
``sampling``      Source-sampled approximation (Bader et al.,
                  Brandes–Pich) — the paper's §5.2 GPU-sampling
                  comparison row.
===============  ====================================================
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "brandes_bc": ".brandes",
    "brandes_python_bc": ".brandes",
    "preds_bc": ".preds",
    "succs_bc": ".succs",
    "lockfree_bc": ".lockfree",
    "async_bc": ".async_bc",
    "hybrid_bc": ".hybrid",
    "sampling_bc": ".sampling",
    "PathSamplingResult": ".pathsampling",
    "path_sampling_bc": ".pathsampling",
    "vertex_diameter_bound": ".pathsampling",
    "AdaptiveEstimate": ".adaptive",
    "algebraic_bc": ".algebraic",
    "adaptive_bc": ".adaptive",
    "edge_betweenness_bc": ".edge_bc",
    "undirected_edge_scores": ".edge_bc",
    "dijkstra_sigma": ".weighted",
    "weighted_brandes_bc": ".weighted",
    "ALGORITHMS": ".registry",
    "get_algorithm": ".registry",
    "algorithm_names": ".registry",
})
