"""Graph substrate: CSR storage, builders, conversions, traversals.

The whole package operates on :class:`repro.graph.csr.CSRGraph`, an
immutable compressed-sparse-row adjacency structure mirroring the
storage used by the paper's C++ implementation (§5.1: "the graphs are
stored in Compressed Sparse Row (CSR) format").
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "CSRGraph": ".csr",
    "from_edges": ".build",
    "from_adjacency": ".build",
    "from_networkx": ".build",
    "empty_graph": ".build",
    "connected_components": ".ops",
    "degrees": ".ops",
    "induced_subgraph": ".ops",
    "reachable_from": ".ops",
    "reverse_graph": ".ops",
    "to_undirected": ".ops",
    "core_numbers": ".kcore",
    "k_core": ".kcore",
    "apply_ordering": ".ordering",
    "bfs_order": ".ordering",
    "degree_order": ".ordering",
    "random_order": ".ordering",
    "SCCResult": ".scc",
    "condensation": ".scc",
    "strongly_connected_components": ".scc",
    "BFSResult": ".traversal",
    "bfs": ".traversal",
    "bfs_blocked": ".traversal",
    "bfs_levels": ".traversal",
    "bfs_sigma": ".traversal",
    "reverse_bfs_blocked": ".traversal",
    "BatchedBFSResult": ".batched",
    "auto_batch_size": ".batched",
    "batched_bc_scores": ".batched",
    "batched_contributions": ".batched",
    "bfs_sigma_batched": ".batched",
    "resolve_batch_size": ".batched",
    "spmm_available": ".batched",
    "spmm_contributions": ".batched",
})
