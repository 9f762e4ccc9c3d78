"""Graph file I/O.

Readers for the three on-disk formats the paper's inputs ship in:
SNAP-style edge lists, DIMACS shortest-path ``.gr`` files, and
MatrixMarket coordinate files — plus writers and a format-sniffing
loader.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "read_edgelist": ".edgelist",
    "write_edgelist": ".edgelist",
    "read_dimacs": ".dimacs",
    "write_dimacs": ".dimacs",
    "read_matrix_market": ".matrixmarket",
    "write_matrix_market": ".matrixmarket",
    "load_npz": ".binary",
    "save_npz": ".binary",
    "load_graph": ".registry",
    "save_graph": ".registry",
    "sniff_format": ".registry",
})
