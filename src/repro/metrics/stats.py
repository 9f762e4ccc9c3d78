"""Graph and partition statistics (paper Tables 1 and 4).

Table 1 lists each evaluation graph's size and directedness; Table 4
reports, per graph, the number of sub-graphs and the sizes of the
three largest (with the top sub-graph's share of vertices and edges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.decompose.partition import Partition
from repro.graph.csr import CSRGraph
from repro.graph.ops import degrees

__all__ = [
    "GraphStats",
    "SubgraphRow",
    "PartitionStats",
    "bcc_size_histogram",
    "graph_stats",
    "partition_stats",
]


def bcc_size_histogram(graph: CSRGraph):
    """Power-of-two histogram of biconnected-component vertex sizes.

    Returns ``[(lo, hi, count), ...]`` over occupied buckets
    ``[2^k, 2^{k+1})``, largest-size bucket last.  A lone BCC in the
    top bucket holding most of the graph is the dominant sub-graph
    whose sweep dominates an APGRE run (Table 4's top-sub-graph
    share).
    """
    from repro.decompose.articulation import biconnected_components
    from repro.graph.ops import to_undirected

    und = to_undirected(graph) if graph.directed else graph
    result = biconnected_components(und)
    sizes = np.array(
        [v.size for v in result.component_vertices], dtype=np.int64
    )
    buckets = []
    if sizes.size == 0:
        return buckets
    lo = 1
    top = int(sizes.max())
    while lo <= top:
        hi = 2 * lo - 1
        count = int(((sizes >= lo) & (sizes <= hi)).sum())
        if count:
            buckets.append((lo, hi, count))
        lo *= 2
    return buckets


@dataclass
class GraphStats:
    """Structural summary of one graph (Table-1 row + APGRE knobs)."""

    name: str
    num_vertices: int
    num_arcs: int
    directed: bool
    num_articulation_points: int
    num_pendants: int  # degree-1 (und.) / source-pendant (dir.) vertices
    max_degree: int
    mean_degree: float

    @property
    def pendant_fraction(self) -> float:
        return self.num_pendants / self.num_vertices if self.num_vertices else 0.0


def graph_stats(graph: CSRGraph, *, name: str = "") -> GraphStats:
    """Compute a :class:`GraphStats` (runs one BCC decomposition)."""
    from repro.decompose.articulation import articulation_points

    deg = degrees(graph)
    if graph.directed:
        pend = int(
            ((graph.in_degrees() == 0) & (graph.out_degrees() == 1)).sum()
        )
    else:
        pend = int((deg == 1).sum())
    return GraphStats(
        name=name,
        num_vertices=graph.n,
        num_arcs=graph.num_arcs,
        directed=graph.directed,
        num_articulation_points=int(articulation_points(graph).size),
        num_pendants=pend,
        max_degree=int(deg.max()) if graph.n else 0,
        mean_degree=float(deg.mean()) if graph.n else 0.0,
    )


@dataclass
class SubgraphRow:
    """One sub-graph's size row (Table 4 columns)."""

    num_vertices: int
    num_arcs: int
    vertex_fraction: float  # V / G.V
    arc_fraction: float  # E / G.E


@dataclass
class PartitionStats:
    """Table-4 row for one graph."""

    name: str
    num_subgraphs: int
    rows: List[SubgraphRow]  # largest-first; at least top/2nd/3rd

    @property
    def top(self) -> SubgraphRow:
        return self.rows[0]


def partition_stats(
    partition: Partition, *, name: str = "", keep: int = 3
) -> PartitionStats:
    """Summarise a partition as the paper's Table 4 does.

    ``keep`` limits how many largest sub-graphs are materialised as
    rows (the paper shows three).
    """
    g = partition.graph
    n = max(g.n, 1)
    m = max(g.num_arcs, 1)
    ordered = sorted(
        partition.subgraphs, key=lambda s: (-s.num_arcs, -s.num_vertices)
    )
    rows = [
        SubgraphRow(
            num_vertices=sg.num_vertices,
            num_arcs=sg.num_arcs,
            vertex_fraction=sg.num_vertices / n,
            arc_fraction=sg.num_arcs / m,
        )
        for sg in ordered[:keep]
    ]
    while len(rows) < keep:  # tiny graphs may have < keep sub-graphs
        rows.append(SubgraphRow(0, 0, 0.0, 0.0))
    return PartitionStats(
        name=name, num_subgraphs=partition.num_subgraphs, rows=rows
    )
