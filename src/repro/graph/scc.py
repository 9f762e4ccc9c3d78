"""Strongly connected components and condensation (directed substrate).

Directed analogues of the component machinery: Tarjan's SCC algorithm
(iterative, like the biconnectivity pass) and the condensation DAG.
Used by the test oracles for directed reachability reasoning and by
downstream users analysing directed suite graphs (e.g. the email
analogues, whose pendant sources are exactly the singleton SCCs with
no in-arcs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import GraphValidationError
from repro.graph.csr import CSRGraph
from repro.types import VERTEX_DTYPE

__all__ = ["SCCResult", "strongly_connected_components", "condensation"]


@dataclass
class SCCResult:
    """Strongly-connected-component labelling.

    Attributes
    ----------
    labels:
        ``labels[v]`` is the component id of ``v``. Ids are assigned
        in *reverse topological order* of the condensation (Tarjan's
        natural output: a component is numbered when it is popped, so
        every arc between components goes from a higher label to a
        lower one).
    num_components:
        Component count.
    """

    labels: np.ndarray
    num_components: int

    def sizes(self) -> np.ndarray:
        """Component sizes indexed by component id."""
        return np.bincount(self.labels, minlength=self.num_components)

    def largest(self) -> np.ndarray:
        """Vertex ids of the largest SCC."""
        sizes = self.sizes()
        return np.flatnonzero(self.labels == int(np.argmax(sizes)))


def strongly_connected_components(graph: CSRGraph) -> SCCResult:
    """Tarjan's SCC algorithm, iteratively (no recursion limit).

    Undirected graphs are rejected: every undirected component is
    trivially strongly connected, so a silent answer would mask a
    caller bug — use :func:`repro.graph.ops.connected_components`.
    """
    if not graph.directed:
        raise GraphValidationError(
            "strongly_connected_components requires a directed graph; "
            "use connected_components for undirected input"
        )
    n = graph.n
    # the DFS reads and writes one element at a time: Python lists do
    # that several times faster than numpy scalar indexing
    indptr = graph.out_indptr.tolist()
    indices = graph.out_indices.tolist()
    index = [-1] * n  # discovery order
    low = [0] * n
    on_stack = [False] * n
    labels = [-1] * n
    comp_stack: List[int] = []
    cursor = indptr[:-1]
    counter = 0
    num_components = 0

    for root in range(n):
        if index[root] >= 0:
            continue
        dfs = [root]
        index[root] = low[root] = counter
        counter += 1
        comp_stack.append(root)
        on_stack[root] = True
        while dfs:
            v = dfs[-1]
            if cursor[v] < indptr[v + 1]:
                w = indices[cursor[v]]
                cursor[v] += 1
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    comp_stack.append(w)
                    on_stack[w] = True
                    dfs.append(w)
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                dfs.pop()
                if dfs:
                    u = dfs[-1]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = comp_stack.pop()
                        on_stack[w] = False
                        labels[w] = num_components
                        if w == v:
                            break
                    num_components += 1
    return SCCResult(
        labels=np.asarray(labels, dtype=VERTEX_DTYPE),
        num_components=num_components,
    )


def condensation(graph: CSRGraph) -> Tuple[CSRGraph, SCCResult]:
    """The condensation DAG: one vertex per SCC, deduplicated arcs.

    Returns the condensed (directed, acyclic) graph and the SCC
    labelling; condensed vertex ``c`` corresponds to
    ``labels == c``.
    """
    scc = strongly_connected_components(graph)
    src, dst = graph.arcs()
    csrc = scc.labels[src].astype(np.int64)
    cdst = scc.labels[dst].astype(np.int64)
    keep = csrc != cdst
    condensed = CSRGraph.from_arcs(
        scc.num_components, csrc[keep], cdst[keep], directed=True
    )
    return condensed, scc
