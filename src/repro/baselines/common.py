"""Shared machinery for the baseline BC algorithms.

All level-synchronous baselines share the same skeleton (Brandes'
two-phase structure); they differ in how the backward dependency
accumulation locates shortest-path-DAG arcs:

``"arcs"``
    Replay the DAG arcs recorded during the forward phase —
    functionally the *predecessor list* strategy (the lists are exactly
    the per-level arc arrays).
``"succs"``
    Re-expand each level's out-neighbourhoods and keep arcs whose head
    is one level deeper — the *successor* strategy: no stored lists,
    extra edge traversals.
``"edge"``
    Scan the full arc array once per level and mask by level — the
    edge-parallel, conflict-free strategy.

The work counter records edges *examined* (the quantity behind the
paper's MTEPS tables and redundancy breakdown).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph
from repro.graph.traversal import BFSResult, bfs_sigma, expand_frontier
from repro.types import SCORE_DTYPE

__all__ = [
    "WorkCounter",
    "accumulate_dependencies",
    "per_source_delta",
    "run_per_source",
]


@dataclass
class WorkCounter:
    """Mutable tally of edges examined by an algorithm run.

    ``edges`` counts forward probes and backward-sweep replays: every
    arc examined, the quantity behind TEPS.
    """

    edges: int = 0

    def add(self, k: int) -> None:
        self.edges += int(k)

    @property
    def examined(self) -> int:
        """Total arcs examined (the TEPS numerator): ``edges``."""
        return self.edges


def accumulate_dependencies(
    graph: CSRGraph,
    res: BFSResult,
    *,
    mode: str = "succs",
    counter: Optional[WorkCounter] = None,
) -> np.ndarray:
    """Backward phase: compute δ_s(v) for one source's BFS result.

    Implements the recursion δ_s(v) = Σ_w (σ_sv/σ_sw)(1 + δ_s(w)) one
    level at a time, deepest first; arcs within a level step never
    depend on each other, so each step is a single vectorised
    gather/scatter (the paper's "for all v ∈ Levels[currLevel] in
    parallel").
    """
    n = graph.n
    delta = np.zeros(n, dtype=SCORE_DTYPE)
    sigma = res.sigma
    dist = res.dist
    depth = res.depth
    if mode == "arcs":
        if res.level_arcs is None:
            raise AlgorithmError("mode='arcs' needs keep_level_arcs=True")
        for d in range(depth - 1, -1, -1):
            src, dst = res.level_arcs[d]
            if counter is not None:
                counter.add(src.size)
            if src.size == 0:
                continue
            contrib = sigma[src] / sigma[dst] * (1.0 + delta[dst])
            np.add.at(delta, src, contrib)
    elif mode == "succs":
        for d in range(depth - 1, -1, -1):
            frontier = res.levels[d]
            dst, src = expand_frontier(
                graph.out_indptr, graph.out_indices, frontier
            )
            if counter is not None:
                counter.add(dst.size)
            keep = dist[dst] == d + 1
            src, dst = src[keep], dst[keep]
            if src.size == 0:
                continue
            contrib = sigma[src] / sigma[dst] * (1.0 + delta[dst])
            np.add.at(delta, src, contrib)
    elif mode == "edge":
        all_src, all_dst = graph.arcs()
        for d in range(depth - 1, -1, -1):
            if counter is not None:
                counter.add(all_src.size)
            keep = (dist[all_src] == d) & (dist[all_dst] == d + 1)
            src, dst = all_src[keep], all_dst[keep]
            if src.size == 0:
                continue
            contrib = sigma[src] / sigma[dst] * (1.0 + delta[dst])
            np.add.at(delta, src, contrib)
    else:
        raise AlgorithmError(f"unknown accumulation mode {mode!r}")
    return delta


def per_source_delta(
    graph: CSRGraph,
    source: int,
    *,
    mode: str = "succs",
    forward: Callable[..., BFSResult] = bfs_sigma,
    counter: Optional[WorkCounter] = None,
) -> np.ndarray:
    """δ_s(·) for one source: forward BFS + backward accumulation."""
    res = forward(graph, source, keep_level_arcs=(mode == "arcs"))
    if counter is not None:
        counter.add(res.edges_traversed)
    return accumulate_dependencies(graph, res, mode=mode, counter=counter)


def run_per_source(
    graph: CSRGraph,
    *,
    sources: Optional[Sequence[int]] = None,
    mode: str = "succs",
    forward: Callable[..., BFSResult] = bfs_sigma,
    counter: Optional[WorkCounter] = None,
    workers: int = 1,
    supervisor=None,
    health=None,
    batch_size=None,
    steal: bool = True,
    backend: Optional[str] = None,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Sum per-source dependencies into BC scores.

    ``workers > 1`` distributes sources over the *supervised*
    fork-based process pool (coarse-grained parallelism — the strategy
    available to Python given the GIL; see DESIGN.md §5 and
    docs/ROBUSTNESS.md): a crashed or stuck worker is retried and, if
    need be, its chunk re-runs serially instead of hanging the map.
    ``supervisor`` (a :class:`repro.parallel.supervisor
    .SupervisorConfig`) tunes that policy and ``health`` (a
    :class:`~repro.parallel.supervisor.RunHealth`) collects the
    report.

    ``batch_size`` (a positive int or ``"auto"``) routes the run
    through the multi-source kernel
    (:mod:`repro.graph.batched`): sources advance ``B`` at a time over
    shared ``(B, n)`` level steps.  Batching realises the ``"arcs"``
    (recorded-DAG) accumulation strategy, so it requires
    ``mode="arcs"`` with the default forward BFS; scores match the
    per-source path within float64 tolerance and the edge tally is
    identical.

    Composing both dispatches through the execution-backend registry
    (:mod:`repro.parallel.backends`): ``backend`` names the engine
    (``"serial"`` / ``"threads"`` / ``"processes"`` / ``"auto"``), and
    ``None`` defers to ``REPRO_PARALLEL_BACKEND`` and then the host
    default — worker *threads* over the shared in-process CSR when
    scipy's GIL-releasing SpMM kernel is available, the fork-based
    shared-memory process pool otherwise.  Either way workers pull
    LPT-ordered source batches (``steal`` lets idle workers take over
    a straggler's remaining batches) and — unlike the per-source chunk
    pool — ``counter`` aggregates the exact serial edge tally across
    workers.  Passing ``backend`` without ``batch_size`` implies
    ``batch_size="auto"`` (the engines run the batched kernel).  On
    the per-source pool (``workers > 1`` without ``batch_size``)
    counters still stay in the children; pass ``workers=1`` there when
    instrumenting.

    ``kernel`` names the compute kernel the batched paths traverse
    with (:mod:`repro.graph.kernels`: ``"arcs"`` / ``"spmm"``, or
    ``"auto"`` for the host default); ``None`` defers to
    ``REPRO_KERNEL`` and then the host default.  It requires a
    batched run, so passing it without ``batch_size`` implies
    ``batch_size="auto"`` (like ``backend``).
    """
    n = graph.n
    if sources is None:
        source_list: Sequence[int] = range(n)
    else:
        source_list = sources
    if (backend is not None or kernel is not None) and batch_size is None:
        batch_size = "auto"
    if batch_size is not None:
        if mode != "arcs":
            raise AlgorithmError(
                f"batch_size implements the 'arcs' accumulation "
                f"strategy; got mode={mode!r}"
            )
        if forward is not bfs_sigma:
            raise AlgorithmError(
                "batch_size requires the default bfs_sigma forward"
            )
        # price the RAM model against the kernel that will actually run
        from repro.graph import kernels as _kernels
        from repro.graph.batched import one_memory_reading

        kernel = _kernels.resolve_kernel_name(kernel)
        source_list = list(source_list)
    if batch_size is not None and (workers > 1 or backend is not None):
        from repro.parallel.backends import resolve_backend

        engine = resolve_backend(backend)
        with one_memory_reading():
            batch = _kernels.resolve_kernel_batch(
                batch_size,
                graph,
                len(source_list),
                kernel=kernel,
                workers=workers,
                shared_csr=engine.shared_csr,
            )
            return engine.scores(
                graph,
                source_list,
                batch=batch,
                workers=workers,
                steal=steal,
                counter=counter,
                config=supervisor,
                health=health,
                kernel=kernel,
            )
    if workers > 1:
        from repro.parallel.pool import map_sources_bc

        return map_sources_bc(
            graph,
            list(source_list),
            mode=mode,
            forward=forward,
            workers=workers,
            supervisor=supervisor,
            health=health,
        )
    if batch_size is not None:
        from repro.graph.batched import batched_bc_scores

        with one_memory_reading():
            batch = _kernels.resolve_kernel_batch(
                batch_size, graph, len(source_list), kernel=kernel
            )
            return batched_bc_scores(
                graph, source_list, batch=batch, counter=counter,
                kernel=kernel,
            )
    bc = np.zeros(n, dtype=SCORE_DTYPE)
    for s in source_list:
        delta = per_source_delta(
            graph, int(s), mode=mode, forward=forward, counter=counter
        )
        delta[s] = 0.0
        bc += delta
    return bc
