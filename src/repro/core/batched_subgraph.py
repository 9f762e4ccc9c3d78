"""Batched per-sub-graph BC (Algorithm 2 over root batches).

:func:`repro.core.bc_subgraph.bc_subgraph` runs the forward BFS and the
fused four-dependency backward sweep one root at a time; inside the
dominant top sub-graph (the bulk of Table 4's cost) that pays per-level
numpy dispatch overhead ``|R_sgi|`` times over.  This module runs
batches of ``B`` roots through the batched kernels of the compute
-kernel registry (:mod:`repro.graph.kernels`) instead.

The four dependencies fold into one sweep.  ``δ_o2i = β(s)·δ_i2i``
(Algorithm 2's ``sizeO2I``), and ``δ_o2o`` obeys ``δ_i2o``'s recurrence
with every initial value scaled by ``β(s)``, so ``δ_o2o = β(s)·δ_i2o``.
Equation 7 then reads, for reached ``v ≠ s``,

    ``bc[v] += (1 + γ(s) + β(s)·[s ∈ A]) · y_s(v)``,
    ``y_s = δ_i2i + δ_i2o``,

and ``y_s`` is one Brandes sweep whose rows start from ``α`` at the
boundary articulation points (the reach-weighted accumulation of
Sarıyüce et al., arXiv:1209.6007).  The v == s pendant credit becomes
``γ(s)·(y_s(s) − [undirected] + α(s)·[s ∈ A])``.  These per-sub-graph
weights (:class:`~repro.graph.batched.SweepWeights`) are built once and
handed to :func:`~repro.graph.batched.batched_bc_scores`, so every
registered kernel — ``spmm`` by default — serves APGRE.

Scores match the per-source path within float64 summation tolerance
(the merge order differs), and the examined-edge tally is identical.

Small sub-graphs do not each pay a sweep of their own:
:func:`bc_bundle` stacks several into one block-diagonal graph and runs
all their roots as the rows of one batch — the paper's coarse-grained
level, sub-graphs as rows of one sweep.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.baselines.common import WorkCounter
from repro.decompose.partition import Subgraph
from repro.errors import AlgorithmError
from repro.graph.batched import (
    SweepWeights,
    batched_bc_scores,
    one_memory_reading,
)
from repro.graph.csr import CSRGraph
from repro.graph.ops import block_diagonal
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["bc_bundle", "bc_subgraph_batched", "sweep_weights"]


def _weights(
    is_art: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    gamma: np.ndarray,
    directed: bool,
) -> SweepWeights:
    ext = np.where(is_art, alpha, 0.0)
    return SweepWeights(
        ext=ext,
        scale=1.0 + gamma + np.where(is_art, beta, 0.0),
        gamma=gamma,
        shift=ext - (0.0 if directed else 1.0),
    )


def sweep_weights(sg: Subgraph, gamma: np.ndarray) -> SweepWeights:
    """The weighted-sweep form of one sub-graph's Algorithm 2.

    ``gamma`` is the pendant multiplicity per root (all zero when
    pendant elimination is off).
    """
    return _weights(
        sg.is_boundary_art, sg.alpha, sg.beta, gamma, sg.graph.directed
    )


@one_memory_reading()
def bc_subgraph_batched(
    sg: Subgraph,
    *,
    eliminate_pendants: bool = True,
    counter: Optional[WorkCounter] = None,
    roots: Optional[np.ndarray] = None,
    batch_size: Union[int, str] = "auto",
    workers: int = 1,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Local BC scores of one sub-graph via the batched kernel.

    Same contract as :func:`repro.core.bc_subgraph.bc_subgraph` (root
    subsets from different calls still sum to the full sub-graph
    scores), with roots processed ``batch_size`` at a time; ``"auto"``
    sizes the batch to a ~4 MiB working set from the sub-graph's own n
    and m (spmm: its widest level, or its dense form's row on shallow
    sub-graphs, see :func:`~repro.graph.kernels.resolve_kernel_batch`
    and :func:`~repro.graph.kernels.spmm_layout`), under a RAM ceiling
    divided by ``workers`` — pass the pool's worker count when several
    of these calls run concurrently, so they share one RAM budget
    instead of each claiming all of it.

    ``kernel`` names the registered compute kernel every batch runs
    (:mod:`repro.graph.kernels`): ``"arcs"``, ``"spmm"``, or
    ``"auto"`` for the host default.  ``None`` reads ``REPRO_KERNEL``
    and otherwise runs the host default (``spmm`` when scipy's
    sparsetools extension loads, else ``arcs``).
    """
    g = sg.graph
    n = g.n
    if n == 0:
        return np.zeros(n, dtype=SCORE_DTYPE)
    if eliminate_pendants:
        gamma = sg.gamma
        if roots is None:
            roots = sg.roots
    else:
        gamma = np.zeros(n, dtype=SCORE_DTYPE)
        if roots is None:
            roots = np.arange(n, dtype=VERTEX_DTYPE)
    if roots.size == 0:
        return np.zeros(n, dtype=SCORE_DTYPE)
    from repro.graph import kernels as _kernels

    kernel = _kernels.resolve_kernel_name(kernel)
    batch = _kernels.resolve_kernel_batch(
        batch_size, g, roots.size, kernel=kernel, workers=workers
    )
    if batch is None:
        raise AlgorithmError("bc_subgraph_batched needs a batch size")
    return batched_bc_scores(
        g,
        roots,
        batch=batch,
        counter=counter,
        kernel=kernel,
        weights=sweep_weights(sg, gamma),
    )


def bc_bundle(
    sgs: Sequence[Subgraph],
    *,
    kernel: str,
    eliminate_pendants: bool = True,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Local BC scores of several sub-graphs from one weighted sweep.

    The sub-graphs' CSRs are stacked into one block-diagonal graph
    (:func:`repro.graph.ops.block_diagonal`), their weights are
    concatenated, and all their roots run as the rows of a single
    batch of ``kernel``, a resolved registry name (rows never
    influence each other).  The caller sizes the
    bundle so that one batch fits.  A row never leaves its block, so
    member ``k`` gets exactly what :func:`bc_subgraph_batched` gives it
    alone: scores ``local[offsets[k]:offsets[k + 1]]`` (to float64
    tolerance) and examined-edge tally ``tallies[k]``, summed from the
    kernel's per-row tallies.  Returns ``(local, offsets, tallies)``.
    """
    from repro.graph import kernels as _kernels

    directed = bool(sgs[0].graph.directed)
    indptr, indices, offsets = block_diagonal(
        [(sg.graph.out_indptr, sg.graph.out_indices) for sg in sgs]
    )
    indices = indices.astype(VERTEX_DTYPE)
    in_indptr, in_indices = indptr, indices
    if directed:
        in_indptr, in_indices, _ = block_diagonal(
            [(sg.graph.in_indptr, sg.graph.in_indices) for sg in sgs]
        )
        in_indices = in_indices.astype(VERTEX_DTYPE)
    n = int(offsets[-1])
    graph = CSRGraph(n, indptr, indices, in_indptr, in_indices, directed)
    if eliminate_pendants:
        roots = [sg.roots for sg in sgs]
        gamma = np.concatenate([sg.gamma for sg in sgs])
    else:
        roots = [np.arange(sg.num_vertices) for sg in sgs]
        gamma = np.zeros(n, dtype=SCORE_DTYPE)
    root_ptr = np.zeros(len(sgs) + 1, dtype=np.int64)
    np.cumsum([r.size for r in roots], out=root_ptr[1:])
    if root_ptr[-1] == 0:  # kernels refuse an empty batch
        tallies = np.zeros(len(sgs), dtype=np.int64)
        return np.zeros(n, dtype=SCORE_DTYPE), offsets, tallies
    sources = np.concatenate(
        [r + off for r, off in zip(roots, offsets[:-1])]
    ).astype(np.int64)
    weights = _weights(
        np.concatenate([sg.is_boundary_art for sg in sgs]),
        np.concatenate([sg.alpha for sg in sgs]),
        np.concatenate([sg.beta for sg in sgs]),
        gamma,
        directed,
    )
    kern = _kernels.get_kernel(kernel)
    # no root count, so no layout choice: spmm keeps the sparse form,
    # whose rows touch only their own block (the dense form would sweep
    # every member's vertices in every row)
    context = (
        kern.prepare(graph, sources.size) if kern.prepare is not None
        else None
    )
    row_edges = np.zeros(sources.size, dtype=np.int64)
    local = kern.contributions(
        graph, sources, context=context, weights=weights,
        row_edges=row_edges,
    )
    cum = np.zeros(sources.size + 1, dtype=np.int64)
    np.cumsum(row_edges, out=cum[1:])
    return local, offsets, np.diff(cum[root_ptr])
