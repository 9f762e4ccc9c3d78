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
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.baselines.common import WorkCounter
from repro.decompose.partition import Subgraph
from repro.errors import AlgorithmError
from repro.graph.batched import (
    SweepWeights,
    batched_bc_scores,
    resolve_batch_size,
)
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["bc_subgraph_batched", "sweep_weights"]


def sweep_weights(sg: Subgraph, gamma: np.ndarray) -> SweepWeights:
    """The weighted-sweep form of one sub-graph's Algorithm 2.

    ``gamma`` is the pendant multiplicity per root (all zero when
    pendant elimination is off).
    """
    is_art = sg.is_boundary_art
    ext = np.where(is_art, sg.alpha, 0.0)
    return SweepWeights(
        ext=ext,
        scale=1.0 + gamma + np.where(is_art, sg.beta, 0.0),
        gamma=gamma,
        shift=ext - (0.0 if sg.graph.directed else 1.0),
    )


def bc_subgraph_batched(
    sg: Subgraph,
    *,
    eliminate_pendants: bool = True,
    counter: Optional[WorkCounter] = None,
    roots: Optional[np.ndarray] = None,
    batch_size: Union[int, str] = "auto",
    workers: int = 1,
    compress: bool = False,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Local BC scores of one sub-graph via the batched kernel.

    Same contract as :func:`repro.core.bc_subgraph.bc_subgraph` (root
    subsets from different calls still sum to the full sub-graph
    scores), with roots processed ``batch_size`` at a time; ``"auto"``
    sizes the batch to a ~4 MiB working set from the sub-graph's own n
    and m, under a RAM ceiling divided by ``workers`` — pass the
    pool's worker count when several of these calls run concurrently,
    so they share one RAM budget instead of each claiming all of it.
    ``compress=True`` routes through the structural compression kernel
    when any reduction rule fires (the shrunken core does not benefit
    from SpMM batching); trivial plans stay on the batched path.

    ``kernel`` names the registered compute kernel every batch runs
    (:mod:`repro.graph.kernels`): ``"arcs"``, ``"spmm"``, ``"pull"``,
    or ``"auto"`` to select from this sub-graph's structure.  ``None``
    reads ``REPRO_KERNEL`` and otherwise runs the host default
    (``spmm`` when scipy's sparsetools extension loads, else
    ``arcs``).
    """
    if compress:
        from repro.compress import bc_subgraph_compressed, compression_plan

        plan = compression_plan(sg, eliminate_pendants=eliminate_pendants)
        if plan.nontrivial:
            return bc_subgraph_compressed(
                sg,
                plan,
                eliminate_pendants=eliminate_pendants,
                counter=counter,
                roots=roots,
            )
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

    kernel = _kernels.resolve_kernel_name(kernel, graph=g)
    batch = resolve_batch_size(
        batch_size, n, g.num_arcs, workers=workers, kernel=kernel
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
