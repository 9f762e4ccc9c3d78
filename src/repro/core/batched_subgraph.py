"""Batched per-sub-graph BC (Algorithm 2 over root batches).

:func:`repro.core.bc_subgraph.bc_subgraph` runs the forward BFS and the
fused four-dependency backward sweep one root at a time; inside the
dominant top sub-graph (the bulk of Table 4's cost) that pays per-level
numpy dispatch overhead ``|R_sgi|`` times over.  This module runs a
batch of ``B`` roots through the ``(B, n)`` kernels of
:mod:`repro.graph.batched` instead, fusing the batch dimension into
every phase of Algorithm 2:

* Phase 0 initialisation broadcasts the ``α`` row across the batch and
  scales the ``δ_o2o`` rows by each root's own ``β(s)`` (zero for
  non-articulation roots, which keeps their ``δ_o2o`` sweep an exact
  no-op);
* Phase 2 replays the batch's shared per-level DAG arcs through three
  flattened scatter-adds — the same fused sweep as
  :func:`repro.core.dependencies.accumulate_four_dependencies`, one
  kernel launch per level for the whole batch;
* the score merge (equation 7) applies the per-root γ multiplicities,
  the four in/out dependency cases and the v == s pendant credit as
  row-vectorised expressions over the ``(B, n)`` matrices.

Scores match the per-source path within float64 summation tolerance
(the merge order differs), and the examined-edge tally is identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from repro.baselines.common import WorkCounter
from repro.decompose.partition import Subgraph
from repro.errors import AlgorithmError
from repro.graph.batched import (
    BatchedBFSResult,
    arc_segments,
    bfs_sigma_batched,
    resolve_batch_size,
)
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = [
    "BatchedFourDependencies",
    "accumulate_four_dependencies_batched",
    "bc_subgraph_batched",
]


@dataclass
class BatchedFourDependencies:
    """Per-vertex dependency matrices for one batch of roots.

    Row ``i`` of each matrix equals the serial
    :class:`~repro.core.dependencies.FourDependencies` arrays for
    ``sources[i]``; ``size_o2i[i]`` is ``β(s_i)`` when root ``i`` is a
    boundary articulation point and ``0.0`` otherwise.
    """

    sources: np.ndarray
    source_is_art: np.ndarray
    delta_i2i: np.ndarray
    delta_i2o: np.ndarray
    delta_o2o: np.ndarray
    size_o2i: np.ndarray


def accumulate_four_dependencies_batched(
    res: BatchedBFSResult,
    *,
    alpha: np.ndarray,
    beta: np.ndarray,
    is_art: np.ndarray,
    counter: Optional[WorkCounter] = None,
) -> BatchedFourDependencies:
    """Run the fused backward sweep for a whole batch of roots.

    The ``δ_o2o`` scatter only runs when at least one root in the batch
    is a boundary articulation point; rows whose root is not one have a
    zero ``β(s)`` initialisation, so sweeping them alongside art-rooted
    rows is numerically exact (0 stays 0).
    """
    if res.level_arcs is None:
        raise AlgorithmError(
            "batched four-dependency kernel needs keep_level_arcs=True"
        )
    b, n = res.dist.shape
    srcs = res.sources
    rows0 = np.arange(b)
    sigma_flat = res.sigma.reshape(-1)
    src_art = is_art[srcs].astype(bool)
    any_art = bool(src_art.any())
    size_o2i = np.where(src_art, beta[srcs].astype(SCORE_DTYPE), 0.0)

    delta_i2i = np.zeros((b, n), dtype=SCORE_DTYPE)
    delta_i2o = np.zeros((b, n), dtype=SCORE_DTYPE)
    delta_o2o = np.zeros((b, n), dtype=SCORE_DTYPE)

    # Phase 0 (Algorithm 2 lines 10-18), broadcast across the batch
    arts = np.flatnonzero(is_art)
    alpha_arts = alpha[arts].astype(SCORE_DTYPE)
    delta_i2o[:, arts] = alpha_arts
    delta_i2o[rows0, srcs] = 0.0  # "for all i ∈ A_sgi && i != s"
    if any_art:
        delta_o2o[:, arts] = size_o2i[:, None] * alpha_arts[None, :]
        delta_o2o[rows0, srcs] = 0.0

    # Phase 2 (lines 35-49): fused sweep, deepest level first, one
    # gather of σ_src/σ_dst feeding three flattened segmented sums
    # (level arcs are sorted by tail, see repro.graph.batched)
    i2i_flat = delta_i2i.reshape(-1)
    i2o_flat = delta_i2o.reshape(-1)
    o2o_flat = delta_o2o.reshape(-1)
    for flat_src, flat_dst in reversed(res.level_arcs):
        if counter is not None:
            counter.add(flat_src.size)
        if flat_src.size == 0:
            continue
        coef = sigma_flat[flat_src] / sigma_flat[flat_dst]
        tails, runs = arc_segments(flat_src)
        i2i_flat[tails] += np.add.reduceat(
            coef * (1.0 + i2i_flat[flat_dst]), runs
        )
        i2o_flat[tails] += np.add.reduceat(coef * i2o_flat[flat_dst], runs)
        if any_art:
            o2o_flat[tails] += np.add.reduceat(
                coef * o2o_flat[flat_dst], runs
            )

    return BatchedFourDependencies(
        sources=srcs,
        source_is_art=src_art,
        delta_i2i=delta_i2i,
        delta_i2o=delta_i2o,
        delta_o2o=delta_o2o,
        size_o2i=size_o2i,
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

    ``kernel`` picks the *forward traversal* strategy
    (:mod:`repro.graph.kernels`): ``"pull"`` (or ``"auto"`` resolving
    to it for this sub-graph) swaps in the direction-optimizing BFS,
    whose recorded per-level DAG arcs are identical to the push
    kernel's, so the fused four-dependency backward sweep replays them
    unchanged.  The other names keep the push forward — the sweep
    needs recorded arcs, which the spmm score kernel does not
    produce (see docs/KERNELS.md).
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
    undirected = not g.directed
    bc = np.zeros(n, dtype=SCORE_DTYPE)
    if n == 0:
        return bc
    if eliminate_pendants:
        gamma = sg.gamma
        if roots is None:
            roots = sg.roots
    else:
        gamma = np.zeros(n, dtype=SCORE_DTYPE)
        if roots is None:
            roots = np.arange(n, dtype=VERTEX_DTYPE)
    if roots.size == 0:
        return bc
    if kernel is not None:
        from repro.graph import kernels as _kernels

        kernel = _kernels.resolve_kernel_name(kernel, graph=g)
        if kernel != "pull":
            # only the direction-optimizing kernel changes the forward
            # sweep here; the four-dependency replay needs recorded
            # DAG arcs, which spmm does not produce
            kernel = None
    batch = resolve_batch_size(
        batch_size, n, g.num_arcs, workers=workers, kernel=kernel
    )
    if batch is None:
        raise AlgorithmError("bc_subgraph_batched needs a batch size")

    alpha = sg.alpha
    beta = sg.beta
    is_art = sg.is_boundary_art

    for lo in range(0, roots.size, batch):
        srcs = np.asarray(roots[lo : lo + batch], dtype=np.int64)
        b = srcs.size
        rows0 = np.arange(b)
        res = bfs_sigma_batched(
            g, srcs, keep_level_arcs=True, kernel=kernel
        )
        if counter is not None:
            counter.add(res.edges_traversed)
            if res.edges_pulled:
                add_pulled = getattr(counter, "add_pulled", None)
                (add_pulled or counter.add)(res.edges_pulled)
            if res.direction_switches:
                add_switch = getattr(counter, "add_switch", None)
                if add_switch is not None:
                    add_switch(res.direction_switches)
        dep = accumulate_four_dependencies_batched(
            res, alpha=alpha, beta=beta, is_art=is_art, counter=counter
        )
        res.level_arcs = None  # replayed; free them before the merge
        g_s = gamma[srcs].astype(SCORE_DTYPE)

        # v == s terms first: the merge below overwrites δ_i2i/δ_i2o
        self_i2i = dep.delta_i2i[rows0, srcs] - (
            1.0 if undirected else 0.0
        )
        self_i2o = dep.delta_i2o[rows0, srcs] + np.where(
            dep.source_is_art, alpha[srcs].astype(SCORE_DTYPE), 0.0
        )

        # merge for v != s, reached vertices only (equation 7), built
        # in place in δ_i2o with the association of
        # (1+γ)(i2i+i2o) + β·i2i [+ o2o]: the o2i/o2o terms carry
        # per-row β(s)/art masks, so rows whose root is not an
        # articulation point contribute exact zeros
        contrib = dep.delta_i2o
        np.add(dep.delta_i2i, contrib, out=contrib)
        contrib *= (1.0 + g_s)[:, None]
        dep.delta_i2i *= dep.size_o2i[:, None]
        contrib += dep.delta_i2i
        if dep.source_is_art.any():
            contrib += dep.delta_o2o
        contrib[res.dist < 1] = 0.0
        bc += contrib.sum(axis=0)

        # merge for v == s: the γ(s) derived pendant sources (roots
        # are unique, so the fancy-indexed += has no collisions)
        bc[srcs] += g_s * (self_i2i + self_i2o)
    return bc
