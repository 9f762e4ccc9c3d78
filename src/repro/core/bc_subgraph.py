"""Per-sub-graph BC calculation (paper Algorithm 2 / equation 7).

For each root source ``s ∈ R_sgi``: run the forward BFS, the fused
four-dependency backward sweep, and merge into the sub-graph's local
scores:

* ``v ≠ s`` (Algorithm 2 line 46)::

      bc[v] += (1 + γ(s)) · (δ_i2i(v) + δ_i2o(v))
               + β(s) · δ_i2i(v)            # out2in, if s ∈ A_sgi
               + δ_o2o(v)                   # out2out, if s ∈ A_sgi

* ``v == s`` (line 48) credits the γ(s) pendant sources whose DAGs
  were never built: each derived source ``u -> s`` depends on ``s``
  for every target it reaches *through* ``s``::

      bc[s] += γ(s) · (δ_i2i(s) [− 1 if undirected]
                       + δ_i2o(s) + [α(s) if s ∈ A_sgi])

  Two corrections relative to the paper's line-48 shorthand, both
  verified against the exact-Brandes oracle (see DESIGN.md §3):
  (a) undirected derived sources must not count themselves as a
  target, hence the ``− 1`` per derived source; (b) when ``s`` is a
  boundary articulation point the Phase-0 initialisation skips ``s``
  itself, so the derived sources' paths to targets *beyond s* are
  restored by adding ``α(s)``.

Only *reached* vertices are merged — Algorithm 2 iterates the
``Levels[]`` buckets, which automatically drops the α initialisation
parked at unreachable articulation points.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.baselines.common import WorkCounter
from repro.core.dependencies import accumulate_four_dependencies
from repro.decompose.partition import Subgraph
from repro.errors import AlgorithmError
from repro.graph.traversal import bfs_sigma
from repro.types import SCORE_DTYPE, VERTEX_DTYPE

__all__ = ["bc_subgraph"]


def bc_subgraph(
    sg: Subgraph,
    *,
    eliminate_pendants: bool = True,
    counter: Optional[WorkCounter] = None,
    roots: Optional[np.ndarray] = None,
    batch_size: Union[int, str, None] = None,
    # benchmarks/e2e/workloads.py:514 still passes compress=cfg.compress
    compress: bool = False,
    kernel: Optional[str] = None,
    workers: int = 1,
) -> np.ndarray:
    """Local BC scores of one sub-graph (``BC_SGi`` of equation 7).

    Parameters
    ----------
    sg:
        A sub-graph with ``alpha``/``beta`` already filled in by
        :func:`repro.decompose.alphabeta.compute_alpha_beta`.
    eliminate_pendants:
        When False, ignore R/γ and run every vertex as a source (the
        total-redundancy ablation; results are identical).
    counter:
        Optional examined-edge tally.
    roots:
        Restrict to a subset of the root set (local ids). Root subsets
        from different calls sum to the full sub-graph scores — this is
        how the process pool parallelises *within* a large sub-graph
        (the fine-grained level of the paper's two-level scheme,
        realised as source chunks).
    batch_size:
        ``None`` runs one root at a time (this function's own loop,
        the per-source reference the batched kernel is tested
        against); a positive int or ``"auto"`` (``APGREConfig``'s
        default, batches sized to a ~4 MiB working set) delegates to
        the multi-source kernel
        (:func:`repro.core.batched_subgraph.bc_subgraph_batched`),
        which processes roots in ``(B, n)`` batches with identical
        edge counting and float64-tolerance-identical scores.
    compress:
        Only ``False`` is accepted; any other value raises
        :class:`~repro.errors.AlgorithmError`.
    kernel:
        Compute-kernel name for the batched path (forwarded to
        :func:`~repro.core.batched_subgraph.bc_subgraph_batched`; see
        docs/KERNELS.md).  Only meaningful with ``batch_size``; the
        per-source loop ignores it.
    workers:
        Concurrent callers sharing the ``batch_size="auto"`` RAM
        budget (an engine passes its worker count); ignored otherwise.

    Returns
    -------
    Local score array (index by local vertex id; translate through
    ``sg.vertices`` to merge globally).
    """
    if compress is not False:
        raise AlgorithmError(
            f"compress must be False (structural compression is gone), "
            f"got {compress!r}"
        )
    if batch_size is not None:
        from repro.core.batched_subgraph import bc_subgraph_batched

        return bc_subgraph_batched(
            sg,
            eliminate_pendants=eliminate_pendants,
            counter=counter,
            roots=roots,
            batch_size=batch_size,
            workers=workers,
            kernel=kernel,
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

    alpha = sg.alpha
    beta = sg.beta
    is_art = sg.is_boundary_art

    for s in roots.tolist():
        res = bfs_sigma(g, s, keep_level_arcs=True)
        if counter is not None:
            counter.add(res.edges_traversed)
        dep = accumulate_four_dependencies(
            res, alpha=alpha, beta=beta, is_art=is_art, counter=counter
        )
        g_s = float(gamma[s])

        # merge for v != s, reached vertices only
        if len(res.levels) > 1:
            reached = np.concatenate(res.levels[1:])
            contrib = (1.0 + g_s) * (
                dep.delta_i2i[reached] + dep.delta_i2o[reached]
            )
            if dep.source_is_art:
                contrib = (
                    contrib
                    + dep.size_o2i * dep.delta_i2i[reached]
                    + dep.delta_o2o[reached]
                )
            np.add.at(bc, reached, contrib)

        # merge for v == s: the γ(s) derived pendant sources
        if g_s:
            self_i2i = dep.delta_i2i[s] - (1.0 if undirected else 0.0)
            self_i2o = dep.delta_i2o[s] + (
                float(alpha[s]) if dep.source_is_art else 0.0
            )
            bc[s] += g_s * (self_i2i + self_i2o)
    return bc
