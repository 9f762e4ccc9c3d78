"""Direction-optimizing (push/pull) batched multi-source BFS.

The top-down kernels expand the union frontier's *out*-arcs every
level; on small-diameter graphs one or two levels saturate — the
frontier covers most of the graph and nearly every probed arc lands on
an already-discovered head.  Beamer's direction-optimizing BFS flips
those levels around: instead of pushing the huge frontier, *pull* into
the (by then small) unvisited set — one masked CSR-transpose gather
over the in-arcs of every still-undiscovered ``(row, vertex)`` pair,
keeping exactly the arcs whose tail sits on the current level.

σ-counting changes the cost model versus plain reachability BFS: a
bottom-up vertex cannot stop at its first discovered parent, because
σ(v) is the *sum* of σ over all parents at the current level — every
in-arc of the unvisited set is probed.  The switch test therefore
compares full masses: flip to bottom-up when

    ``frontier_arcs > alpha * unvisited_arcs``

(both restricted to rows whose BFS is still running) and flip back
when the inequality reverses, re-evaluated every level.  ``alpha``
defaults to :data:`PULL_ALPHA`; with probe counts symmetric the win
comes from replacing the top-down sort-based frontier deduplication
(``np.unique`` over the candidate arcs) with bincounts over the
unvisited set, so the crossover sits below mass parity.

Exactness contract:

* distances and σ are identical to the top-down kernel (σ sums the
  same parents, only float association differs — and σ values are
  integral, so they are equal exactly);
* the recorded shortest-path-DAG arcs are the *same set* per level
  (sorted by tail, so the arcs backward sweeps replay unchanged);
* ``edges_traversed`` counts top-down probes, ``edges_pulled`` counts
  bottom-up probes — arcs *actually examined* either way, so their sum
  is the run's true examined-arc total (inside TEPS), while
  ``direction_switches`` counts flips (bookkeeping, outside TEPS).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.batched import (
    BatchedBFSResult,
    BatchWorkspace,
    SweepWeights,
    accumulate_dependencies_batched,
    merge_rows,
)
from repro.graph.csr import CSRGraph
from repro.types import SCORE_DTYPE

__all__ = ["PULL_ALPHA", "bfs_sigma_batched_pull", "pull_contributions"]

#: Push→pull threshold on arc masses.  Beamer's classic 1/14 assumes
#: bottom-up early exit; σ-counting probes every unvisited in-arc, so
#: the honest crossover is near mass parity, nudged below it because a
#: pulled level replaces the top-down sort-based dedup with bincounts.
PULL_ALPHA = 0.7


def bfs_sigma_batched_pull(
    graph: CSRGraph,
    sources,
    *,
    alpha: float = PULL_ALPHA,
    keep_level_arcs: bool = False,
    workspace: Optional[BatchWorkspace] = None,
) -> BatchedBFSResult:
    """Direction-optimizing forward BFS with σ counting for a batch.

    Same contract as :func:`repro.graph.batched.bfs_sigma_batched`
    (per-row ``dist``/``sigma``, per-level DAG arcs sorted by tail),
    with per-level top-down/bottom-up selection.  The result's
    ``edges_traversed``/``edges_pulled`` split the examined-arc tally
    by direction; ``direction_switches`` counts the flips.
    """
    n = graph.n
    srcs = np.asarray(sources, dtype=np.int64).ravel()
    b = srcs.size
    if b == 0:
        raise AlgorithmError("batched BFS needs at least one source")
    fdtype = np.int32 if b * n <= np.iinfo(np.int32).max else np.int64
    if workspace is None:
        dist = np.full((b, n), -1, dtype=np.int32)
        sigma = np.zeros((b, n), dtype=SCORE_DTYPE)
    else:
        dist_buf, sigma_buf, _ = workspace.arrays(b, n)
        dist_buf.fill(-1)
        sigma_buf.fill(0.0)
        dist = dist_buf.reshape(b, n)
        sigma = sigma_buf.reshape(b, n)
    dist_flat = dist.reshape(-1)
    sigma_flat = sigma.reshape(-1)
    rows0 = np.arange(b, dtype=np.int64)
    frontier = (rows0 * n + srcs).astype(fdtype)
    dist_flat[frontier] = 0
    sigma_flat[frontier] = 1.0
    level_arcs = [] if keep_level_arcs else None
    empty = np.empty(0, dtype=fdtype)

    out_indptr, out_indices = graph.out_indptr, graph.out_indices
    in_indptr, in_indices = graph.in_indptr, graph.in_indices
    m = out_indices.size
    pdtype = np.int64 if m > np.iinfo(np.int32).max else np.int32
    out_ip = out_indptr.astype(pdtype, copy=False)
    out_deg = (out_indptr[1:] - out_indptr[:-1]).astype(pdtype, copy=False)
    in_ip = in_indptr.astype(pdtype, copy=False)
    in_deg = (in_indptr[1:] - in_indptr[:-1]).astype(pdtype, copy=False)
    in_deg64 = in_deg.astype(np.int64, copy=False)
    iota = np.arange(min(m, 1024) or 1, dtype=pdtype)

    # Beamer's bottom-up cost estimate, maintained incrementally: the
    # in-arc mass still pointing at undiscovered vertices, per row
    row_unvisited = np.full(b, int(in_deg64.sum()), dtype=np.int64)
    row_unvisited -= in_deg64[srcs]

    pushed = 0
    pulled = 0
    switches = 0
    pulling = False
    unvisited = empty  # flat candidates, maintained while pulling
    level = 0
    while frontier.size:
        verts = frontier % n
        frontier_arcs = int(out_deg[verts].sum(dtype=np.int64))
        act_rows = np.unique(frontier // n)
        unvisited_arcs = int(row_unvisited[act_rows].sum())
        want_pull = (
            frontier_arcs > 0
            and unvisited_arcs > 0
            and frontier_arcs > alpha * unvisited_arcs
        )

        if want_pull:
            if not pulling:
                switches += 1
                pulling = True
                # materialise the unvisited candidates of active rows
                act = np.zeros(b, dtype=bool)
                act[act_rows] = True
                act_idx = np.flatnonzero(act)
                r_i, v_i = np.nonzero(dist[act_idx] < 0)
                unvisited = (
                    act_idx[r_i] * np.int64(n) + v_i
                ).astype(fdtype)
            uverts = unvisited % n
            counts = in_deg[uverts]
            total = int(counts.sum(dtype=np.int64))
            pulled += total
            if total == 0:
                if level_arcs is not None:
                    level_arcs.append((empty, empty))
                break
            if total > iota.size:
                iota = np.arange(total, dtype=pdtype)
            starts = in_ip[uverts]
            cum = np.cumsum(counts)
            pos = iota[:total] + np.repeat(starts - cum + counts, counts)
            nbr = in_indices[pos]
            flat_nbr = np.repeat(unvisited - uverts, counts) + nbr
            at_lvl = dist_flat[flat_nbr] == level
            vid = np.repeat(
                np.arange(unvisited.size, dtype=pdtype), counts
            )
            hit_v = vid[at_lvl]
            nhits = np.bincount(hit_v, minlength=unvisited.size)
            fresh = nhits > 0
            t_src = flat_nbr[at_lvl]
            if level_arcs is not None:
                t_dst = np.repeat(unvisited, counts)[at_lvl]
                order = np.argsort(t_src, kind="stable")
                level_arcs.append((t_src[order], t_dst[order]))
            if not fresh.any():
                break
            sums = np.bincount(
                hit_v,
                weights=sigma_flat[t_src],
                minlength=unvisited.size,
            )
            nxt = unvisited[fresh]
            dist_flat[nxt] = level + 1
            sigma_flat[nxt] = sums[fresh]
            rows_nxt = (nxt // n).astype(np.int64)
            np.subtract.at(row_unvisited, rows_nxt, in_deg64[uverts[fresh]])
            unvisited = unvisited[~fresh]
            # rows whose search just ended leave the candidate set
            act = np.zeros(b, dtype=bool)
            act[rows_nxt] = True
            if unvisited.size:
                unvisited = unvisited[act[(unvisited // n).astype(np.int64)]]
            frontier = nxt
            level += 1
            continue

        if pulling:
            switches += 1
            pulling = False
            unvisited = empty
        # top-down level: identical to bfs_sigma_batched's step, plus
        # the incremental unvisited-mass bookkeeping
        starts = out_ip[verts]
        counts = out_deg[verts]
        total = frontier_arcs
        pushed += total
        if total == 0:
            if level_arcs is not None:
                level_arcs.append((empty, empty))
            break
        if total > iota.size:
            iota = np.arange(total, dtype=pdtype)
        cum = np.cumsum(counts)
        pos = iota[:total] + np.repeat(starts - cum + counts, counts)
        dst = out_indices[pos]
        flat_src = np.repeat(frontier, counts)
        flat_dst = np.repeat(frontier - verts, counts) + dst
        dmask = dist_flat[flat_dst] < 0
        t_src = flat_src[dmask]
        t_dst = flat_dst[dmask]
        if t_dst.size:
            nxt, inv = np.unique(t_dst, return_inverse=True)
            dist_flat[nxt] = level + 1
            sigma_flat[nxt] = np.bincount(
                inv, weights=sigma_flat[t_src], minlength=nxt.size
            )
            rows_nxt = (nxt // n).astype(np.int64)
            np.subtract.at(
                row_unvisited, rows_nxt,
                in_deg64[(nxt - rows_nxt * n).astype(np.int64)],
            )
        else:
            nxt = empty
        if level_arcs is not None:
            level_arcs.append((t_src, t_dst))
        if nxt.size == 0:
            break
        frontier = nxt
        level += 1

    return BatchedBFSResult(
        sources=srcs,
        dist=dist,
        sigma=sigma,
        level_arcs=level_arcs,
        edges_traversed=pushed,
        edges_pulled=pulled,
        direction_switches=switches,
    )


def tally_traversal(counter, res: BatchedBFSResult) -> None:
    """Fold a forward result's examined-arc split into ``counter``.

    Counters that understand the split (``add_pulled``/``add_switch``,
    e.g. :class:`repro.baselines.common.WorkCounter`) record it; plain
    ``add``-only counters get pulled probes folded into the main tally
    so ``counter.edges`` stays the true examined total either way.
    """
    if counter is None:
        return
    counter.add(res.edges_traversed)
    if res.edges_pulled:
        add_pulled = getattr(counter, "add_pulled", None)
        (add_pulled if add_pulled is not None else counter.add)(
            res.edges_pulled
        )
    if res.direction_switches:
        add_switch = getattr(counter, "add_switch", None)
        if add_switch is not None:
            add_switch(res.direction_switches)


def pull_contributions(
    graph: CSRGraph,
    sources,
    *,
    counter=None,
    workspace: Optional[BatchWorkspace] = None,
    context=None,
    weights: Optional[SweepWeights] = None,
    alpha: float = PULL_ALPHA,
) -> np.ndarray:
    """Summed BC contributions of one batch via the push/pull kernel.

    Forward direction-optimizing BFS + the standard recorded-DAG
    backward sweep (the per-level arc sets are identical to the
    top-down kernels, so :func:`accumulate_dependencies_batched`
    replays them unchanged, ``weights`` included); rows merged by
    :func:`~repro.graph.batched.merge_rows`.  Backward replays land in
    ``edges_traversed`` exactly as the ``arcs`` kernel counts them.
    """
    srcs = np.asarray(sources, dtype=np.int64).ravel()
    res = bfs_sigma_batched_pull(
        graph, srcs, alpha=alpha, keep_level_arcs=True,
        workspace=workspace,
    )
    tally_traversal(counter, res)
    delta = accumulate_dependencies_batched(
        res, counter=counter, workspace=workspace, weights=weights
    )
    return merge_rows(delta, res.dist, srcs, weights)
