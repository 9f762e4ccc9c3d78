"""Persistent shared-memory worker pool for batched BC.

This is the coarse level of the paper's two-level parallel model wired
to PR 2's batched kernel, in the shape the multi-GPU BC literature uses
(McLaughlin & Bader; Bernaschi et al.): partition the sources across
*persistent* executors, let each run the level-synchronous multi-source
kernel locally, and reduce partial score vectors once at the end.  The
existing ``map_sources_bc`` ships a pickled ``(n,)`` float64 vector
back per task; here the only per-task traffic is a tiny ack tuple —

* the parent publishes the CSR arrays once into
  :class:`~repro.parallel.sharedmem.SharedArray` segments (zero-copy
  for every attacher; under ``fork`` the mapping is simply inherited),
* each worker pulls LPT-ordered source batches from the supervised
  work queue (idle workers *steal* the heaviest remaining batch of the
  most-loaded peer, so a straggler cannot serialise the tail), and
* every worker accumulates its batches' score deltas into its own row
  of a shared ``(S, n)`` float64 buffer that the parent tree-reduces.

Fault tolerance rides on PR 1's supervisor unchanged (crash detection,
timeouts, retry/backoff, serial rung, pool abandonment) plus a small
*commit protocol* that keeps the shared score rows trustworthy when a
worker dies mid-accumulation: a batch moves ``PENDING →
COMMITTING → COMMITTED``, and a retry that finds its batch stuck in
``COMMITTING`` poisons the dead owner's score row; the parent
recomputes the poisoned row's committed batches inline and excludes
the row from the reduction.  A batch found already ``COMMITTED`` on
retry (the worker died after committing, before its ack arrived) is
acked without recomputation, so WorkCounter tallies stay exact.

See docs/PERFORMANCE.md for the full model and how to read the
benchmark JSONs this path produces.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.parallel import pool as _pool
from repro.parallel.scheduler import assign_lpt, lpt_order
from repro.parallel.sharedmem import SharedArray
from repro.parallel.supervisor import (
    RunHealth,
    SupervisorConfig,
    TaskOutcome,
    _PoolSupervisor,
    _Task,
)
from repro.types import SCORE_DTYPE

__all__ = [
    "batched_pool_bc_scores",
    "tree_reduce",
    "EngineTotals",
    "merge_examined",
]

# commit-protocol states for one batch (int8 in the shared state array)
_PENDING = 0
_COMMITTING = 1
_COMMITTED = 2


class _EdgeTally:
    """Minimal WorkCounter stand-in (avoids a baselines import cycle).

    Mirrors :class:`repro.baselines.common.WorkCounter`'s split
    protocol: ``edges`` counts top-down probes and DAG replays,
    ``pulled`` the pull kernel's bottom-up probes (both are examined
    arcs), ``switches`` its direction flips (bookkeeping only).
    """

    __slots__ = ("edges", "pulled", "switches")

    def __init__(self) -> None:
        self.edges = 0
        self.pulled = 0
        self.switches = 0

    def add(self, count: int) -> None:
        self.edges += int(count)

    def add_pulled(self, count: int) -> None:
        self.pulled += int(count)

    def add_switch(self, count: int = 1) -> None:
        self.switches += int(count)

    @property
    def triple(self) -> Tuple[int, int, int]:
        """The per-batch ``(edges, pulled, switches)`` commit row."""
        return (self.edges, self.pulled, self.switches)


class EngineTotals(int):
    """An engine run's examined-arc total carrying its push/pull split.

    Subclasses :class:`int` (the value is the *total* examined arcs,
    pushed + pulled) so every existing consumer that treats the edge
    total as a plain number keeps working; kernel-aware consumers read
    ``pulled``/``switches`` and split their stats accordingly (see
    :func:`merge_examined`).  (``int`` subclasses cannot declare
    nonempty ``__slots__``, so the split rides in the instance dict.)
    """

    def __new__(cls, total, pulled: int = 0, switches: int = 0):
        self = super().__new__(cls, int(total))
        self.pulled = int(pulled)
        self.switches = int(switches)
        return self


def _tally3(edges) -> Tuple[int, int, int]:
    """Normalise a compute tally to ``(edges, pulled, switches)``.

    ``compute`` callbacks may return a plain examined-arc int (every
    push-only kernel) or the 3-tuple split; both commit idempotently
    into the per-batch tally rows.
    """
    if isinstance(edges, (tuple, list)):
        a, b, c = edges
        return (int(a), int(b), int(c))
    return (int(edges), 0, 0)


def merge_examined(counter, total) -> None:
    """Fold an engine edge total (plain int or EngineTotals) into a
    counter, keeping ``counter.edges`` the true examined total when the
    counter lacks the split protocol."""
    if counter is None:
        return
    pulled = int(getattr(total, "pulled", 0))
    switches = int(getattr(total, "switches", 0))
    add_pulled = getattr(counter, "add_pulled", None)
    if pulled and add_pulled is not None:
        counter.add(int(total) - pulled)
        add_pulled(pulled)
    else:
        counter.add(int(total))
    if switches:
        add_switch = getattr(counter, "add_switch", None)
        if add_switch is not None:
            add_switch(switches)


def tree_reduce(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Pairwise (tree-shaped) sum of equal-shaped float rows.

    Pairwise association keeps the float64 error growth logarithmic in
    the number of partial score vectors instead of linear, which is
    what lets the pooled path hold the 1e-9 agreement bound against
    serial at any worker count.
    """
    work = list(rows)
    if not work:
        raise ValueError("tree_reduce needs at least one row")
    if len(work) == 1:
        return np.array(work[0], dtype=SCORE_DTYPE, copy=True)
    while len(work) > 1:
        nxt = [work[i] + work[i + 1] for i in range(0, len(work) - 1, 2)]
        if len(work) % 2:
            nxt.append(work[-1])
        work = nxt
    return np.asarray(work[0], dtype=SCORE_DTYPE)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
# score-row claims, keyed (run token, pid): a forked child inherits the
# parent's entries but its own pid misses, so every process that ever
# touches the run claims a fresh row — two processes can never share one
_SLOT_CACHE: Dict[Tuple[str, int], int] = {}

# per-process SpMM operand cache keyed the same way (forked children
# inherit the parent's operands only for the parent pid, so each worker
# materialises its own once and reuses it across all its batches)
_OPS_CACHE: Dict[Tuple[str, int], Any] = {}


def _claim_slot(state: dict) -> int:
    """This process's private score row (claimed once per run)."""
    key = (state["token"], os.getpid())
    slot = _SLOT_CACHE.get(key)
    if slot is None:
        counter = state["next_slot"]
        with counter.get_lock():
            slot = counter.value
            counter.value = slot + 1
        if slot >= state["scores"].array.shape[0]:
            raise RuntimeError(
                f"score slots exhausted ({slot} claims for "
                f"{state['scores'].array.shape[0]} rows)"
            )
        _SLOT_CACHE[key] = slot
    return slot


def _drop_run_caches(token: str) -> None:
    for cache in (_SLOT_CACHE, _OPS_CACHE):
        for key in [k for k in cache if k[0] == token]:
            del cache[key]


def _pool_batch_task(batch_id: int):
    """Run one source batch and commit its delta into this worker's row.

    Executed in a pool worker (state through fork inheritance) *and* on
    the supervisor's serial rungs in the parent — both see the same
    shared arrays, so the commit protocol below is identical for every
    rung of the degradation ladder.
    """
    state = _pool.get_worker_state()
    batch_state = state["batch_state"].array
    if batch_state[batch_id] == _COMMITTED:
        # a previous attempt died after committing, before its ack got
        # out: the delta and edge tally are already in place
        return ("cached", int(batch_id))
    slot = _claim_slot(state)
    owners = state["owners"].array
    prev = int(owners[batch_id])
    if batch_state[batch_id] == _COMMITTING and prev >= 0 and prev != slot:
        # the previous owner died mid-accumulation: its whole score row
        # may hold a partial sum, so mark it for parent-side recovery
        state["poisoned"].array[prev] = 1
    verts, delta, edge_count = state["compute"](int(batch_id))
    state["edges"].array[batch_id] = _tally3(edge_count)
    owners[batch_id] = slot
    batch_state[batch_id] = _COMMITTING
    row = state["scores"].array[slot]
    if verts is None:
        row += delta
    else:
        row[verts] += delta
    batch_state[batch_id] = _COMMITTED
    return ("ok", int(batch_id), int(slot))


# ----------------------------------------------------------------------
# scheduling: LPT affinity + work stealing
# ----------------------------------------------------------------------
class _StealSupervisor(_PoolSupervisor):
    """Supervisor whose scheduler follows an LPT plan and steals.

    Each task starts with an *affinity* to the worker slot the greedy
    LPT assignment gave it.  A free slot first runs its own ready
    tasks; once it has none, it steals the heaviest ready task from the
    peer with the most remaining planned work (``steal=False`` makes it
    wait instead — the pure static-LPT schedule, kept for measurement).
    Stolen and retried batches keep full supervision semantics; steals
    are tallied in ``RunHealth.steals``.
    """

    def __init__(
        self, func, payloads, workers, config, health,
        affinity: Dict[int, int], weights: Dict[int, float],
        steal: bool,
    ) -> None:
        super().__init__(func, payloads, workers, config, health)
        self._affinity = dict(affinity)
        self._task_weight = dict(weights)
        self._steal = steal

    def _match(self, ready: List[_Task]) -> Optional[tuple]:
        if not ready:
            return None
        # candidate slots, idle workers before cold (spawn-needed) slots
        wids = [w.wid for w in self.idle]
        wids += sorted(w for w in self._free_wids if w not in wids)
        if not wids:
            return None
        available = set(wids)
        for wid in wids:  # own work first (ready is in LPT order)
            for task in ready:
                if self._affinity.get(task.index) == wid:
                    return wid, task
        if not self._steal:
            return None
        # steal: victim is the busy peer with the most remaining
        # planned work; take its heaviest ready task (the LPT payload
        # order makes that its first ready one)
        loads: Dict[int, float] = {}
        first: Dict[int, _Task] = {}
        for task in ready:
            owner = self._affinity[task.index]
            if owner in available:  # pragma: no cover - caught above
                continue
            loads[owner] = loads.get(owner, 0.0) + self._task_weight.get(
                task.index, 1.0
            )
            first.setdefault(owner, task)
        if not loads:
            return None
        victim = max(loads, key=lambda w: (loads[w], -w))
        wid = wids[0]
        task = first[victim]
        self._affinity[task.index] = wid
        task.events.append(f"steal:{victim}->{wid}")
        self.health.steals += 1
        return wid, task


# ----------------------------------------------------------------------
# parent-side driver
# ----------------------------------------------------------------------
def _raise_keyboard_interrupt(signum, frame):  # pragma: no cover - signal
    raise KeyboardInterrupt


@contextlib.contextmanager
def _graceful_sigterm():
    """Translate SIGTERM into :class:`KeyboardInterrupt` while active.

    SIGTERM's default action kills the process with no unwinding — no
    supervisor drain, no ``ExitStack`` unlink of the shared segments,
    no journal finalisation.  Remapping it to the same exception
    SIGINT raises routes both through the one graceful-shutdown path
    (:meth:`_PoolSupervisor._drain_interrupted` → segment cleanup →
    journal ``finalize("interrupted")``).  Restores the previous
    handler on exit; a no-op off the main thread, where Python forbids
    installing handlers.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.signal(signal.SIGTERM, _raise_keyboard_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def _pooled_contributions(
    compute: Callable[[int], Tuple[Optional[np.ndarray], np.ndarray, int]],
    weights: Sequence[float],
    *,
    n: int,
    workers: int,
    steal: bool = True,
    config: Optional[SupervisorConfig] = None,
    health: Optional[RunHealth] = None,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Accumulate ``compute(batch_id)`` deltas across a supervised pool.

    ``compute`` maps a batch id to ``(verts, delta, edges)`` — ``delta``
    is added to the score vector (at ``verts`` when given, densely when
    ``None``) and ``edges`` is the batch's examined-edge tally: a plain
    int, or an ``(edges, pulled, switches)`` split from a
    direction-optimizing kernel (see :func:`_tally3`).  It must be
    deterministic and safe to re-run (retries and poisoned-row
    recovery recompute batches).  Returns ``(scores, edge_total,
    batch_edges)``; the edge total is an :class:`EngineTotals` — the
    exact sum of the per-batch examined totals in ``batch_edges``,
    independent of which worker ran what (the contribution cache needs
    the per-batch breakdown to store exact per-sub-graph tallies) —
    carrying the summed pulled/switch split.
    """
    num = len(weights)
    config = config or SupervisorConfig()
    health = health if health is not None else RunHealth()
    health.tasks += num
    total = np.zeros(n, dtype=SCORE_DTYPE)
    if num == 0:
        return total, EngineTotals(0), np.zeros(0, dtype=np.int64)
    if workers <= 1 or num == 1 or not _pool._supports_fork():
        # inline contract, mirroring supervised_map: bit-identical to
        # the serial chunk loop, no supervision (nothing can crash)
        health.inline = True
        split = np.zeros((num, 3), dtype=np.int64)
        for batch_id in range(num):
            verts, delta, edges = compute(batch_id)
            if verts is None:
                total += delta
            else:
                total[verts] += delta
            split[batch_id] = _tally3(edges)
            health.outcomes.append(
                TaskOutcome(task=batch_id, attempts=1, status="ok-pool",
                            events=["inline"])
            )
        batch_edges = split[:, 0] + split[:, 1]
        edge_total = EngineTotals(
            batch_edges.sum(dtype=np.int64),
            pulled=split[:, 1].sum(dtype=np.int64),
            switches=split[:, 2].sum(dtype=np.int64),
        )
        return total, edge_total, batch_edges

    workers = min(workers, num)
    order = lpt_order(weights)          # payload p runs batch order[p]
    bins = assign_lpt(weights, workers)
    wid_of_batch = {
        batch: wid for wid, tasks in enumerate(bins) for batch in tasks
    }
    affinity = {p: wid_of_batch[batch] for p, batch in enumerate(order)}
    task_weights = {
        p: float(weights[batch]) for p, batch in enumerate(order)
    }
    # score rows: one per process that can ever claim one — the initial
    # workers, every respawn the failure budget allows, the parent's
    # serial rung, and slack for close-out races
    budget = config.max_pool_failures
    if budget is None:
        budget = max(2 * workers, 4)
    slots = workers + budget + 4
    with contextlib.ExitStack() as stack:
        # first in, last out: the SIGTERM remap outlives the segments,
        # so a termination any time in this block still unlinks them
        stack.enter_context(_graceful_sigterm())
        scores = stack.enter_context(
            SharedArray.create((slots, n), SCORE_DTYPE)
        )
        batch_state = stack.enter_context(
            SharedArray.create((num,), np.int8)
        )
        owners = stack.enter_context(SharedArray.create((num,), np.int64))
        # per-batch (edges, pulled, switches) tally rows — committed by
        # idempotent assignment, so retries and recovery stay exact
        edges = stack.enter_context(SharedArray.create((num, 3), np.int64))
        poisoned = stack.enter_context(SharedArray.create((slots,), np.int8))
        owners.array.fill(-1)
        next_slot = mp.get_context("fork").Value("i", 0)
        token = scores.name
        state = {
            "compute": compute,
            "scores": scores,
            "batch_state": batch_state,
            "owners": owners,
            "edges": edges,
            "poisoned": poisoned,
            "next_slot": next_slot,
            "token": token,
        }
        _pool._install_state(state)
        try:
            supervisor = _StealSupervisor(
                _pool_batch_task, order, workers, config, health,
                affinity, task_weights, steal,
            )
            supervisor.run()
        finally:
            _pool._STATE.clear()
            _drop_run_caches(token)
        # recovery: recompute every batch whose committed delta is not
        # trustworthy — owner row poisoned by a mid-commit death, or
        # (defensively) a batch that somehow never reached COMMITTED
        state_arr = batch_state.array
        owner_arr = owners.array
        poison_arr = poisoned.array
        extra = np.zeros(n, dtype=SCORE_DTYPE)
        recomputed = 0
        for batch_id in range(num):
            owner = int(owner_arr[batch_id])
            trusted = (
                state_arr[batch_id] == _COMMITTED
                and 0 <= owner < slots
                and not poison_arr[owner]
            )
            if trusted:
                continue
            verts, delta, edge_count = compute(batch_id)
            if verts is None:
                extra += delta
            else:
                extra[verts] += delta
            edges.array[batch_id] = _tally3(edge_count)
            recomputed += 1
        if recomputed:
            health.serial_retries += recomputed
        used = min(int(next_slot.value), slots)
        rows = [
            scores.array[s] for s in range(used) if not poison_arr[s]
        ]
        total = tree_reduce(rows + [extra]) if rows else extra
        split = edges.array.copy()
        batch_edges = split[:, 0] + split[:, 1]
        edge_total = EngineTotals(
            batch_edges.sum(dtype=np.int64),
            pulled=split[:, 1].sum(dtype=np.int64),
            switches=split[:, 2].sum(dtype=np.int64),
        )
    return total, edge_total, batch_edges


def batched_pool_bc_scores(
    graph: CSRGraph,
    sources,
    *,
    batch: int,
    workers: int,
    steal: bool = True,
    kernel: Optional[str] = None,
    counter=None,
    config: Optional[SupervisorConfig] = None,
    health: Optional[RunHealth] = None,
) -> np.ndarray:
    """BC contribution sum over ``sources`` on the persistent pool.

    The parallel composition of
    :func:`repro.graph.batched.batched_bc_scores`: the same
    ``batch``-sized source chunks, fanned out across ``workers``
    supervised processes with LPT placement and work stealing
    (``steal=False`` pins each chunk to its planned worker).  Scores
    agree with the serial batched path within float64 reduction
    tolerance (≤1e-9 in practice) and the examined-edge tally added to
    ``counter`` is *exactly* the serial one — per-chunk tallies are
    independent of placement, and the pool sums the same chunks.

    Degrades inline (bit-identical to serial batched) for
    ``workers <= 1``, a single chunk, or platforms without ``fork``;
    otherwise runs under the PR 1 supervisor with ``config`` policy and
    events tallied into ``health``.
    """
    from repro.graph import kernels as _kernels
    from repro.graph.batched import batched_bc_scores

    srcs = np.asarray(list(sources), dtype=np.int64).ravel()
    if srcs.size == 0:
        return np.zeros(graph.n, dtype=SCORE_DTYPE)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kernel = _kernels.resolve_kernel_name(
        kernel, graph=graph, batch=min(batch, srcs.size)
    )
    kern = _kernels.get_kernel(kernel)
    bounds = [
        (lo, min(lo + batch, srcs.size))
        for lo in range(0, srcs.size, batch)
    ]
    if workers <= 1 or len(bounds) == 1 or not _pool._supports_fork():
        # keep the exact serial code path (shared operands, same chunk
        # loop) so the inline contract is bit-identical, with health
        # bookkeeping consistent with the pooled path
        if health is not None:
            health.tasks += len(bounds)
            health.inline = True
            for i in range(len(bounds)):
                health.outcomes.append(
                    TaskOutcome(task=i, attempts=1, status="ok-pool",
                                events=["inline"])
                )
        return batched_bc_scores(
            graph, srcs, batch=batch, counter=counter, kernel=kernel
        )

    # publish the CSR arrays once; workers see the same physical pages
    with contextlib.ExitStack() as stack:
        stack.enter_context(_graceful_sigterm())

        def publish(arr: np.ndarray) -> np.ndarray:
            shared = stack.enter_context(
                SharedArray.create(arr.shape, arr.dtype)
            )
            shared.array[:] = arr
            return shared.array

        out_indptr = publish(graph.out_indptr)
        out_indices = publish(graph.out_indices)
        if graph.directed:
            in_indptr = publish(graph.in_indptr)
            in_indices = publish(graph.in_indices)
        else:
            in_indptr, in_indices = out_indptr, out_indices
        shared_graph = CSRGraph(
            graph.n, out_indptr, out_indices, in_indptr, in_indices,
            graph.directed,
        )
        ops_token = f"ops-{id(shared_graph)}-{out_indices.size}"

        def compute(batch_id: int):
            lo, hi = bounds[batch_id]
            chunk = srcs[lo:hi]
            tally = _EdgeTally()
            ctx = None
            if kern.prepare is not None:
                # per-process context (operands, compiled functions):
                # forked children inherit only the parent pid's entry,
                # so each worker materialises its own once
                key = (ops_token, os.getpid())
                ctx = _OPS_CACHE.get(key)
                if ctx is None:
                    ctx = kern.prepare(
                        shared_graph, batch, roots=srcs.size
                    )
                    _OPS_CACHE[key] = ctx
            delta = kern.contributions(
                shared_graph, chunk, counter=tally, context=ctx
            )
            return None, delta, tally.triple

        weights = [float(hi - lo) for lo, hi in bounds]
        try:
            total, edge_total, _ = _pooled_contributions(
                compute,
                weights,
                n=graph.n,
                workers=workers,
                steal=steal,
                config=config,
                health=health,
            )
        finally:
            _drop_run_caches(ops_token)
    merge_examined(counter, edge_total)
    return total
