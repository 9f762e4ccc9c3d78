"""GIL-free threaded execution backend for batched BC.

The process pool (:mod:`repro.parallel.batched_pool`) buys multicore
parallelism at the price of fork startup, pickled acks, SharedArray
segments and a commit protocol that must survive a worker dying
mid-accumulation.  The batched SpMM kernel never amortises those costs
on the graphs we target — the committed benchmarks honestly recorded
*sub*-serial pooled speedups.  But the kernel's hot loop is
``scipy.sparse._sparsetools.csr_matmat``, which releases the GIL, so
worker *threads* get true multicore execution with none of that
machinery:

* the CSR is shared in-process — no publication step, no per-worker
  copy (see ``auto_batch_size(shared_csr=True)`` for the RAM model);
* each worker thread accumulates its batches' score deltas into a
  private ``(n,)`` vector; the parent tree-reduces the per-thread rows
  once at the end, so no commit protocol and no poisoned slots — a
  fold either happened exactly once or the batch is recomputed;
* per-batch examined-edge tallies are recorded exactly per batch and
  summed, so WorkCounter totals are *identical* to the serial chunk
  loop regardless of placement, retries or degradation.

Supervision mirrors the PR 1 policy knobs (:class:`SupervisorConfig`)
with thread-appropriate mechanics: a task that exceeds its wall-clock
budget cannot be killed (threads are not processes), so the parent
*abandons* the attempt — bumping the task's generation counter so the
late result is discarded at fold time — spawns a replacement thread,
and retries or resolves the task on the serial rung.  An injected
``kill`` fault raises :class:`~repro.parallel.faults.WorkerThreadKilled`
inside the worker, which exits its loop like a dead process; crashes
and timeouts share the pool-failure budget and the same degradation
ladder (retry → serial rung → pool abandonment → serial drain), all
tallied into :class:`RunHealth`.

Two pipelining measures keep the threads busy: workers claim a fused
*quantum* of several source batches per queue lock acquisition, and
each worker defers folding batch *i*'s delta until batch *i+1* has
been computed (double-buffered workspaces in
:func:`threaded_bc_scores` keep both deltas valid), so the reduce of
one batch overlaps the compute of the next.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ExecutionError, TaskTimeoutError, WorkerCrashError
from repro.graph.batched import BatchWorkspace
from repro.graph.csr import CSRGraph
from repro.parallel import faults as _faults
from repro.parallel.batched_pool import _EdgeTally, tree_reduce
from repro.parallel.scheduler import assign_lpt, lpt_order
from repro.parallel.supervisor import (
    RunHealth,
    SupervisorConfig,
    TaskOutcome,
)
from repro.types import SCORE_DTYPE

__all__ = ["threaded_contributions", "threaded_bc_scores"]


def _fuse_quantum(num: int, workers: int, fuse: Optional[int]) -> int:
    """Batches claimed per queue-lock acquisition (the fused quantum).

    Large runs amortise dispatch over a few batches per claim; short
    runs keep the quantum at 1 so the LPT tail stays balanced.
    """
    if fuse is not None:
        if fuse < 1:
            raise ValueError(f"fuse must be >= 1, got {fuse}")
        return int(fuse)
    return max(1, min(4, num // (4 * max(workers, 1))))


@dataclass
class _ThreadTask:
    """One source batch in the threaded run's shared queue."""

    index: int                 # dispatch position in LPT order
    batch: int                 # batch id handed to ``compute``
    affinity: int              # worker slot the LPT plan assigned
    attempts: int = 0          # claims so far
    gen: int = 0               # bumped when an attempt is abandoned
    not_before: float = 0.0    # backoff gate (monotonic clock)
    deadline: Optional[float] = None  # current attempt's budget
    done: bool = False         # contribution folded exactly once
    events: List[str] = field(default_factory=list)


class _ThreadRun:
    """Shared mutable state of one threaded map (lock-protected)."""

    def __init__(
        self,
        compute: Callable,
        tasks: List[_ThreadTask],
        n: int,
        workers: int,
        steal: bool,
        quantum: int,
        config: SupervisorConfig,
        health: RunHealth,
    ) -> None:
        self.compute = compute
        self.tasks = tasks
        self.n = n
        self.workers = workers
        self.steal = steal
        self.quantum = quantum
        self.config = config
        self.health = health
        self.lock = threading.Lock()
        self.events: "queue.Queue" = queue.Queue()
        self.stop = threading.Event()
        self.pending: List[_ThreadTask] = list(tasks)  # LPT order
        self.remaining = len(tasks)
        # per-batch tallies, written by idempotent assignment
        # (compute is deterministic)
        self.batch_edges = np.zeros(
            max(t.batch for t in tasks) + 1, dtype=np.int64
        )
        self.rows: List[np.ndarray] = []
        self.threads: List[threading.Thread] = []
        self.pool_failures = 0
        budget = config.max_pool_failures
        self.failure_budget = (
            budget if budget is not None else max(2 * workers, 4)
        )
        self.abandoned = False

    # -- worker side ---------------------------------------------------
    def _claim(self, wid: int) -> List[Tuple[_ThreadTask, int, int]]:
        """Claim up to a quantum of ready tasks (affinity first).

        Returns ``(task, attempt, gen)`` snapshots; the generation lets
        the fold detect that the parent abandoned this attempt while it
        was computing.  Called with the lock held.
        """
        now = time.monotonic()
        picked: List[Tuple[_ThreadTask, int, int]] = []
        own = [
            t for t in self.pending
            if t.affinity == wid and t.not_before <= now
        ]
        for task in own[: self.quantum]:
            self.pending.remove(task)
            picked.append((task, task.attempts, task.gen))
            task.attempts += 1
        if picked or not self.steal:
            return picked
        # steal: the queue is LPT-ordered, so the first ready task is
        # the heaviest remaining one — same victim policy as the pool
        for task in list(self.pending):
            if task.not_before > now:
                continue
            self.pending.remove(task)
            task.events.append(f"steal:{task.affinity}->{wid}")
            task.affinity = wid
            self.health.steals += 1
            picked.append((task, task.attempts, task.gen))
            task.attempts += 1
            if len(picked) >= self.quantum:
                break
        return picked

    def _worker(self, wid: int, row: np.ndarray) -> None:
        deferred: Optional[tuple] = None
        replaced = False

        def fold(item: tuple) -> bool:
            """Fold one finished batch; False if the attempt is stale."""
            task, gen, verts, delta, edges = item
            with self.lock:
                if task.done or task.gen != gen:
                    # the parent abandoned this attempt (timeout) or
                    # resolved the task elsewhere: this thread's slot
                    # has been replaced, so it must bow out
                    return False
                task.done = True
                task.deadline = None
                self.batch_edges[task.batch] = edges
                self.remaining -= 1
            if verts is None:
                np.add(row, delta, out=row)
            else:
                np.add.at(row, verts, delta)
            self.events.put(("ok", task, gen))
            return True

        while not self.stop.is_set():
            with self.lock:
                claimed = self._claim(wid)
                idle_done = not claimed and self.remaining == 0
            if idle_done:
                break
            if not claimed:
                if deferred is not None:
                    if not fold(deferred):
                        replaced = True
                    deferred = None
                    if replaced:
                        break
                time.sleep(self.config.poll_interval)
                continue
            for task, attempt, gen in claimed:
                timeout = self.config.timeout
                task.deadline = (
                    time.monotonic() + timeout
                    if timeout is not None
                    else None
                )
                try:
                    _faults.fire_thread_faults(task.index, attempt)
                    verts, delta, edges = self.compute(task.batch)
                except _faults.WorkerThreadKilled:
                    # this worker "dies": flush the previous batch
                    # (it completed legitimately), report the crash,
                    # and exit the loop like a dead process would
                    if deferred is not None:
                        fold(deferred)
                        deferred = None
                    task.deadline = None
                    self.events.put(("crash", task, gen, wid))
                    return
                except BaseException as exc:
                    task.deadline = None
                    self.events.put(("error", task, gen, exc))
                    continue
                # the attempt met its budget: stop the clock now so a
                # deferred fold parked behind the next compute cannot
                # be mistaken for a stuck task
                task.deadline = None
                # deferred fold: reduce batch i while computing i+1
                if deferred is not None and not fold(deferred):
                    replaced = True
                deferred = (task, gen, verts, delta, edges)
                if replaced:
                    break
            if replaced:
                break
        if deferred is not None:
            fold(deferred)

    def spawn(self, wid: int) -> None:
        row = np.zeros(self.n, dtype=SCORE_DTYPE)
        self.rows.append(row)
        thread = threading.Thread(
            target=self._worker, args=(wid, row), daemon=True
        )
        self.threads.append(thread)
        self.health.workers_spawned += 1
        thread.start()

    # -- parent side ---------------------------------------------------
    def serial_run(self, task: _ThreadTask, extra: np.ndarray) -> None:
        """The trusted serial rung: compute in the parent, no hooks."""
        verts, delta, edges = self.compute(task.batch)
        with self.lock:
            task.done = True
            task.deadline = None
            self.batch_edges[task.batch] = edges
            self.remaining -= 1
        if verts is None:
            extra += delta
        else:
            extra[verts] += delta

    def finish(self, task: _ThreadTask, status: str) -> None:
        self.health.outcomes.append(
            TaskOutcome(
                task=task.index,
                attempts=task.attempts,
                status=status,
                events=list(task.events),
            )
        )

    def fail(
        self, task: _ThreadTask, kind: str, extra: np.ndarray
    ) -> None:
        """Retry with backoff, else serial rung (or raise)."""
        with self.lock:
            if task.done:
                return
            task.gen += 1  # discard any still-running stale attempt
            task.deadline = None
            if task.attempts <= self.config.max_retries:
                self.health.retries += 1
                task.events.append("retry")
                task.not_before = time.monotonic() + self.config.backoff(
                    task.attempts
                )
                self.pending.append(task)
                return
        if not self.config.fallback:
            self.stop.set()
            self.finish(task, "failed")
            detail = (
                f"task {task.index} failed after {task.attempts} "
                f"attempt(s): {' -> '.join(task.events)}"
            )
            if kind == "timeout":
                raise TaskTimeoutError(detail)
            if kind == "crash":
                raise WorkerCrashError(detail)
            raise ExecutionError(detail)
        self.health.serial_retries += 1
        task.events.append("serial")
        self.serial_run(task, extra)
        self.finish(task, "ok-serial")

    def scan_timeouts(self, extra: np.ndarray) -> None:
        now = time.monotonic()
        with self.lock:
            expired = [
                t for t in self.tasks
                if t.deadline is not None and now > t.deadline
                and not t.done
            ]
        for task in expired:
            task.events.append("timeout")
            self.health.timeouts += 1
            self.pool_failures += 1
            # the stuck thread cannot be killed; replace its slot so
            # pool capacity survives until the zombie bows out
            if not self.stop.is_set():
                self.spawn(task.affinity)
            self.fail(task, "timeout", extra)

    def handle(self, event: tuple, extra: np.ndarray) -> None:
        kind = event[0]
        if kind == "ok":
            _, task, gen = event
            self.health.pool_ok += 1
            self.finish(task, "ok-pool")
            return
        if kind == "error":
            _, task, gen, exc = event
            with self.lock:
                if task.done or task.gen != gen:
                    return  # stale attempt: already resolved
            self.health.task_errors += 1
            task.events.append(f"error:{type(exc).__name__}")
            self.fail(task, "error", extra)
            return
        # crash: the worker thread exited; restore pool capacity
        _, task, gen, wid = event
        with self.lock:
            stale = task.done or task.gen != gen
        self.health.worker_crashes += 1
        self.pool_failures += 1
        if not self.stop.is_set():
            self.spawn(wid)
        if not stale:
            task.events.append("crash")
            self.fail(task, "crash", extra)

    def drain_serial(self, extra: np.ndarray) -> None:
        """Pool abandoned: resolve every unfinished task in the parent."""
        self.abandoned = True
        self.health.pool_abandoned = True
        self.stop.set()
        with self.lock:
            unfinished = sorted(
                (t for t in self.tasks if not t.done),
                key=lambda t: t.index,
            )
            for task in unfinished:
                task.gen += 1
                task.deadline = None
            self.pending = []
        if not self.config.fallback and unfinished:
            for task in unfinished:
                self.finish(task, "failed")
            raise WorkerCrashError(
                f"pool unhealthy after {self.pool_failures} worker "
                f"failure(s) and fallback is disabled "
                f"({len(unfinished)} task(s) unresolved)"
            )
        for task in unfinished:
            self.health.drained_serial += 1
            task.events.append("drain-serial")
            self.serial_run(task, extra)
            self.finish(task, "ok-serial")

    def _horizon(self) -> float:
        horizon = self.config.poll_interval
        now = time.monotonic()
        with self.lock:
            for task in self.tasks:
                if task.deadline is not None and not task.done:
                    horizon = min(horizon, max(task.deadline - now, 0.0))
        return max(horizon, 0.001)

    def supervise(self, extra: np.ndarray) -> None:
        try:
            while True:
                with self.lock:
                    rem = self.remaining
                if rem == 0:
                    break
                if (
                    self.pool_failures > self.failure_budget
                    and not self.abandoned
                ):
                    self.drain_serial(extra)
                    break
                try:
                    event = self.events.get(timeout=self._horizon())
                except queue.Empty:
                    event = None
                if event is not None:
                    self.handle(event, extra)
                self.scan_timeouts(extra)
        except KeyboardInterrupt:
            # graceful drain: no new work, give in-flight folds up to
            # one task budget to land, then re-raise
            self.health.interrupted = True
            self.stop.set()
            with self.lock:
                self.pending = []
            deadline = time.monotonic() + (self.config.timeout or 10.0)
            while time.monotonic() < deadline:
                with self.lock:
                    busy = any(
                        t.deadline is not None and not t.done
                        for t in self.tasks
                    )
                if not busy:
                    break
                try:
                    event = self.events.get(timeout=0.05)
                except queue.Empty:
                    continue
                if event[0] == "ok":
                    self.handle(event, extra)
            raise
        finally:
            self.stop.set()
            for thread in self.threads:
                thread.join(timeout=5.0)
            # the fold that took ``remaining`` to zero may have queued
            # its "ok" after the loop already exited — account for it
            while True:
                try:
                    event = self.events.get_nowait()
                except queue.Empty:
                    break
                if event[0] == "ok":
                    self.handle(event, extra)


def threaded_contributions(
    compute: Callable[[int], Tuple[Optional[np.ndarray], np.ndarray, int]],
    weights: Sequence[float],
    *,
    n: int,
    workers: int,
    steal: bool = True,
    config: Optional[SupervisorConfig] = None,
    health: Optional[RunHealth] = None,
    fuse: Optional[int] = None,
) -> Tuple[np.ndarray, int, np.ndarray]:
    """Accumulate ``compute(batch_id)`` deltas across worker threads.

    The threaded engine behind the ``threads`` backend, signature- and
    contract-compatible with the process pool's engine: ``compute``
    maps a batch id to ``(verts, delta, edges)``, must be deterministic,
    thread-safe and safe to re-run (retries and serial recovery
    recompute batches), and the return is ``(scores, edge_total,
    batch_edges)`` with the edge total the exact sum of the per-batch
    tallies.  ``compute`` runs concurrently on worker threads — it only
    parallelises work whose kernels release the GIL (the SpMM batched
    kernel does).

    ``fuse`` sets the scheduling quantum (batches claimed per queue
    access); the default adapts to the run size.  ``steal=False``
    restricts every worker to its LPT-planned batches.  Degrades inline
    (bit-identical to the serial chunk loop) for ``workers <= 1`` or a
    single batch.
    """
    num = len(weights)
    config = config or SupervisorConfig()
    health = health if health is not None else RunHealth()
    health.tasks += num
    total = np.zeros(n, dtype=SCORE_DTYPE)
    if num == 0:
        return total, 0, np.zeros(0, dtype=np.int64)
    if workers <= 1 or num == 1:
        health.inline = True
        batch_edges = np.zeros(num, dtype=np.int64)
        for batch_id in range(num):
            verts, delta, batch_edges[batch_id] = compute(batch_id)
            if verts is None:
                total += delta
            else:
                total[verts] += delta
            health.outcomes.append(
                TaskOutcome(task=batch_id, attempts=1, status="ok-pool",
                            events=["inline"])
            )
        return total, int(batch_edges.sum()), batch_edges

    workers = min(workers, num)
    order = lpt_order(weights)
    bins = assign_lpt(weights, workers)
    wid_of_batch = {
        batch: wid for wid, tasks in enumerate(bins) for batch in tasks
    }
    tasks = [
        _ThreadTask(index=p, batch=batch, affinity=wid_of_batch[batch])
        for p, batch in enumerate(order)
    ]
    run = _ThreadRun(
        compute, tasks, n, workers, steal,
        _fuse_quantum(num, workers, fuse), config, health,
    )
    extra = np.zeros(n, dtype=SCORE_DTYPE)
    for wid in range(workers):
        run.spawn(wid)
    run.supervise(extra)
    total = tree_reduce(run.rows + [extra])
    batch_edges = run.batch_edges[:num].copy()
    return total, int(batch_edges.sum()), batch_edges


def threaded_bc_scores(
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
    fuse: Optional[int] = None,
) -> np.ndarray:
    """BC contribution sum over ``sources`` on the thread pool.

    The threads-backend composition of
    :func:`repro.graph.batched.batched_bc_scores`: the same
    ``batch``-sized source chunks, fanned out across ``workers``
    threads over the *shared in-process CSR* — no SharedArray
    publication, no fork, no pickling.  One set of SpMM operands is
    built in the parent and read concurrently; every thread alternates
    between two private :class:`BatchWorkspace` buffers so the
    deferred fold of one chunk overlaps the compute of the next.

    Scores agree with the serial batched path within float64 reduction
    tolerance (≤1e-9 in practice) and the examined-edge tally added to
    ``counter`` is exactly the serial one.  Degrades inline
    (bit-identical to serial batched) for ``workers <= 1`` or a single
    chunk; otherwise supervision follows ``config`` with events
    tallied into ``health``.
    """
    from repro.graph import kernels as _kernels

    srcs = np.asarray(list(sources), dtype=np.int64).ravel()
    if srcs.size == 0:
        return np.zeros(graph.n, dtype=SCORE_DTYPE)
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    kernel = _kernels.resolve_kernel_name(kernel)
    kern = _kernels.get_kernel(kernel)
    bounds = [
        (lo, min(lo + batch, srcs.size))
        for lo in range(0, srcs.size, batch)
    ]
    if workers <= 1 or len(bounds) == 1:
        from repro.graph.batched import batched_bc_scores

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

    # per-run shared context (SpMM operands, compiled kernels) built
    # once in the parent: threads share the address space, so every
    # worker reads the same structures concurrently
    ctx = (
        kern.prepare(graph, min(batch, srcs.size), roots=srcs.size)
        if kern.prepare is not None
        else None
    )
    tls = threading.local()

    def compute(batch_id: int):
        lo, hi = bounds[batch_id]
        chunk = srcs[lo:hi]
        tally = _EdgeTally()
        # double-buffered per-thread workspaces: the engine folds
        # chunk i's delta while chunk i+1 computes, so each thread
        # alternates buffers to keep both chunks' state disjoint
        pair = getattr(tls, "pair", None)
        if pair is None:
            pair = (BatchWorkspace(), BatchWorkspace())
            tls.pair = pair
            tls.flip = 0
        ws = pair[tls.flip]
        tls.flip ^= 1
        delta = kern.contributions(
            graph, chunk, counter=tally, workspace=ws, context=ctx
        )
        return None, delta, tally.edges

    weights = [float(hi - lo) for lo, hi in bounds]
    total, edge_total, _ = threaded_contributions(
        compute,
        weights,
        n=graph.n,
        workers=workers,
        steal=steal,
        config=config,
        health=health,
        fuse=fuse,
    )
    if counter is not None:
        counter.add(edge_total)
    return total
