"""Supervised coarse-grained execution: the fault-tolerant pool.

A plain ``multiprocessing.Pool.map`` inherits the paper's assumption
that workers never die: one OOM-killed child hangs or kills an entire
run.  :func:`supervised_map` is the fault-tolerant map used by the
weighted APGRE driver, the source-parallel baselines and the
benchmark harness, and its :class:`_PoolSupervisor` also drives the
shared-memory engine behind the APGRE BC phase
(:mod:`repro.parallel.batched_pool`).  It dispatches
each task to a dedicated worker over a pipe (future-style, one
in-flight task per worker) and supervises the pool:

* **crash detection** — a dead worker is noticed via pipe EOF /
  ``Process.is_alive`` instead of hanging a blind ``Pool.map``;
* **per-task wall-clock timeouts** — a stuck worker is killed, never
  left occupying the pool;
* **bounded retry with exponential backoff** — crashed, timed-out,
  raising and corrupt-result tasks are re-dispatched up to
  ``max_retries`` times, each retry delayed by
  ``backoff_base * backoff_factor**(attempt-1)`` seconds;
* **graceful degradation** — a task that exhausts its pool retries is
  re-run *inline* in the parent (the serial rung), and a pool whose
  respawn budget is spent is abandoned entirely, draining every
  remaining task serially.  With ``fallback=False`` the same events
  raise :class:`~repro.errors.WorkerCrashError` /
  :class:`~repro.errors.TaskTimeoutError` instead.

Every event is tallied in a :class:`RunHealth` report (attached to
``BCResult.health`` by the APGRE driver) so a degraded run is visible,
not silent.  All failure paths are exercised deterministically by the
fault-injection harness (:mod:`repro.parallel.faults`); see
docs/ROBUSTNESS.md for the full degradation ladder.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ExecutionError, TaskTimeoutError, WorkerCrashError
from repro.parallel import faults as _faults
from repro.parallel import pool as _pool

__all__ = [
    "SupervisorConfig",
    "TaskOutcome",
    "RunHealth",
    "supervised_map",
    "call_with_timeout",
]


@dataclass(frozen=True)
class SupervisorConfig:
    """Fault-tolerance policy for one :func:`supervised_map` call.

    Attributes
    ----------
    timeout:
        Per-task wall-clock budget in seconds, measured from dispatch
        to a worker; ``None`` disables timeouts.
    max_retries:
        Pool re-dispatches allowed per task *after* its first attempt.
        ``0`` means any failure goes straight to the serial rung.
    backoff_base / backoff_factor:
        Retry ``k`` (1-based) of a task waits
        ``backoff_base * backoff_factor**(k-1)`` seconds before being
        re-dispatched (the pool keeps serving other tasks meanwhile).
    fallback:
        ``True`` (default) enables the serial rungs of the degradation
        ladder; ``False`` turns exhausted retries into
        :class:`WorkerCrashError` / :class:`TaskTimeoutError`.
    max_pool_failures:
        Worker deaths (crashes + timeout kills) tolerated before the
        pool is declared unhealthy and abandoned; ``None`` auto-sizes
        to ``max(2 * workers, 4)``.
    validate:
        Optional ``validate(payload, result) -> bool`` hook; a
        ``False`` verdict marks the result corrupt and retries the
        task like any other failure.
    poll_interval:
        Supervisor wake-up granularity in seconds (bounds how late a
        timeout or backoff expiry can be noticed).
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    fallback: bool = True
    max_pool_failures: Optional[int] = None
    validate: Optional[Callable[[Any, Any], bool]] = None
    poll_interval: float = 0.02

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {self.timeout}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff_base must be >= 0 and "
                             "backoff_factor >= 1")
        if self.max_pool_failures is not None and self.max_pool_failures < 0:
            raise ValueError("max_pool_failures must be >= 0")
        if self.poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")

    def backoff(self, retry: int) -> float:
        """Delay before re-dispatching retry ``retry`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** max(retry - 1, 0)


@dataclass
class TaskOutcome:
    """Final fate of one task, with the event trail that led there."""

    task: int
    attempts: int
    status: str  # "ok-pool" | "ok-serial" | "failed"
    events: List[str] = field(default_factory=list)


@dataclass
class RunHealth:
    """Supervision report for one (or several merged) supervised maps.

    A run with ``ok`` True saw no fault of any kind; ``degraded`` True
    means at least one task left the happy path (retry, serial re-run,
    pool abandonment or a whole-computation fallback).
    """

    tasks: int = 0
    pool_ok: int = 0          # tasks that succeeded in the pool
    retries: int = 0          # pool re-dispatches
    steals: int = 0           # batches run off their LPT-planned worker
    worker_crashes: int = 0   # dead workers detected
    timeouts: int = 0         # tasks killed for exceeding the budget
    task_errors: int = 0      # exceptions raised inside workers
    corrupt_results: int = 0  # validate() rejections
    serial_retries: int = 0   # tasks resolved on the serial rung
    workers_spawned: int = 0
    pool_abandoned: bool = False
    drained_serial: int = 0   # tasks drained serially after abandonment
    inline: bool = False      # whole map ran inline (no pool involved)
    fallback_path: str = ""   # ""|"serial"|"brandes": computation-level rung
    interrupted: bool = False  # run stopped by SIGINT/SIGTERM drain
    journal_records: int = 0  # contributions durably journaled this run
    journal_resumable: bool = False  # a journal exists to resume from
    outcomes: List[TaskOutcome] = field(default_factory=list)

    @property
    def faults(self) -> int:
        """Total faults observed (crashes + timeouts + errors + corrupt)."""
        return (self.worker_crashes + self.timeouts
                + self.task_errors + self.corrupt_results)

    @property
    def degraded(self) -> bool:
        return bool(
            self.faults or self.serial_retries or self.pool_abandoned
            or self.drained_serial or self.fallback_path
        )

    @property
    def ok(self) -> bool:
        return not self.degraded

    def merge(self, other: "RunHealth") -> "RunHealth":
        """Fold another report into this one (multi-phase runs)."""
        self.tasks += other.tasks
        self.pool_ok += other.pool_ok
        self.retries += other.retries
        self.steals += other.steals
        self.worker_crashes += other.worker_crashes
        self.timeouts += other.timeouts
        self.task_errors += other.task_errors
        self.corrupt_results += other.corrupt_results
        self.serial_retries += other.serial_retries
        self.workers_spawned += other.workers_spawned
        self.pool_abandoned = self.pool_abandoned or other.pool_abandoned
        self.drained_serial += other.drained_serial
        self.inline = self.inline and other.inline
        self.fallback_path = self.fallback_path or other.fallback_path
        self.interrupted = self.interrupted or other.interrupted
        self.journal_records += other.journal_records
        self.journal_resumable = (
            self.journal_resumable or other.journal_resumable
        )
        self.outcomes.extend(other.outcomes)
        return self

    def summary(self) -> str:
        """One-line human-readable digest."""
        if self.inline and not self.degraded:
            return f"ok: {self.tasks} task(s) inline"
        if self.ok:
            return f"ok: {self.tasks} task(s), no faults"
        parts = [f"degraded: {self.tasks} task(s)"]
        for label, count in (
            ("crash", self.worker_crashes),
            ("timeout", self.timeouts),
            ("error", self.task_errors),
            ("corrupt", self.corrupt_results),
            ("retry", self.retries),
            ("serial", self.serial_retries + self.drained_serial),
        ):
            if count:
                parts.append(f"{count} {label}")
        if self.pool_abandoned:
            parts.append("pool abandoned")
        if self.fallback_path:
            parts.append(f"fell back to {self.fallback_path}")
        if self.interrupted:
            parts.append("interrupted")
        if self.journal_resumable:
            parts.append(
                f"resumable ({self.journal_records} journaled)"
            )
        return ", ".join(parts)


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _worker_main(conn, func: Callable[[Any], Any]) -> None:
    """Worker loop: recv (task, attempt, payload), send (task, status, value).

    ``func`` arrives through fork inheritance (never pickled), as do
    the worker-global state (:mod:`repro.parallel.pool`) and the fault
    plan (:mod:`repro.parallel.faults`).
    """
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):  # parent went away
            return
        if msg is None:
            return
        index, attempt, payload = msg
        try:
            _faults.fire_pre_faults(index, attempt)
            value = func(payload)
            value = _faults.apply_corruption(index, attempt, value)
        except BaseException as exc:  # any task bug must reach the parent
            try:
                conn.send((index, "error", exc))
            except Exception:
                conn.send((index, "error",
                           ExecutionError(f"unpicklable worker exception: "
                                          f"{exc!r}")))
        else:
            try:
                conn.send((index, "ok", value))
            except Exception as exc:
                conn.send((index, "error",
                           ExecutionError(f"unpicklable worker result: "
                                          f"{exc!r}")))


@dataclass
class _Task:
    index: int
    payload: Any
    attempts: int = 0          # dispatches so far
    not_before: float = 0.0    # backoff gate (monotonic clock)
    events: List[str] = field(default_factory=list)


class _Worker:
    __slots__ = ("process", "conn", "task", "deadline", "wid")

    def __init__(self, process, conn, wid: int = 0) -> None:
        self.process = process
        self.conn = conn
        self.task: Optional[_Task] = None
        self.deadline: Optional[float] = None
        # stable pool slot id in [0, workers): survives respawns so
        # affinity-based schedulers can keep addressing "worker 2"
        # after the process occupying that slot died
        self.wid = wid

    def kill(self) -> None:
        try:
            self.process.kill()
            self.process.join()
        except Exception:  # pragma: no cover - already-reaped races
            pass
        self.conn.close()


def _spawn_worker(ctx, func, health: RunHealth, wid: int = 0) -> _Worker:
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_worker_main, args=(child_conn, func), daemon=True
    )
    proc.start()
    child_conn.close()
    health.workers_spawned += 1
    return _Worker(proc, parent_conn, wid)


# ----------------------------------------------------------------------
# supervisor side
# ----------------------------------------------------------------------
class _PoolSupervisor:
    """Drives one supervised map over a pool of dedicated workers."""

    def __init__(self, func, payloads, workers, config, health):
        self.func = func
        self.config = config
        self.health = health
        self.workers = workers
        self.ctx = mp.get_context("fork")
        self.num_tasks = len(payloads)
        self.pending: List[_Task] = [
            _Task(i, p) for i, p in enumerate(payloads)
        ]
        self.results: Dict[int, Any] = {}
        self.idle: List[_Worker] = []
        self.busy: List[_Worker] = []
        self._free_wids: List[int] = list(range(workers))
        self.pool_failures = 0
        budget = config.max_pool_failures
        self.failure_budget = (
            budget if budget is not None else max(2 * workers, 4)
        )
        self.abandoned = False

    # -- lifecycle -----------------------------------------------------
    def run(self) -> List[Any]:
        try:
            while self.pending or self.busy:
                if self.abandoned:
                    self._drain_serial()
                    break
                self._dispatch()
                self._collect()
                self._reap_crashes()
                self._reap_timeouts()
        except KeyboardInterrupt:
            self._drain_interrupted()
            raise
        finally:
            self._shutdown()
        return [self.results[i] for i in range(self.num_tasks)]

    def _drain_interrupted(self) -> None:
        """Graceful SIGINT/SIGTERM drain: finish in-flight tasks only.

        Nothing pending is dispatched; the workers already running a
        task are given up to one task-timeout (else 10s) to deliver
        their result so their work is not discarded mid-write.  A
        second interrupt during the drain aborts it immediately.  The
        caller still sees the original :class:`KeyboardInterrupt` —
        this only bounds how much completed work it can salvage.
        """
        self.health.interrupted = True
        self.pending = []
        deadline = time.monotonic() + (self.config.timeout or 10.0)
        try:
            while self.busy and time.monotonic() < deadline:
                self._collect()
                self._reap_crashes()
        except KeyboardInterrupt:
            pass  # second interrupt: stop draining now

    def _shutdown(self) -> None:
        for worker in self.idle:
            try:
                worker.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in self.idle:
            worker.process.join(timeout=1.0)
            if worker.process.is_alive():  # pragma: no cover - stuck exit
                worker.kill()
            else:
                worker.conn.close()
        for worker in self.busy:
            worker.kill()
        self.idle = []
        self.busy = []

    # -- scheduling ----------------------------------------------------
    def _match(self, ready: List[_Task]) -> Optional[tuple]:
        """Pick the next ``(wid, task)`` pairing, or ``None`` to wait.

        The base policy is FIFO over ready tasks onto any available
        slot (an idle worker, else the lowest free slot id, which
        triggers a spawn).  Subclasses override this to implement
        affinity-aware scheduling — the work-stealing pool in
        :mod:`repro.parallel.batched_pool` matches tasks to the worker
        slots the LPT plan assigned them to.
        """
        if not ready:
            return None
        if self.idle:
            return self.idle[-1].wid, ready[0]
        if self._free_wids:
            return min(self._free_wids), ready[0]
        return None

    def _release_wid(self, worker: _Worker) -> None:
        if worker.wid not in self._free_wids:
            self._free_wids.append(worker.wid)

    def _dispatch(self) -> None:
        now = time.monotonic()
        ready = [t for t in self.pending if t.not_before <= now]
        while True:
            match = self._match(ready)
            if match is None:
                break
            wid, task = match
            ready.remove(task)
            self.pending.remove(task)
            worker = next((w for w in self.idle if w.wid == wid), None)
            if worker is not None:
                self.idle.remove(worker)
            else:
                self._free_wids.remove(wid)
                worker = _spawn_worker(self.ctx, self.func, self.health, wid)
            try:
                worker.conn.send((task.index, task.attempts, task.payload))
            except (BrokenPipeError, OSError):
                # worker died between jobs; treat as a crash of this task
                worker.kill()
                self._release_wid(worker)
                self.health.worker_crashes += 1
                self.pool_failures += 1
                self._record_failure(task, "crash")
                self._check_pool_health()
                continue
            task.attempts += 1
            worker.task = task
            worker.deadline = (
                now + self.config.timeout
                if self.config.timeout is not None
                else None
            )
            self.busy.append(worker)

    def _wait_budget(self) -> float:
        """Sleep horizon: nearest deadline/backoff, capped by poll_interval."""
        horizon = self.config.poll_interval
        now = time.monotonic()
        for worker in self.busy:
            if worker.deadline is not None:
                horizon = min(horizon, max(worker.deadline - now, 0.0))
        for task in self.pending:
            horizon = min(horizon, max(task.not_before - now, 0.0))
        return horizon

    # -- event handling ------------------------------------------------
    def _collect(self) -> None:
        budget = self._wait_budget()
        if not self.busy:
            if self.pending:  # everything is backing off
                time.sleep(budget)
            return
        conns = [w.conn for w in self.busy]
        for conn in mp_connection.wait(conns, timeout=budget):
            worker = next(w for w in self.busy if w.conn is conn)
            try:
                index, status, value = worker.conn.recv()
            except (EOFError, OSError):
                continue  # died mid-send; _reap_crashes handles it
            task = worker.task
            assert task is not None and task.index == index
            self.busy.remove(worker)
            worker.task = None
            worker.deadline = None
            if status == "ok":
                validate = self.config.validate
                if validate is not None and not validate(
                    task.payload, value
                ):
                    self.health.corrupt_results += 1
                    self.idle.append(worker)
                    self._record_failure(task, "corrupt")
                else:
                    self.results[index] = value
                    self.health.pool_ok += 1
                    self.idle.append(worker)
                    self._finish(task, "ok-pool")
            else:  # the task function raised inside the worker
                self.health.task_errors += 1
                self.idle.append(worker)
                task.events.append(f"error:{type(value).__name__}")
                self._record_failure(task, "error", note=False)

    def _reap_crashes(self) -> None:
        for worker in list(self.busy):
            if worker.process.is_alive():
                continue
            self.busy.remove(worker)
            worker.conn.close()
            self._release_wid(worker)
            task = worker.task
            assert task is not None
            self.health.worker_crashes += 1
            self.pool_failures += 1
            self._record_failure(task, "crash")
        self._check_pool_health()

    def _reap_timeouts(self) -> None:
        now = time.monotonic()
        for worker in list(self.busy):
            if worker.deadline is None or now <= worker.deadline:
                continue
            self.busy.remove(worker)
            task = worker.task
            assert task is not None
            worker.kill()  # the only reliable way to reclaim the slot
            self._release_wid(worker)
            self.health.timeouts += 1
            self.pool_failures += 1
            self._record_failure(task, "timeout")
        self._check_pool_health()

    def _check_pool_health(self) -> None:
        if not self.abandoned and self.pool_failures > self.failure_budget:
            self.abandoned = True
            self.health.pool_abandoned = True

    # -- retry / degradation ladder -------------------------------------
    def _record_failure(
        self, task: _Task, kind: str, *, note: bool = True
    ) -> None:
        if note:
            task.events.append(kind)
        if task.attempts <= self.config.max_retries:
            self.health.retries += 1
            task.events.append("retry")
            task.not_before = time.monotonic() + self.config.backoff(
                task.attempts
            )
            self.pending.append(task)
            return
        if not self.config.fallback:
            self._finish(task, "failed")
            detail = (
                f"task {task.index} failed after {task.attempts} "
                f"attempt(s): {' -> '.join(task.events)}"
            )
            if kind == "timeout":
                raise TaskTimeoutError(detail)
            if kind == "crash":
                raise WorkerCrashError(detail)
            raise ExecutionError(detail)
        self._run_serial(task)

    def _run_serial(self, task: _Task) -> None:
        """The serial rung: re-run the task inline in the parent."""
        self.health.serial_retries += 1
        task.events.append("serial")
        value = self.func(task.payload)
        validate = self.config.validate
        if validate is not None and not validate(task.payload, value):
            self._finish(task, "failed")
            raise ExecutionError(
                f"task {task.index} produced an invalid result even on "
                f"the serial rung ({' -> '.join(task.events)})"
            )
        self.results[task.index] = value
        self._finish(task, "ok-serial")

    def _drain_serial(self) -> None:
        """Pool abandoned: resolve every unfinished task inline."""
        unfinished = sorted(
            self.pending + [w.task for w in self.busy if w.task is not None],
            key=lambda t: t.index,
        )
        for worker in self.busy:
            worker.kill()
        self.busy = []
        self.pending = []
        if not self.config.fallback and unfinished:
            for task in unfinished:
                self._finish(task, "failed")
            raise WorkerCrashError(
                f"pool unhealthy after {self.pool_failures} worker "
                f"failure(s) and fallback is disabled "
                f"({len(unfinished)} task(s) unresolved)"
            )
        for task in unfinished:
            self.health.drained_serial += 1
            task.events.append("drain-serial")
            self.results[task.index] = self.func(task.payload)
            self._finish(task, "ok-serial")

    def _finish(self, task: _Task, status: str) -> None:
        self.health.outcomes.append(
            TaskOutcome(
                task=task.index,
                attempts=task.attempts,
                status=status,
                events=list(task.events),
            )
        )


def supervised_map(
    func: Callable[[Any], Any],
    payloads: Sequence[Any],
    *,
    workers: int,
    state: Optional[dict] = None,
    config: Optional[SupervisorConfig] = None,
    health: Optional[RunHealth] = None,
) -> List[Any]:
    """Fault-tolerant fork-pool map.

    A module-level ``func`` is mapped over small ``payloads`` with
    heavy context in ``state`` (read through
    :func:`repro.parallel.pool.get_worker_state`), results in payload
    order, under the supervision policy of ``config`` with events
    tallied into ``health`` (pass a :class:`RunHealth` to collect
    them; it is mutated in place).

    Inline degradation contract: ``workers == 1``, a single payload or
    a platform without ``fork`` runs the map in-process with
    bit-identical results (``health.inline`` is set and no supervision
    applies — there is no worker to crash).  Raises ``ValueError`` for
    ``workers < 1``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    config = config or SupervisorConfig()
    health = health if health is not None else RunHealth()
    health.tasks += len(payloads)
    installed = state is not None
    if installed:
        _pool._install_state(state)
    try:
        if (
            workers == 1
            or len(payloads) <= 1
            or not _pool._supports_fork()
        ):
            health.inline = True
            out = [func(p) for p in payloads]
            for i in range(len(payloads)):
                health.outcomes.append(
                    TaskOutcome(task=i, attempts=1, status="ok-pool",
                                events=["inline"])
                )
            return out
        supervisor = _PoolSupervisor(
            func, payloads, min(workers, len(payloads)), config, health
        )
        return supervisor.run()
    finally:
        if installed:
            _pool._STATE.clear()


# ----------------------------------------------------------------------
# single supervised call (bench runner jobs)
# ----------------------------------------------------------------------
def _call_child(conn, func, args, kwargs) -> None:
    try:
        value = func(*args, **kwargs)
    except BaseException as exc:
        try:
            conn.send(("error", exc))
        except Exception:
            conn.send(("error",
                       ExecutionError(f"unpicklable exception: {exc!r}")))
    else:
        try:
            conn.send(("ok", value))
        except Exception as exc:
            conn.send(("error",
                       ExecutionError(f"unpicklable result: {exc!r}")))


def call_with_timeout(
    func: Callable[..., Any],
    *args: Any,
    timeout: Optional[float],
    **kwargs: Any,
) -> Any:
    """Run ``func(*args, **kwargs)`` under a wall-clock budget.

    The call executes in a forked child so a runaway computation can
    be killed cleanly; the result (or the exception the call raised,
    re-raised here with its original type) travels back over a pipe.
    ``timeout=None`` — or a platform without ``fork`` — degrades to a
    plain in-process call.

    Raises
    ------
    TaskTimeoutError
        The budget elapsed (the child is killed first).
    WorkerCrashError
        The child died without reporting a result.
    """
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")
    if timeout is None or not _pool._supports_fork():
        return func(*args, **kwargs)
    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe()
    proc = ctx.Process(
        target=_call_child, args=(child_conn, func, args, kwargs),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    try:
        if not parent_conn.poll(timeout):
            proc.kill()
            proc.join()
            raise TaskTimeoutError(
                f"{getattr(func, '__name__', func)!s} exceeded "
                f"{timeout:g}s wall-clock budget"
            )
        try:
            status, value = parent_conn.recv()
        except (EOFError, OSError):
            proc.join()
            raise WorkerCrashError(
                f"worker died while running "
                f"{getattr(func, '__name__', func)!s} "
                f"(exit code {proc.exitcode})"
            ) from None
    finally:
        parent_conn.close()
    proc.join()
    if status == "ok":
        return value
    if isinstance(value, BaseException):
        raise value
    raise ExecutionError(str(value))  # pragma: no cover - defensive
