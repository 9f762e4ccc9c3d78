"""Configuration for the APGRE driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.decompose.partition import DEFAULT_THRESHOLD
from repro.errors import AlgorithmError

__all__ = ["APGREConfig"]

_AB_METHODS = ("auto", "bfs", "tree")
_BACKENDS = ("auto", "serial", "threads", "processes")
_KERNELS = ("auto", "arcs", "spmm")
_FLAGS = ("eliminate_pendants", "fallback", "steal", "resume")


def _is_int(value: object) -> bool:
    # bool subclasses int, but True is no worker count or batch width
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, value: object) -> None:
    if not _is_int(value):
        raise AlgorithmError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class APGREConfig:
    """Options controlling an APGRE run.

    Attributes
    ----------
    threshold:
        Algorithm-1 small-BCC merge threshold (vertices). Swept by the
        threshold ablation benchmark.
    alpha_beta_method:
        ``"bfs"`` (the paper's blocked BFS, kept as the reference),
        ``"tree"`` (this reproduction's sub-graph-tree DP, for
        directed and undirected graphs) or ``"auto"`` (always tree).
        Both give identical values.
    eliminate_pendants:
        Enable the total-redundancy elimination (R/γ). Disabling it
        runs every vertex as a source — the partial-redundancy-only
        ablation.
    backend:
        Execution engine for the BC phase when ``workers > 1``
        (:mod:`repro.parallel.backends`): ``"threads"`` (worker
        threads over the shared in-process CSR — true multicore via
        the GIL-releasing SpMM kernel, which APGRE's sub-graph sweep
        runs by default; zero fork/pickle overhead),
        ``"processes"`` (the supervised shared-memory fork pool),
        ``"serial"`` (inline chunk loop), or ``"auto"`` (best engine
        for this host).  ``None`` (default) defers to the
        ``REPRO_PARALLEL_BACKEND`` environment variable and then the
        host default.  The engine fans each sub-graph's root slices
        out over ``workers``, largest first.
    workers:
        Worker count.  ``1`` (default) runs the BC phase as an inline
        serial loop; ``> 1`` runs it on the engine ``backend`` names.
    timeout:
        Per-task wall-clock budget in seconds for supervised process
        execution (``None`` disables timeouts). Stuck workers are
        killed and their task retried/degraded per the ladder in
        docs/ROBUSTNESS.md.
    max_retries:
        Pool re-dispatches allowed per failed/timed-out task before
        the task drops to the serial rung.
    fallback:
        ``True`` (default) enables graceful degradation (serial task
        re-runs, and full-serial/Brandes rungs when the pool is
        unhealthy); ``False`` raises
        :class:`~repro.errors.ExecutionError` subclasses instead.
    batch_size:
        Route each sub-graph's root set through the multi-source
        batched kernel (:mod:`repro.graph.batched`), ``batch_size``
        sources at a time. ``"auto"`` (default) sizes each batch to a
        ~4 MiB working set (:func:`~repro.graph.batched.auto_batch_size`);
        a positive int fixes the batch width.  ``None`` runs the
        per-source reference loop of
        :func:`~repro.core.bc_subgraph.bc_subgraph`, and is valid only
        for inline runs: ``workers=1`` with no ``backend`` and no
        ``kernel``.
    steal:
        Allow idle pool workers to steal the heaviest remaining batch
        of the most-loaded peer (engine runs only).
        ``False`` keeps the static LPT placement — kept as the
        measurable baseline the steal scheduler is compared against.
    cache:
        Enable the decomposition-aware contribution cache
        (:mod:`repro.cache`): sub-graphs whose content fingerprint
        (local edges + incoming α/β/γ summaries) is already stored
        replay their scores instead of recomputing; misses run
        through the same BC-phase path as an uncached run and are
        stored.
        ``True`` uses the process-global default store (shared across
        runs), a :class:`~repro.cache.store.ContributionStore` is used
        as-is, ``None``/``False`` disables caching (unless
        ``cache_dir`` is set, which implies ``True``).
    cache_dir:
        Directory for the cache's persistent on-disk layer; setting it
        enables caching. Separate processes and CLI invocations
        pointed at the same directory share warmth.
    journal_dir:
        Directory for the crash-safe run journal (:mod:`repro.journal`):
        every completed sub-graph contribution is durably committed to
        an append-only checksummed log so a killed run resumes from its
        last committed sub-graph.  ``None`` (default) disables
        journaling.  The fingerprint pins only score-relevant fields
        (threshold / alpha_beta_method / eliminate_pendants), so a run
        may resume under a different execution strategy than it was
        journaled under.
    resume:
        Resume from the journal in ``journal_dir``: replay every valid
        record (torn tails are dropped by checksum) and recompute only
        the unjournaled sub-graphs.  Requires ``journal_dir``; a
        missing journal or a fingerprint mismatch raises
        :class:`~repro.errors.JournalError`.
    kernel:
        Compute kernel every sub-graph batch runs
        (:mod:`repro.graph.kernels`; each one runs Algorithm 2 as one
        weighted sweep): ``"arcs"`` (pure numpy), ``"spmm"`` (scipy
        sparse-matmul levels), or ``"auto"`` (the host default).
        ``None`` (default) defers to the ``REPRO_KERNEL`` environment
        variable and then the host default: ``"spmm"`` when scipy's
        sparsetools extension loads, else ``"arcs"``.  Kernels run
        inside the batched paths, so a kernel needs a batch size;
        requesting an unavailable kernel degrades to the default with
        a ``RuntimeWarning``.
    """

    threshold: int = DEFAULT_THRESHOLD
    alpha_beta_method: str = "auto"
    eliminate_pendants: bool = True
    backend: Optional[str] = None
    workers: int = 1
    timeout: Optional[float] = None
    max_retries: int = 2
    fallback: bool = True
    batch_size: Optional[Union[int, str]] = "auto"
    steal: bool = True
    cache: object = None
    cache_dir: Optional[str] = None
    journal_dir: Optional[str] = None
    resume: bool = False
    kernel: Optional[str] = None

    # not a field: benchmarks/e2e/workloads.py:514 still reads cfg.compress
    compress = False

    def __post_init__(self) -> None:
        if self.kernel is not None and self.kernel not in _KERNELS:
            raise AlgorithmError(
                f"kernel must be one of {_KERNELS} or None, "
                f"got {self.kernel!r}"
            )
        if self.backend is not None and self.backend not in _BACKENDS:
            raise AlgorithmError(
                f"backend must be one of {_BACKENDS} or None, "
                f"got {self.backend!r}"
            )
        if self.alpha_beta_method not in _AB_METHODS:
            raise AlgorithmError(
                f"alpha_beta_method must be one of {_AB_METHODS}, "
                f"got {self.alpha_beta_method!r}"
            )
        for name in ("workers", "threshold", "max_retries"):
            _require_int(name, getattr(self, name))
        for name in _FLAGS:
            value = getattr(self, name)
            # a truthy string such as "false" must not read as True
            if not isinstance(value, bool):
                raise AlgorithmError(f"{name} must be a bool, got {value!r}")
        if self.workers < 1:
            raise AlgorithmError(f"workers must be >= 1, got {self.workers}")
        if self.threshold < 0:
            raise AlgorithmError(
                f"threshold must be >= 0, got {self.threshold}"
            )
        if self.timeout is not None and (
            not (_is_int(self.timeout) or isinstance(self.timeout, float))
            or self.timeout <= 0
        ):
            raise AlgorithmError(
                "timeout must be None or a positive number of seconds, "
                f"got {self.timeout!r}"
            )
        if self.max_retries < 0:
            raise AlgorithmError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.resume and not self.journal_dir:
            raise AlgorithmError(
                "resume=True requires journal_dir (there is no journal "
                "to resume from without one)"
            )
        if self.cache is not None and not isinstance(self.cache, bool):
            # duck-typed on purpose: importing repro.cache here would
            # close an import cycle through the APGRE driver
            if not (
                callable(getattr(self.cache, "get", None))
                and callable(getattr(self.cache, "put", None))
            ):
                raise AlgorithmError(
                    "cache must be None, a bool, or a ContributionStore-"
                    f"like object with get/put, got {self.cache!r}"
                )
        if self.batch_size is None:
            if (
                self.backend is not None
                or self.kernel is not None
                or self.workers > 1
            ):
                # the engines move batched deltas and the kernels run
                # inside the batched paths: only the inline loop can
                # run the per-source reference
                raise AlgorithmError(
                    "batch_size=None (the per-source reference) needs "
                    "workers=1 with no backend and no kernel; use "
                    "'auto' or a positive int"
                )
        elif self.batch_size != "auto" and (
            not _is_int(self.batch_size) or self.batch_size < 1
        ):
            raise AlgorithmError(
                "batch_size must be None, 'auto' or a positive "
                f"int, got {self.batch_size!r}"
            )
