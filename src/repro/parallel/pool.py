"""Fork-pool plumbing shared by the supervised process engines.

Worker processes are created with the ``fork`` start method, so the
(immutable, read-only) CSR graph arrays and the worker-global state
installed here are inherited copy-on-write — no serialisation of the
graph, matching the paper's shared-memory setting as closely as
CPython allows.  The pools themselves live in
:mod:`repro.parallel.supervisor` (per-task supervision) and
:mod:`repro.parallel.batched_pool` (shared-memory score rows).

Also home to :func:`map_sources_bc`, the baselines' source-parallel
route.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.types import SCORE_DTYPE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.supervisor import RunHealth, SupervisorConfig

__all__ = ["map_sources_bc", "available_workers"]

# worker-global state, installed in the parent before a pool forks
# (inherited through fork, so large arrays are never pickled)
_STATE: dict = {}


def available_workers() -> int:
    """Number of usable CPUs (honours sched_getaffinity when present)."""
    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _supports_fork() -> bool:
    return "fork" in mp.get_all_start_methods()


def _install_state(state: dict) -> None:
    _STATE.clear()
    _STATE.update(state)


def get_worker_state() -> dict:
    """The state dict installed by the enclosing supervised pool."""
    return _STATE


# ----------------------------------------------------------------------
# source-parallel BC (used by the baselines' ``workers=`` option)
# ----------------------------------------------------------------------
def _bc_source_chunk(chunk: Sequence[int]) -> np.ndarray:
    from repro.baselines.common import run_per_source

    return run_per_source(
        _STATE["graph"],
        sources=chunk,
        mode=_STATE["mode"],
        forward=_STATE["forward"],
        batch_size=_STATE.get("batch_size"),
    )


def map_sources_bc(
    graph: CSRGraph,
    sources: Sequence[int],
    *,
    mode: str,
    forward: Callable,
    workers: int,
    supervisor: Optional["SupervisorConfig"] = None,
    health: Optional["RunHealth"] = None,
    batch_size=None,
) -> np.ndarray:
    """Sum per-source BC contributions across a supervised process pool.

    Chunks are dispatched through
    :func:`repro.parallel.supervisor.supervised_map`, so a crashed or
    stuck worker costs one retried chunk, not the whole run.
    ``supervisor`` sets the fault-tolerance policy (default: no
    timeout, 2 retries, serial fallback); pass a
    :class:`~repro.parallel.supervisor.RunHealth` as ``health`` to
    collect the supervision report.  ``batch_size`` makes each worker
    advance its chunk through the multi-source batched kernel
    (requires ``mode="arcs"``; see
    :func:`repro.baselines.common.run_per_source`).
    """
    from repro.parallel.supervisor import supervised_map

    if not sources:
        return np.zeros(graph.n, dtype=SCORE_DTYPE)
    chunk_count = max(workers * 4, 1)
    chunks = [
        list(sources[i::chunk_count])
        for i in range(chunk_count)
        if sources[i::chunk_count]
    ]
    parts = supervised_map(
        _bc_source_chunk,
        chunks,
        workers=workers,
        state={
            "graph": graph,
            "mode": mode,
            "forward": forward,
            "batch_size": batch_size,
        },
        config=supervisor,
        health=health,
    )
    total = np.zeros(graph.n, dtype=SCORE_DTYPE)
    for part in parts:
        total += part
    return total
