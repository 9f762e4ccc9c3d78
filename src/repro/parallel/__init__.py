"""Parallel execution substrate.

The paper's two-level parallelism maps onto Python as follows
(DESIGN.md §5): fine-grained level-synchronous parallelism is numpy
vectorisation (:mod:`repro.graph.traversal`, :mod:`repro.graph.batched`),
and coarse-grained parallelism across sub-graphs/sources runs on one
of the execution engines behind :mod:`repro.parallel.backends` —
worker threads over the shared CSR (:mod:`repro.parallel.threaded`),
the fork-based shared-memory process pool
(:mod:`repro.parallel.batched_pool`), or an inline loop.  Tasks are
ordered by LPT (:mod:`repro.parallel.scheduler`) so the dominant top
sub-graph starts first.

Every engine is *supervised* (:mod:`repro.parallel.supervisor`):
per-task timeouts, worker-crash detection, bounded retry with backoff
and graceful serial degradation, with every failure path exercised
deterministically by the fault-injection harness
(:mod:`repro.parallel.faults`); see docs/ROBUSTNESS.md.
"""

from repro.parallel.backends import (
    BACKEND_ENV_VAR,
    ExecutionBackend,
    backend_names,
    default_backend_name,
    get_backend,
    register_backend,
    resolve_backend,
)
from repro.parallel.batched_pool import batched_pool_bc_scores, tree_reduce
from repro.parallel.pool import map_sources_bc
from repro.parallel.threaded import threaded_bc_scores, threaded_contributions
from repro.parallel.scheduler import assign_lpt, lpt_order
from repro.parallel.sharedmem import SharedArray
from repro.parallel.supervisor import (
    RunHealth,
    SupervisorConfig,
    TaskOutcome,
    call_with_timeout,
    supervised_map,
)
from repro.parallel.faults import (
    FaultPlan,
    FaultSpec,
    clear_faults,
    injected_faults,
    install_faults,
)

__all__ = [
    "BACKEND_ENV_VAR",
    "ExecutionBackend",
    "backend_names",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "threaded_bc_scores",
    "threaded_contributions",
    "batched_pool_bc_scores",
    "tree_reduce",
    "map_sources_bc",
    "assign_lpt",
    "lpt_order",
    "SharedArray",
    "SupervisorConfig",
    "RunHealth",
    "TaskOutcome",
    "supervised_map",
    "call_with_timeout",
    "FaultSpec",
    "FaultPlan",
    "install_faults",
    "clear_faults",
    "injected_faults",
]
