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

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "BACKEND_ENV_VAR": ".backends",
    "ExecutionBackend": ".backends",
    "backend_names": ".backends",
    "default_backend_name": ".backends",
    "get_backend": ".backends",
    "register_backend": ".backends",
    "resolve_backend": ".backends",
    "threaded_bc_scores": ".threaded",
    "threaded_contributions": ".threaded",
    "batched_pool_bc_scores": ".batched_pool",
    "tree_reduce": ".batched_pool",
    "map_sources_bc": ".pool",
    "assign_lpt": ".scheduler",
    "lpt_order": ".scheduler",
    "SharedArray": ".sharedmem",
    "SupervisorConfig": ".supervisor",
    "RunHealth": ".supervisor",
    "TaskOutcome": ".supervisor",
    "supervised_map": ".supervisor",
    "call_with_timeout": ".supervisor",
    "FaultSpec": ".faults",
    "FaultPlan": ".faults",
    "install_faults": ".faults",
    "clear_faults": ".faults",
    "injected_faults": ".faults",
})
