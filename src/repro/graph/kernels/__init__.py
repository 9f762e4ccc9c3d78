"""Compute-kernel registry for the batched traversal layer.

:mod:`repro.parallel.backends` answers *where* a run executes (serial,
threads, processes); this registry answers *how* each (sub-graph,
batch) traverses its arcs, one level down.  Every registered
:class:`ComputeKernel` is a batched-contributions implementation with
a capability probe, so optional dependencies degrade to a clean miss
(the cache's disk-layer policy) instead of an import error:

``"arcs"``
    The pure-numpy flattened-scatter kernel
    (:func:`repro.graph.batched.arcs_contributions`) — always
    available, per-row bit-identical to the serial per-source path.
``"spmm"``
    The scipy ``csr_matmat`` level kernel
    (:func:`repro.graph.batched.spmm_contributions`) — the default
    whenever scipy's sparsetools extension loads.
``"pull"``
    The direction-optimizing (push/pull) kernel
    (:mod:`repro.graph.kernels.pull`): Beamer-style top-down /
    bottom-up switching on union-frontier density, pure numpy, always
    available.  Bottom-up probes are tallied separately
    (``edges_pulled``) but stay inside TEPS.

Every kernel serves both Brandes and APGRE's sub-graph step: the
contract's ``weights`` (:class:`repro.graph.batched.SweepWeights`)
turn the plain batched sweep into the weighted one.

``resolve_kernel_name`` mirrors ``resolve_backend``: an explicit name
wins, then the ``REPRO_KERNEL`` environment variable, then the host
default (:func:`default_kernel_name`).  ``"auto"``, by name only,
picks per sub-graph from cheap structural features (density,
two-sweep estimated diameter, BFS coverage, batch width) and **never**
selects an unavailable kernel.  Explicitly requesting an unavailable kernel
degrades to the default with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import os
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.batched import (
    _spmm_operands_for,
    arcs_contributions,
    spmm_available,
    spmm_contributions,
)
from repro.graph.csr import CSRGraph

__all__ = [
    "KERNEL_ENV_VAR",
    "ComputeKernel",
    "KernelFeatures",
    "register_kernel",
    "kernel_names",
    "get_kernel",
    "default_kernel_name",
    "resolve_kernel_name",
    "select_kernel",
    "kernel_features",
    "kernel_report",
]

#: Environment override consulted when no explicit kernel is passed
#: (mirrors ``REPRO_PARALLEL_BACKEND`` at the scheduling layer).
KERNEL_ENV_VAR = "REPRO_KERNEL"

# ``auto`` selection thresholds: the pull kernel pays a full bottom-up
# probe of every unvisited in-arc per pulled level (σ-counting has no
# first-parent early exit), which only beats top-down expansion when
# BFS *saturates* — most vertices reachable, few levels, and arcs
# dense enough that one or two frontiers carry most of the mass.
# Sparse or partially-reachable graphs keep unvisited in-arc mass high
# for many levels and re-probe it each one, so the thresholds are
# deliberately strict (measured on the bench workloads: dense
# BA/G(n,p) shapes win 1.5-3.5x, an 8.7-avg-degree directed social
# analogue loses ~30%).
AUTO_PULL_MAX_DIAMETER = 8
AUTO_PULL_MIN_AVG_DEG = 10.0
AUTO_PULL_MIN_REACHED = 0.5
AUTO_PULL_MIN_BATCH = 8
AUTO_MIN_VERTICES = 256


@dataclass(frozen=True)
class ComputeKernel:
    """One traversal strategy for batched BC contributions.

    ``contributions(graph, sources, *, counter=None, workspace=None,
    context=None, weights=None)`` returns the summed ``(n,)``
    dependency vector of the batch with source self-dependencies
    zeroed — the contract of
    :func:`repro.graph.batched.batched_contributions` — or, with
    ``weights``, the weighted merge of
    :class:`~repro.graph.batched.SweepWeights`.  ``prepare``
    optionally builds per-run shared state (SpMM operands, compiled
    functions) handed back as ``context``; ``probe`` must be cheap and
    side-effect free after its first call.

    ``row_tallies`` marks a kernel whose rows never influence each
    other (a push kernel): its ``contributions`` also take
    ``row_edges``, an int64 array with one slot per source that
    receives each row's examined arcs.  APGRE's bundle sweeps
    (:func:`repro.core.batched_subgraph.bc_bundle`) run only on such
    kernels.
    """

    name: str
    description: str
    probe: Callable[[], bool]
    unavailable_reason: str
    contributions: Callable[..., np.ndarray]
    prepare: Optional[Callable[[CSRGraph, int], object]] = None
    row_tallies: bool = False

    def available(self) -> bool:
        return bool(self.probe())


_REGISTRY: Dict[str, ComputeKernel] = {}


def register_kernel(kernel: ComputeKernel) -> ComputeKernel:
    """Add (or replace) a kernel in the registry."""
    _REGISTRY[kernel.name] = kernel
    return kernel


def kernel_names() -> Tuple[str, ...]:
    """Registered kernel names, registration order."""
    return tuple(_REGISTRY)


def get_kernel(name: str) -> ComputeKernel:
    """Look up a kernel; unknown names are an :class:`AlgorithmError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(list(_REGISTRY) + ["auto"])
        raise AlgorithmError(
            f"unknown compute kernel {name!r} (known: {known})"
        ) from None


def default_kernel_name() -> str:
    """The kernel ``auto`` falls back to: spmm when scipy is present."""
    return "spmm" if _REGISTRY["spmm"].available() else "arcs"


@dataclass(frozen=True)
class KernelFeatures:
    """Cheap structural features driving ``auto`` kernel selection."""

    n: int
    m: int
    avg_degree: float
    est_diameter: int
    #: best BFS coverage seen across the two sweeps, as a fraction of
    #: ``n`` — low coverage marks directed graphs whose searches never
    #: saturate (the regime where bottom-up probing re-pays the whole
    #: unreachable in-arc mass every level)
    reached: float = 1.0


# features are a pure function of the CSR, so one two-sweep BFS per
# graph object serves every chunk of a run
_FEATURE_CACHE: "weakref.WeakKeyDictionary[CSRGraph, KernelFeatures]" = (
    weakref.WeakKeyDictionary()
)


def kernel_features(graph: CSRGraph) -> KernelFeatures:
    """Structural features of ``graph`` (cached per graph object).

    The diameter estimate is a two-sweep pseudo-peripheral BFS
    (:func:`repro.graph.traversal.bfs`): BFS from vertex 0's
    component, re-BFS from the farthest vertex, take the depth — a
    classic lower bound that is tight on the road/social shapes the
    suite covers.
    """
    cached = _FEATURE_CACHE.get(graph)
    if cached is not None:
        return cached
    n = int(graph.n)
    m = int(graph.num_arcs)
    if n == 0:
        feats = KernelFeatures(0, 0, 0.0, 0, 0.0)
    else:
        from repro.graph.traversal import bfs

        d0 = bfs(graph, 0)
        far = int(np.argmax(d0))
        dist = bfs(graph, far)
        reached = max(
            int((d0 >= 0).sum()), int((dist >= 0).sum())
        ) / n
        feats = KernelFeatures(
            n=n,
            m=m,
            avg_degree=m / n,
            est_diameter=int(dist.max(initial=0)),
            reached=reached,
        )
    _FEATURE_CACHE[graph] = feats
    return feats


def select_kernel(
    graph: Optional[CSRGraph] = None, batch: Optional[int] = None
) -> str:
    """``auto`` selection: pick a kernel from structural features.

    Dense, small-diameter, mostly-reachable sub-graphs with a wide
    enough batch go to the direction-optimizing ``pull`` kernel (its
    bottom-up passes win exactly when most arcs sit in one or two
    saturated frontiers); everything else — deep road-like graphs,
    sparse social analogues, partially-reachable directed graphs, thin
    batches, tiny sub-graphs — stays on the spmm/arcs default.  Only
    available kernels are ever returned.
    """
    if graph is None:
        return default_kernel_name()
    feats = kernel_features(graph)
    if (
        _REGISTRY["pull"].available()
        and feats.n >= AUTO_MIN_VERTICES
        and feats.avg_degree >= AUTO_PULL_MIN_AVG_DEG
        and 0 < feats.est_diameter <= AUTO_PULL_MAX_DIAMETER
        and feats.reached >= AUTO_PULL_MIN_REACHED
        and (batch is None or batch >= AUTO_PULL_MIN_BATCH)
    ):
        return "pull"
    return default_kernel_name()


def resolve_kernel_name(
    name: Optional[str],
    *,
    graph: Optional[CSRGraph] = None,
    batch: Optional[int] = None,
) -> str:
    """Resolve a kernel option to an available registered name.

    ``None`` defers to ``REPRO_KERNEL`` and then
    :func:`default_kernel_name` — never to ``"auto"``, whose feature
    probe would run once per fresh graph (every sub-graph of an APGRE
    run).  ``"auto"`` selects per (graph, batch) via
    :func:`select_kernel`.  A known but unavailable kernel degrades to
    :func:`default_kernel_name` with a :class:`RuntimeWarning`; an
    unknown name raises.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR, "").strip()
        if not name:
            return default_kernel_name()
    if name == "auto":
        return select_kernel(graph, batch)
    kernel = get_kernel(name)
    if not kernel.available():
        fallback = default_kernel_name()
        warnings.warn(
            f"compute kernel '{name}' unavailable "
            f"({kernel.unavailable_reason}); falling back to "
            f"'{fallback}'",
            RuntimeWarning,
            stacklevel=2,
        )
        return fallback
    return name


def kernel_report() -> Dict[str, Dict[str, object]]:
    """Probe results for every registered kernel (CLI / provenance)."""
    report: Dict[str, Dict[str, object]] = {}
    default = default_kernel_name()
    for name, kernel in _REGISTRY.items():
        ok = kernel.available()
        report[name] = {
            "available": ok,
            "default": name == default,
            "description": kernel.description,
            "reason": None if ok else kernel.unavailable_reason,
        }
    return report


# ---------------------------------------------------------------------------
# registrations


def _arcs_kernel_contributions(
    graph, sources, *, counter=None, workspace=None, context=None,
    weights=None, row_edges=None,
):
    return arcs_contributions(
        graph, sources, counter=counter, workspace=workspace,
        weights=weights, row_edges=row_edges,
    )


def _spmm_kernel_contributions(
    graph, sources, *, counter=None, workspace=None, context=None,
    weights=None, row_edges=None,
):
    return spmm_contributions(
        graph, sources, counter=counter, operands=context,
        workspace=workspace, weights=weights, row_edges=row_edges,
    )


register_kernel(ComputeKernel(
    name="arcs",
    description="pure-numpy flattened scatters (bit-identical to serial)",
    probe=lambda: True,
    unavailable_reason="",
    contributions=_arcs_kernel_contributions,
    row_tallies=True,
))

register_kernel(ComputeKernel(
    name="spmm",
    description="scipy csr_matmat level products (C-compiled expansion)",
    probe=spmm_available,
    unavailable_reason="scipy.sparse._sparsetools does not load",
    contributions=_spmm_kernel_contributions,
    prepare=_spmm_operands_for,
    row_tallies=True,
))

from repro.graph.kernels import pull as _pull  # noqa: E402

register_kernel(ComputeKernel(
    name="pull",
    description=(
        "direction-optimizing push/pull BFS (bottom-up gathers over "
        "unvisited rows)"
    ),
    probe=lambda: True,
    unavailable_reason="",
    contributions=_pull.pull_contributions,
))
