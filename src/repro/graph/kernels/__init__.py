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
    The scipy sparse-product level kernel
    (:func:`repro.graph.batched.spmm_contributions`) — the default
    whenever scipy's sparsetools extension loads.  It runs each graph
    in one of two level layouts (:func:`spmm_layout`): the *sparse
    form* (frontier lists, one ``csr_matmat`` per level) or, on
    shallow graphs, the *dense form* (``(n, B)`` state, one
    ``csr_matvecs`` per level).

Every kernel serves both Brandes and APGRE's sub-graph step: the
contract's ``weights`` (:class:`repro.graph.batched.SweepWeights`)
turn the plain batched sweep into the weighted one.

``resolve_kernel_name`` mirrors ``resolve_backend``: an explicit name
wins, then the ``REPRO_KERNEL`` environment variable, then the host
default (:func:`default_kernel_name`), which ``"auto"`` names too.
Explicitly requesting an unavailable kernel degrades to the default
with a :class:`RuntimeWarning`.
"""

from __future__ import annotations

import os
import warnings
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.batched import (
    _spmm_operands_for,
    arcs_contributions,
    auto_batch_size,
    resolve_batch_size,
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
    "kernel_features",
    "kernel_report",
    "SPMM_LEVEL_MARGIN",
    "SPMM_DENSE_MAX_DIAMETER",
    "SPMM_DENSE_MIN_REACHED",
    "resolve_kernel_batch",
    "spmm_layout",
]

#: Environment override consulted when no explicit kernel is passed
#: (mirrors ``REPRO_PARALLEL_BACKEND`` at the scheduling layer).
KERNEL_ENV_VAR = "REPRO_KERNEL"

#: An ``"auto"`` spmm batch prices its rows at this many times the
#: probe's widest level (:attr:`KernelFeatures.peak_level_arcs`): across
#: the 12 suite analogues at scale 1 and the three end-to-end top
#: sub-graphs, the widest level seen from ~200 sampled roots was at
#: most 1.9x the probe's (on the road shapes; 1.01-1.46x elsewhere).
SPMM_LEVEL_MARGIN = 2

#: spmm runs a graph in the dense form when the probe's two-sweep
#: diameter is at most this and its sweeps reached at least
#: :data:`SPMM_DENSE_MIN_REACHED` of the vertices.  Every dense level
#: costs a product over the whole graph, so the form wins only while
#: levels are few: 2.0-2.4x on the small-world suite and e2e tops
#: (diameter 3-5), 1.4x at diameter 11, 1.1x at 19 and 0.8x at 24 on
#: Watts-Strogatz graphs, 0.4-0.7x on the road tops (41-86)
#: (docs/KERNELS.md).
SPMM_DENSE_MAX_DIAMETER = 12
SPMM_DENSE_MIN_REACHED = 0.5


@dataclass(frozen=True)
class ComputeKernel:
    """One traversal strategy for batched BC contributions.

    ``contributions(graph, sources, *, counter=None, workspace=None,
    context=None, weights=None)`` returns the summed ``(n,)``
    dependency vector of the batch with source self-dependencies
    zeroed — the contract of
    :func:`repro.graph.batched.batched_contributions` — or, with
    ``weights``, the weighted merge of
    :class:`~repro.graph.batched.SweepWeights`.  ``prepare(graph,
    batch, roots=None)`` optionally builds per-run shared state (SpMM
    operands and their level layout) handed back as ``context``;
    ``roots`` is the run's whole source count, ``None`` for a run that
    is one batch and chooses nothing.  ``probe`` must be cheap and
    side-effect free after its first call.

    ``contributions`` also takes ``row_edges``, an int64 array with
    one slot per source that receives each row's examined arcs: rows
    never influence each other, which is what lets APGRE's bundle
    sweeps (:func:`repro.core.batched_subgraph.bc_bundle`) run several
    sub-graphs as the rows of one batch.
    """

    name: str
    description: str
    probe: Callable[[], bool]
    unavailable_reason: str
    contributions: Callable[..., np.ndarray]
    prepare: Optional[Callable[..., object]] = None

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
    """The host default, which ``auto`` names: spmm when scipy's
    extension loads, else arcs."""
    return "spmm" if _REGISTRY["spmm"].available() else "arcs"


@dataclass(frozen=True)
class KernelFeatures:
    """Cheap structural features behind spmm's layout and width."""

    est_diameter: int
    #: best BFS coverage seen across the two sweeps, as a fraction of
    #: the vertex count — low coverage marks directed graphs whose
    #: searches never saturate
    reached: float = 1.0
    #: out-arcs of the widest BFS level (counted in arcs) seen in
    #: either sweep: about what one row's widest spmm level product
    #: expands (other roots see wider levels: :data:`SPMM_LEVEL_MARGIN`)
    peak_level_arcs: int = 0


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
    suite covers.  When vertex 0 reaches under half the vertices (a
    directed sink, say) the first sweep starts instead from the vertex
    with the most out-arcs.  The same two sweeps give the coverage and
    the widest level's out-arcs.
    """
    cached = _FEATURE_CACHE.get(graph)
    if cached is not None:
        return cached
    n = int(graph.n)
    if n == 0:
        feats = KernelFeatures(0, 0.0)
    else:
        from repro.graph.traversal import bfs

        deg = graph.out_indptr[1:] - graph.out_indptr[:-1]
        d0 = bfs(graph, 0)
        if 2 * int((d0 >= 0).sum()) < n:
            d0 = bfs(graph, int(np.argmax(deg)))
        far = int(np.argmax(d0))
        dist = bfs(graph, far)
        reached = max(
            int((d0 >= 0).sum()), int((dist >= 0).sum())
        ) / n
        peak = max(
            int(np.bincount(d[d >= 0], weights=deg[d >= 0]).max())
            for d in (d0, dist)
        )
        feats = KernelFeatures(
            est_diameter=int(dist.max(initial=0)),
            reached=reached,
            peak_level_arcs=peak,
        )
    _FEATURE_CACHE[graph] = feats
    return feats


def resolve_kernel_name(name: Optional[str]) -> str:
    """Resolve a kernel option to an available registered name.

    ``None`` defers to ``REPRO_KERNEL`` and then
    :func:`default_kernel_name`, which ``"auto"`` names too.  A known
    but unavailable kernel degrades to :func:`default_kernel_name`
    with a :class:`RuntimeWarning`; an unknown name raises.
    """
    if name is None:
        name = os.environ.get(KERNEL_ENV_VAR, "").strip()
    if not name or name == "auto":
        return default_kernel_name()
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


def resolve_kernel_batch(
    batch_size: Union[int, str, None],
    graph: CSRGraph,
    roots: int,
    *,
    kernel: str,
    workers: int = 1,
    shared_csr: bool = False,
) -> Optional[int]:
    """:func:`~repro.graph.batched.resolve_batch_size` for ``roots``
    sources on ``graph`` under the resolved ``kernel``.

    The spmm kernel stores no DAG arcs, so an ``"auto"`` spmm batch
    whose roots exceed one batch at the base width is priced by its
    layout instead (:func:`spmm_layout`): the dense form's own row
    against :data:`~repro.graph.batched.AUTO_DENSE_WORKSET_BYTES`, else
    the widest level, ``SPMM_LEVEL_MARGIN × peak_level_arcs``, when
    the probe's sweeps reached every vertex (else by ``m``, the base
    model).  The probe counts only, so the width is a function of the
    graph and the RAM ceiling.
    """
    n, m = graph.n, graph.num_arcs
    batch = resolve_batch_size(
        batch_size, n, m, workers=workers, shared_csr=shared_csr
    )
    if batch_size != "auto" or kernel != "spmm" or roots <= batch:
        return batch
    if spmm_layout(graph, roots) == "dense":
        return auto_batch_size(
            n, m, workers=workers, shared_csr=shared_csr, dense=True
        )
    feats = kernel_features(graph)
    if feats.reached < 1.0:
        return batch
    return auto_batch_size(
        n, m, workers=workers, shared_csr=shared_csr,
        level_arcs=SPMM_LEVEL_MARGIN * feats.peak_level_arcs,
    )


def spmm_layout(graph: CSRGraph, roots: int) -> str:
    """The level layout spmm runs ``roots`` sources of ``graph`` in.

    ``"dense"`` when the probe (:func:`kernel_features`) finds the
    graph shallow and mostly reachable — est. diameter at most
    :data:`SPMM_DENSE_MAX_DIAMETER`, coverage at least
    :data:`SPMM_DENSE_MIN_REACHED` — else ``"sparse"``.  Roots that
    fit one batch at the base ``"auto"`` width never run the probe and
    keep the sparse form.  The width resolution
    (:func:`resolve_kernel_batch`) and the kernel's ``prepare`` both
    ask this function, so a batch's width and layout agree.
    """
    if roots <= auto_batch_size(graph.n, graph.num_arcs):
        return "sparse"
    feats = kernel_features(graph)
    if (
        feats.est_diameter <= SPMM_DENSE_MAX_DIAMETER
        and feats.reached >= SPMM_DENSE_MIN_REACHED
    ):
        return "dense"
    return "sparse"


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
))

def _spmm_prepare(graph, batch, roots=None):
    dense = roots is not None and spmm_layout(graph, roots) == "dense"
    return _spmm_operands_for(graph, batch, dense)


register_kernel(ComputeKernel(
    name="spmm",
    description=(
        "scipy sparse level products (csr_matmat frontiers, or "
        "csr_matvecs over every vertex on shallow graphs)"
    ),
    probe=spmm_available,
    unavailable_reason="scipy.sparse._sparsetools does not load",
    contributions=_spmm_kernel_contributions,
    prepare=_spmm_prepare,
))
