"""repro — APGRE betweenness centrality (PPoPP 2016 reproduction).

Articulation-points-guided redundancy elimination for exact betweenness
centrality, plus the full substrate it needs: CSR graphs, vectorised
traversals, biconnected decomposition, baselines, metrics and a
benchmark harness regenerating every table and figure of the paper's
evaluation.

Quickstart::

    from repro import from_edges, apgre_bc

    g = from_edges([(0, 1), (1, 2), (2, 3), (1, 3)], directed=False)
    scores = apgre_bc(g)

See README.md for the architecture overview, DESIGN.md for the paper
mapping and EXPERIMENTS.md for reproduction results.

Every package that only re-exports names (this one included) is a
lazy namespace (:func:`_lazy_exports`): a name's module is imported
on its first use, so a cold start loads only what its command runs.
"""

import importlib
import importlib.util
import sys
from types import ModuleType
from typing import Dict, List

from repro._version import __version__


class _LazyNamespace(ModuleType):
    """A package whose re-exported names resolve on first access.

    PEP 562's ``__getattr__`` and ``__dir__``, held on a module type
    (the documented ``__class__`` hook) for one more method:
    importing a submodule binds it onto its package, and where a
    re-export shares the submodule's name (``repro.baselines.async_bc``)
    ``__setattr__`` keeps the re-exported object.
    """

    _lazy: Dict[str, str]

    def __getattr__(self, name: str):
        target = self._lazy.get(name)
        if target is None:
            raise AttributeError(
                f"module {self.__name__!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(target), name)
        setattr(self, name, value)
        return value

    def __dir__(self) -> List[str]:
        return sorted({*self.__dict__, *self._lazy})

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, ModuleType) and (
            self._lazy.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def _lazy_exports(package: str, exports: Dict[str, str]) -> List[str]:
    """Make ``package`` a lazy namespace over ``exports``; return the names.

    ``exports`` maps each public name to the module defining it,
    relative to ``package`` (``{"CSRGraph": ".csr"}``).  Call it from
    the package's ``__init__`` as ``__all__ = _lazy_exports(__name__,
    {...})``.
    """
    module = sys.modules[package]
    module._lazy = {
        name: importlib.util.resolve_name(target, package)
        for name, target in exports.items()
    }
    module.__class__ = _LazyNamespace
    return list(exports)


__all__ = ["__version__", *_lazy_exports(__name__, {
    # errors
    "ReproError": ".errors",
    "GraphFormatError": ".errors",
    "GraphValidationError": ".errors",
    "PartitionError": ".errors",
    "AlgorithmError": ".errors",
    "BenchmarkError": ".errors",
    "ExecutionError": ".errors",
    "WorkerCrashError": ".errors",
    "TaskTimeoutError": ".errors",
    # graph
    "CSRGraph": ".graph",
    "from_edges": ".graph",
    "from_adjacency": ".graph",
    "from_networkx": ".graph",
    "empty_graph": ".graph",
    # core
    "APGREConfig": ".core",
    "BCResult": ".core",
    "apgre_bc": ".core",
    "apgre_bc_detailed": ".core",
    # baselines
    "brandes_bc": ".baselines",
    "brandes_python_bc": ".baselines",
    "preds_bc": ".baselines",
    "succs_bc": ".baselines",
    "lockfree_bc": ".baselines",
    "async_bc": ".baselines",
    "hybrid_bc": ".baselines",
    "sampling_bc": ".baselines",
    # decomposition
    "articulation_points": ".decompose",
    "biconnected_components": ".decompose",
    "graph_partition": ".decompose",
    # io
    "load_graph": ".io",
    "save_graph": ".io",
})]
