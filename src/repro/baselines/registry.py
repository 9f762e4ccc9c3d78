"""Name → algorithm registry, matching the paper's table headers.

The benchmark harness looks algorithms up by the names used in
Tables 2/3 ("serial", "APGRE", "preds", "succs", "lockSyncFree",
"async", "hybrid") so benchmark code reads like the paper.
"""

from __future__ import annotations

import importlib
from collections.abc import MutableMapping
from typing import Callable, Iterator, List

import numpy as np

from repro.errors import AlgorithmError
from repro.graph.csr import CSRGraph

__all__ = ["ALGORITHMS", "get_algorithm", "algorithm_names"]

Algorithm = Callable[..., np.ndarray]


def _batched(graph: CSRGraph, **kwargs) -> np.ndarray:
    from repro.baselines.brandes import brandes_bc

    kwargs.setdefault("batch_size", "auto")
    return brandes_bc(graph, **kwargs)


class _Registry(MutableMapping[str, Algorithm]):
    """Name -> algorithm, each imported on its first lookup.

    An entry is a callable or a ``(module, attribute)`` pair; looking
    a pair up imports its module and keeps the callable, so
    ``repro-bc compute`` loads only the algorithm it runs.
    """

    def __init__(self, entries) -> None:
        self._entries = dict(entries)

    def __getitem__(self, name: str) -> Algorithm:
        entry = self._entries[name]
        if isinstance(entry, tuple):
            module, attribute = entry
            entry = getattr(importlib.import_module(module), attribute)
            self._entries[name] = entry
        return entry

    def __setitem__(self, name: str, fn: Algorithm) -> None:
        self._entries[name] = fn

    def __delitem__(self, name: str) -> None:
        del self._entries[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


#: Paper table name -> callable(graph, **kwargs) -> scores.
ALGORITHMS: MutableMapping[str, Algorithm] = _Registry({
    "serial": ("repro.baselines.brandes", "brandes_bc"),
    "APGRE": ("repro.core.apgre", "apgre_bc"),
    "preds": ("repro.baselines.preds", "preds_bc"),
    "succs": ("repro.baselines.succs", "succs_bc"),
    "lockSyncFree": ("repro.baselines.lockfree", "lockfree_bc"),
    "async": ("repro.baselines.async_bc", "async_bc"),
    "hybrid": ("repro.baselines.hybrid", "hybrid_bc"),
    # extension comparators (not Table-2 columns): the paper's
    # related-work algebraic method [23], the BADIOS-style
    # pendant-tree contraction generalising APGRE's gamma elimination,
    # and Brandes over the multi-source batched kernel
    "algebraic": ("repro.baselines.algebraic", "algebraic_bc"),
    "treefold": ("repro.core.treefold", "treefold_bc"),
    "batched": _batched,
})


def algorithm_names() -> List[str]:
    """Table-2 column order."""
    return list(ALGORITHMS)


def get_algorithm(name: str) -> Algorithm:
    """Look an algorithm up by its paper name.

    Raises
    ------
    AlgorithmError
        For unknown names (message lists the valid ones).
    """
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise AlgorithmError(
            f"unknown algorithm {name!r}; known: {', '.join(ALGORITHMS)}"
        ) from None
