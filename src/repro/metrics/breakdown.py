"""Execution-time breakdown of APGRE (paper Figure 8).

Figure 8 splits an APGRE run into graph partition, α/β counting, BC
of the top sub-graph and BC of everything else, showing that "the
extra computations take 25.7%, 23%, ..." and "the BC calculation of
the top sub-graph is the majority of the total execution time".
:func:`phase_breakdown` reruns an instrumented serial APGRE and
returns those shares.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.graph.csr import CSRGraph

__all__ = ["phase_breakdown"]


def phase_breakdown(
    graph: CSRGraph, config: APGREConfig | None = None
) -> Dict[str, float]:
    """Fractions of APGRE wall time per phase.

    Returns a dict with keys ``partition``, ``alpha_beta``, ``top_bc``
    and ``rest_bc`` summing to 1. The run is forced serial
    (``workers=1``; every other option is kept) — the top/rest split
    is only well defined without overlapping workers.
    """
    config = replace(config or APGREConfig(), workers=1)
    result = apgre_bc_detailed(graph, config)
    return result.stats.timings.fractions()
