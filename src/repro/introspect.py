"""Machine-readable provenance: graph, registry and version payloads.

One JSON-shaped vocabulary shared by every surface that reports what
this build can do and what it is looking at:

* ``repro-bc info --json`` prints :func:`info_payload` — the structural
  statistics of a graph file plus :func:`registry_payload`;
* the serving daemon's ``/stats`` endpoint (:mod:`repro.serve`) embeds
  :func:`registry_payload` verbatim, so a client can discover which
  execution backends and compute kernels a request may ask for;
* benchmarks embed the sibling
  :func:`repro.bench.persistence.environment_provenance` block, which
  reports the same registries in summary form.

Everything here is plain dict/list/str/int/float/bool/None, so
``json.dumps`` always succeeds without a custom encoder.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro._version import __version__
from repro.graph.csr import CSRGraph

__all__ = ["registry_payload", "info_payload"]


def registry_payload() -> Dict:
    """Availability report of the execution-backend and kernel registries.

    The exact payload ``repro-bc info --json`` prints under
    ``"registries"`` and the daemon's ``/stats`` returns under the same
    key: per-backend and per-kernel availability with the reason for
    any capability miss, plus which name ``"auto"`` resolves to.
    """
    from repro.graph.kernels import default_kernel_name, kernel_report
    from repro.parallel.backends import backend_report, default_backend_name

    return {
        "backends": backend_report(),
        "backend_default": default_backend_name(),
        "kernels": kernel_report(),
        "kernel_default": default_kernel_name(),
    }


def info_payload(
    graph: CSRGraph, *, name: str = "", source: Optional[str] = None
) -> Dict:
    """The ``repro-bc info`` view of one graph, as a JSON-shaped dict.

    Structural statistics (size, articulation points, pendant fraction,
    the power-of-two BCC size histogram that shows the dominant BCC) plus
    :func:`registry_payload` and the package version — everything the
    human-readable listing prints, machine-readable.
    """
    from repro.metrics.stats import bcc_size_histogram, graph_stats

    stats = graph_stats(graph, name=name)
    buckets = bcc_size_histogram(graph)
    payload: Dict = {
        "name": stats.name,
        "vertices": int(stats.num_vertices),
        "arcs": int(stats.num_arcs),
        "directed": bool(stats.directed),
        "articulation_points": int(stats.num_articulation_points),
        "pendant_vertices": int(stats.num_pendants),
        "pendant_fraction": float(stats.pendant_fraction),
        "max_degree": int(stats.max_degree),
        "mean_degree": float(stats.mean_degree),
        "bcc_count": int(sum(count for _lo, _hi, count in buckets)),
        "bcc_size_histogram": [
            {"lo": int(lo), "hi": int(hi), "count": int(count)}
            for lo, hi, count in buckets
        ],
        "registries": registry_payload(),
        "repro_version": __version__,
    }
    if source is not None:
        payload["source"] = str(source)
    return payload
