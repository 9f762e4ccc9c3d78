"""Measurement plumbing shared by all experiments.

``time_algorithm`` runs one (algorithm, graph) pair, validates the
scores against the cached serial reference (a benchmark that silently
computes the wrong thing is worse than no benchmark) and returns
timing + MTEPS. Results are memoised per process so Table 2, Table 3
and Figure 6 — three views of the same measurement — run the
underlying computation once.

Runs can be bounded by a per-run wall-clock budget (the ``timeout``
argument, or ``REPRO_BENCH_TIMEOUT`` seconds in the environment):
the algorithm then executes in a supervised forked child
(:func:`repro.parallel.supervisor.call_with_timeout`) and a run that
exceeds the budget — or whose worker dies — degrades to the paper's
'-' cell instead of hanging or killing the whole benchmark sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.registry import get_algorithm
from repro.errors import AlgorithmError, BenchmarkError, ExecutionError
from repro.graph.csr import CSRGraph
from repro.metrics.teps import graph_mteps
from repro.parallel.supervisor import call_with_timeout

__all__ = ["MeasuredRun", "ExperimentResult", "time_algorithm", "clear_cache"]


def _env_timeout() -> Optional[float]:
    """Per-run budget from ``REPRO_BENCH_TIMEOUT`` (seconds), if set."""
    raw = os.environ.get("REPRO_BENCH_TIMEOUT", "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise BenchmarkError(
            f"REPRO_BENCH_TIMEOUT must be a number of seconds, got {raw!r}"
        ) from None
    if value <= 0:
        raise BenchmarkError(
            f"REPRO_BENCH_TIMEOUT must be > 0, got {value:g}"
        )
    return value


@dataclass
class MeasuredRun:
    """One timed algorithm execution."""

    algorithm: str
    graph_name: str
    seconds: float
    mteps: float
    scores: np.ndarray


@dataclass
class ExperimentResult:
    """A rendered-ready experiment outcome (one table or figure)."""

    exp_id: str
    title: str
    headers: List[str]
    rows: List[List]
    notes: str = ""

    def render(self) -> str:
        from repro.bench.report import render_table

        return render_table(
            f"{self.exp_id}: {self.title}",
            self.headers,
            self.rows,
            notes=self.notes,
        )


_RUN_CACHE: Dict[Tuple[str, str, int, tuple], MeasuredRun] = {}
_REFERENCE: Dict[str, np.ndarray] = {}


def clear_cache() -> None:
    """Drop memoised runs (tests use this for isolation)."""
    _RUN_CACHE.clear()
    _REFERENCE.clear()


def time_algorithm(
    algorithm: str,
    graph: CSRGraph,
    *,
    graph_name: str,
    repeat: int = 1,
    verify: bool = True,
    timeout: Optional[float] = None,
    **kwargs,
) -> Optional[MeasuredRun]:
    """Run and time one algorithm on one graph (best of ``repeat``).

    Returns ``None`` when the algorithm declines the input (the
    paper's '-' cells — e.g. ``async`` on directed graphs) *or* when
    a ``timeout`` (argument or ``REPRO_BENCH_TIMEOUT``) elapses or
    the supervised run dies — a misbehaving algorithm degrades one
    cell, never the sweep. Raises :class:`BenchmarkError` if an exact
    algorithm disagrees with the serial reference.  Runs are memoised
    per (algorithm, graph, options) when the options are hashable.
    """
    key = (algorithm, graph_name, graph.n, tuple(sorted(kwargs.items())))
    try:
        cached = _RUN_CACHE.get(key)
    except TypeError:  # unhashable options: time afresh, do not memoise
        key = cached = None
    if cached is not None:
        return cached
    fn = get_algorithm(algorithm)
    if timeout is None:
        timeout = _env_timeout()
    best = float("inf")
    scores = None
    try:
        for _ in range(max(repeat, 1)):
            t0 = time.perf_counter()
            scores = call_with_timeout(fn, graph, timeout=timeout, **kwargs)
            best = min(best, time.perf_counter() - t0)
    except AlgorithmError:
        return None  # unsupported input: the paper's '-' cell
    except ExecutionError:
        return None  # timed out / crashed under supervision: '-' cell
    assert scores is not None
    run = MeasuredRun(
        algorithm=algorithm,
        graph_name=graph_name,
        seconds=best,
        mteps=graph_mteps(graph, best),
        scores=scores,
    )
    if verify:
        if graph_name not in _REFERENCE:
            if algorithm == "serial":
                _REFERENCE[graph_name] = scores
            else:
                _REFERENCE[graph_name] = get_algorithm("serial")(graph)
        ref = _REFERENCE[graph_name]
        if not np.allclose(scores, ref, rtol=1e-6, atol=1e-6):
            worst = float(np.abs(scores - ref).max())
            raise BenchmarkError(
                f"{algorithm} disagrees with serial reference on "
                f"{graph_name} (max abs diff {worst:.3g})"
            )
    if key is not None:
        _RUN_CACHE[key] = run
    return run
