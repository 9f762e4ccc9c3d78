"""Measurement helpers for the end-to-end benchmark (stdlib only).

Nearest-rank percentiles, quartile spreads, the span recorder behind
``--trace``, the parent-vs-change verdicts of ``run.py compare`` and
the input digests.  Nothing here imports :mod:`repro`, so the
harness self-tests run without the package.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

#: percentiles the human report may print, highest first
TAIL_CANDIDATES = (99.9, 99.0, 90.0)
#: a percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
#: share of pairs a change must win before a gain is claimed
WIN_SHARE = 0.9
#: alternating parent/change pairs ``compare`` needs
MIN_PAIRS = 10


# ----------------------------------------------------------------------
# percentiles and spreads
# ----------------------------------------------------------------------
def rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` in ``n`` samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    # round first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(samples)
    return ordered[rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q`` percentile's rank."""
    return n - rank(n, q)


def supported_tail(n: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when ``n`` supports none of them."""
    for q in TAIL_CANDIDATES:
        if beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartiles(values: Sequence[float]):
    """First and third quartile as ``statistics.quantiles(n=4)`` gives."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def relative_spread(values: Sequence[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(statistics.median(values))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """Records nested spans around calls into the program's modules.

    Each span carries ``id`` (``<run>/<n>``), ``name``, ``start``,
    ``end``, ``parent`` (span id or ``None``) and ``run`` (the
    recorder's run id), plus keyword attributes.  With ``memory=True``
    (``tracemalloc`` must be running) a span also gets ``peak_mb``:
    the traced-memory high-water mark above its starting size.  The
    peak is reset at span start; a parent folds in its children's
    peaks so nesting loses nothing.
    """

    def __init__(self, run_id: str, *, memory: bool = False, clock=None):
        self.run_id = run_id
        self.memory = memory
        self.clock = clock or time.perf_counter
        self.spans: List[Dict] = []
        self._open: List[Dict] = []

    def _new(self, name: str, attrs: Dict, parent) -> Dict:
        span = {
            "id": f"{self.run_id}/{len(self.spans)}",
            "name": name,
            "run": self.run_id,
            "parent": parent,
            "start": None,
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        span = self._new(name, attrs, parent["id"] if parent else None)
        if self.memory:
            if parent is not None:
                parent["_peak"] = max(
                    parent["_peak"], tracemalloc.get_traced_memory()[1]
                )
            tracemalloc.reset_peak()
            span["_base"] = span["_peak"] = tracemalloc.get_traced_memory()[0]
        self._open.append(span)
        span["start"] = self.clock()
        try:
            yield span
        finally:
            span["end"] = self.clock()
            self._open.pop()
            if self.memory:
                peak = max(span.pop("_peak"), tracemalloc.get_traced_memory()[1])
                span["peak_mb"] = (peak - span.pop("_base")) / 2**20
                if parent is not None:
                    parent["_peak"] = max(parent["_peak"], peak)

    def record(self, name: str, start: float, end: float, **attrs) -> Dict:
        """Add a finished span measured elsewhere (a request's due
        time to its end of response, say)."""
        parent = self._open[-1]["id"] if self._open else None
        span = self._new(name, attrs, parent)
        span["start"], span["end"] = start, end
        return span

    def named(self, name: str) -> List[Dict]:
        return [s for s in self.spans if s["name"] == name]


def duration(span: Dict) -> float:
    return span["end"] - span["start"]


def _covered(intervals: Iterable, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Dict]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[str, List] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: duration(s)
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


# ----------------------------------------------------------------------
# parent-vs-change verdicts
# ----------------------------------------------------------------------
def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
) -> Dict:
    """Judge one (metric, workload) over alternating pairs.

    ``gain``: the change wins at least nine in ten pairs (ties count
    for neither) and the medians differ, in the better direction, by
    more than the parent's quartile distance.  ``regress``: the
    change's median is worse than the parent's by more than
    ``bound``.  ``unresolved``: either side's spread exceeds
    ``bound`` and the ordering of the runs does not settle it.
    Otherwise ``ok``.
    """
    if len(parent) != len(change):
        raise ValueError("parent and change need the same number of runs")
    sign = 1.0 if better == "lower" else -1.0  # positive means worse
    pm, cm = statistics.median(parent), statistics.median(change)
    worse = sign * (cm - pm) / abs(pm)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    q1, q3 = quartiles(parent)
    spread = max(relative_spread(parent), relative_spread(change))
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    all_worse = all(sign * (c - p) > 0 for c in change for p in parent)
    if wins >= WIN_SHARE * len(parent) and -sign * (cm - pm) > q3 - q1:
        status = "gain"
    elif worse > bound:
        # a wide spread leaves a worse median unproven unless every
        # change run is worse than every parent run
        status = "regress" if spread <= bound or all_worse else "unresolved"
    elif spread > bound and not all_better:
        status = "unresolved"
    else:
        status = "ok"
    return {
        "status": status,
        "parent_median": pm,
        "change_median": cm,
        "change_vs_parent": (cm - pm) / abs(pm),
        "wins": wins,
        "pairs": len(parent),
        "spread": spread,
        "bound": bound,
    }


#: a workload row takes the most serious verdict of its metrics
_SEVERITY = ("regress", "unresolved", "gain", "ok")


def row_status(statuses: Iterable[str]) -> str:
    present = set(statuses)
    return next((s for s in _SEVERITY if s in present), "ok")


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def digest(*chunks: bytes) -> str:
    """BLAKE2b-128 hex digest over the concatenated chunks."""
    h = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()
