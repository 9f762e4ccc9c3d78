"""Incremental APGRE over small edge deltas (``apgre_bc_delta``).

When a graph evolves by a few edges, everything outside the touched
biconnected components is provably unchanged: a sub-graph's local
contribution depends only on its own edges and the α/β/γ summaries
crossing its articulation points.  The incremental front-end therefore
does *not* patch score vectors — it applies the delta, re-runs the
(cheap, near-linear) decomposition and α/β phases, and lets the
content-addressed cache decide what is dirty:

* a sub-graph whose local CSR **and** incoming summaries fingerprint
  identically to a cached entry is *clean* — its scores are replayed;
* everything else (the components the new/removed edges landed in,
  plus any component whose α/β summaries shifted because the far side
  of the tree grew or shrank) is *dirty* and recomputed through the
  ordinary APGRE machinery — including the batched kernel and the
  shared-memory pool when the config asks for them.

Comparing fingerprints *is* the BCC-tree diff: the cache key of each
block-cut-tree node covers exactly the state the paper's Theorems 1–3
say its contribution depends on, so "key unchanged" ⇔ "node untouched
by the delta" (see docs/CACHING.md for why this also catches summary-
only invalidations that a pure edge-diff would miss).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from repro.cache.store import ContributionStore, resolve_store
from repro.errors import CacheError, GraphFormatError, GraphValidationError
from repro.graph.csr import CSRGraph

__all__ = [
    "DeltaResult",
    "apply_edge_delta",
    "apgre_bc_delta",
    "parse_delta_file",
    "parse_delta_lines",
]


def _canonical_pairs(
    edges, n: int, directed: bool, what: str
) -> np.ndarray:
    """Validate an edge-delta array into canonical ``(k, 2)`` int64.

    Undirected pairs are canonicalised to ``u < v``. Raises
    :class:`~repro.errors.GraphValidationError` on anything malformed —
    non-integer entries, wrong shape, out-of-range endpoints or self
    loops (BC is defined on simple graphs).
    """
    if edges is None:
        return np.empty((0, 2), dtype=np.int64)
    try:
        arr = np.asarray(edges, dtype=np.int64)
    except (TypeError, ValueError) as exc:
        raise GraphValidationError(
            f"{what} edges must be integer pairs: {exc}"
        ) from exc
    if arr.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphValidationError(
            f"{what} edges must have shape (k, 2), got {arr.shape}"
        )
    lo, hi = int(arr.min()), int(arr.max())
    if lo < 0 or hi >= n:
        raise GraphValidationError(
            f"{what} edge endpoint out of range [0, {n}): saw [{lo}, {hi}]"
        )
    if (arr[:, 0] == arr[:, 1]).any():
        bad = int(arr[(arr[:, 0] == arr[:, 1])][0, 0])
        raise GraphValidationError(
            f"{what} edges contain the self loop ({bad}, {bad})"
        )
    if not directed:
        arr = np.stack(
            [np.minimum(arr[:, 0], arr[:, 1]),
             np.maximum(arr[:, 0], arr[:, 1])],
            axis=1,
        )
    return arr


def apply_edge_delta(
    graph: CSRGraph,
    edges_added=None,
    edges_removed=None,
) -> CSRGraph:
    """Return a new graph with ``edges_removed`` gone, ``edges_added`` in.

    The vertex set is unchanged (endpoints must lie in ``[0, n)``).
    Removing an edge that does not exist raises
    :class:`~repro.errors.GraphValidationError` — a silent no-op there
    almost always means the caller's bookkeeping has drifted from the
    graph. Adding an edge that already exists is an idempotent no-op
    (construction dedupes), matching how streaming edge feeds deliver
    duplicates.
    """
    n = graph.n
    add = _canonical_pairs(edges_added, n, graph.directed, "added")
    rem = _canonical_pairs(edges_removed, n, graph.directed, "removed")

    src, dst = graph.arcs()
    if not graph.directed:
        keep = src < dst  # each undirected edge once, canonical
        src, dst = src[keep], dst[keep]
    keys = src.astype(np.int64) * n + dst.astype(np.int64)
    keys.sort()
    if rem.size:
        rem_keys = rem[:, 0] * n + rem[:, 1]
        pos = np.searchsorted(keys, rem_keys)
        present = (pos < keys.size) & (
            keys[np.minimum(pos, keys.size - 1)] == rem_keys
        )
        if not present.all():
            missing = rem[~present][0]
            raise GraphValidationError(
                f"cannot remove absent edge ({missing[0]}, {missing[1]})"
            )
        keys = np.setdiff1d(keys, rem_keys, assume_unique=False)
    if add.size:
        keys = np.union1d(keys, add[:, 0] * n + add[:, 1])
    return CSRGraph.from_arcs(
        n, keys // n, keys % n, directed=graph.directed
    )


@dataclass
class DeltaResult:
    """Result of one incremental run.

    ``graph`` is the post-delta graph (build your next delta on it);
    ``result`` is the full :class:`~repro.core.result.BCResult` whose
    ``stats`` carry the replay split (``subgraphs_replayed`` /
    ``subgraphs_recomputed``, ``edges_replayed`` vs
    ``edges_traversed``); ``store`` is the cache that served the run,
    now warmed for the next delta.
    """

    graph: CSRGraph
    result: "BCResult"  # noqa: F821 - forward ref, import cycle
    store: ContributionStore

    @property
    def scores(self) -> np.ndarray:
        return self.result.scores


def apgre_bc_delta(
    graph: CSRGraph,
    edges_added=None,
    edges_removed=None,
    *,
    cache: Union[bool, ContributionStore, None] = True,
    cache_dir=None,
    config: Optional["APGREConfig"] = None,  # noqa: F821
) -> DeltaResult:
    """Exact BC of ``graph`` ± an edge delta, replaying clean sub-graphs.

    Apply the delta, re-decompose, and recompute only the sub-graphs
    whose content fingerprints are not already in ``cache`` — the
    clean ones replay their stored local vectors (and report the work
    as ``edges_replayed``, never as traversed).  Cache misses run
    through the ordinary APGRE BC phase of ``config``, so
    ``backend=``/``workers=``/``steal=``/``batch_size=`` fan the dirty
    components out exactly like any other run.

    The cache must have been warmed on the pre-delta graph with the
    *same* store and an equivalent config (threshold,
    ``eliminate_pendants``) for anything to replay — a cold store
    simply recomputes everything and warms itself.

    Returns a :class:`DeltaResult`; chain deltas by passing its
    ``graph`` (and the same store) back in.
    """
    from repro.core.apgre import apgre_bc_detailed
    from repro.core.config import APGREConfig

    store = resolve_store(cache, cache_dir)
    if store is None:
        raise CacheError(
            "apgre_bc_delta requires a cache (pass cache=True, a "
            "ContributionStore, or cache_dir=...)"
        )
    config = config or APGREConfig()
    if config.cache is not None or config.cache_dir is not None:
        resolved = resolve_store(config.cache, config.cache_dir)
        if resolved is not store:
            raise CacheError(
                "config.cache conflicts with the cache passed to "
                "apgre_bc_delta — pass the store once"
            )
    config = replace(config, cache=store, cache_dir=None)
    new_graph = apply_edge_delta(graph, edges_added, edges_removed)
    result = apgre_bc_detailed(new_graph, config)
    return DeltaResult(graph=new_graph, result=result, store=store)


def parse_delta_lines(
    text: str, *, name: str = "<delta>"
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse delta-file text into ``(edges_added, edges_removed)``.

    The in-memory core of :func:`parse_delta_file`, shared with the
    serving daemon whose ``POST /delta`` bodies arrive as text rather
    than files. One operation per line: ``+ u v`` / ``add u v`` adds an
    edge, ``- u v`` / ``remove u v`` removes one. Blank lines and ``#``
    comments are skipped. Malformed lines raise
    :class:`~repro.errors.GraphFormatError` naming ``name`` and the
    line number.
    """
    ops = {"+": "add", "add": "add", "-": "remove", "remove": "remove"}
    added, removed = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        op = ops.get(parts[0].lower())
        if op is None or len(parts) != 3:
            raise GraphFormatError(
                f"{name}:{lineno}: expected '+|-|add|remove u v', "
                f"got {raw.strip()!r}"
            )
        try:
            u, v = int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphFormatError(
                f"{name}:{lineno}: endpoints must be integers, "
                f"got {raw.strip()!r}"
            ) from None
        (added if op == "add" else removed).append((u, v))
    return (
        np.asarray(added, dtype=np.int64).reshape(-1, 2),
        np.asarray(removed, dtype=np.int64).reshape(-1, 2),
    )


def parse_delta_file(
    path: Union[str, Path]
) -> Tuple[np.ndarray, np.ndarray]:
    """Read an edge-delta file into ``(edges_added, edges_removed)``.

    One operation per line: ``+ u v`` / ``add u v`` adds an edge,
    ``- u v`` / ``remove u v`` removes one. Blank lines and ``#``
    comments are skipped. Malformed lines raise
    :class:`~repro.errors.GraphFormatError` naming the line number
    (the CLI turns that into a clean exit 2).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GraphFormatError(f"cannot read delta file {path}: {exc}") from exc
    return parse_delta_lines(text, name=str(path))
