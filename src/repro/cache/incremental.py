"""Incremental APGRE over small edge deltas (``apgre_bc_delta``).

When a graph evolves by a few edges, everything outside the touched
biconnected components is provably unchanged: a sub-graph's local
contribution depends only on its own edges and the α/β/γ summaries
crossing its articulation points.  The incremental front-end applies
the delta (editing the CSR, not rebuilding it), derives the new
partition from the pre-delta one when it is given and the delta stays
inside blocks (:func:`~repro.decompose.partition.derive_partition`;
otherwise it re-runs the near-linear decomposition and α/β phases),
and lets the content-addressed cache decide what is dirty:

* a sub-graph whose local CSR **and** incoming summaries fingerprint
  identically to a cached entry is *clean* — its scores are replayed;
* a dirty sub-graph whose *predecessor* — the same sub-graph with the
  delta's edges inside it reverted — is stored is *patched*: only the
  roots whose BFS DAG the delta touches are swept, once on each graph,
  and for one undirected edge only the smaller side of them
  (:func:`predecessor`, :func:`affected_roots`);
* everything else (components the delta merged or split, and any
  component whose α/β summaries shifted because the far side of the
  tree grew or shrank) is recomputed through the ordinary APGRE
  machinery — including the batched kernel and the execution engines
  when the config asks for them.

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
from repro.decompose.partition import Partition
from repro.errors import CacheError, GraphFormatError, GraphValidationError
from repro.graph.csr import CSRGraph
from repro.graph.ops import edit_edges, reverse_graph
from repro.graph.traversal import bfs

__all__ = [
    "DeltaResult",
    "EdgeDelta",
    "affected_roots",
    "apply_edge_delta",
    "apgre_bc_delta",
    "parse_delta_file",
    "parse_delta_lines",
    "predecessor",
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


@dataclass(frozen=True)
class EdgeDelta:
    """The edges a delta really changed, in global ids.

    ``added`` and ``removed`` are ``(k, 2)`` int64 arrays: undirected
    edges as canonical pairs ``u < v``, directed ones as ``(tail,
    head)`` arcs.  Only real changes appear: an added edge that was
    already there, or an edge removed and re-added in one delta, is in
    neither.
    """

    added: np.ndarray
    removed: np.ndarray

    def inside(
        self, vertices: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The changed edges with both endpoints in ``vertices``.

        ``vertices`` are a sub-graph's sorted global ids; the edges come
        back as ``(added, removed)`` in its local ids, or ``None`` when
        the delta changed none of them.
        """
        if vertices.size == 0:
            return None

        def local(pairs: np.ndarray) -> np.ndarray:
            pos = np.minimum(
                np.searchsorted(vertices, pairs), vertices.size - 1
            )
            return pos[(vertices[pos] == pairs).all(axis=1)]

        added, removed = local(self.added), local(self.removed)
        if added.size == 0 and removed.size == 0:
            return None
        return added, removed


def _apply(
    graph: CSRGraph, edges_added=None, edges_removed=None
) -> Tuple[CSRGraph, EdgeDelta]:
    """:func:`apply_edge_delta`, plus the :class:`EdgeDelta` it made.

    Presence and novelty are row searches (:meth:`CSRGraph.has_arcs`)
    and the new graph is ``graph``'s CSR edited in place of a rebuild
    (:func:`~repro.graph.ops.edit_edges`).
    """
    n = graph.n
    add = _canonical_pairs(edges_added, n, graph.directed, "added")
    rem = _canonical_pairs(edges_removed, n, graph.directed, "removed")
    if rem.size:
        present = graph.has_arcs(rem[:, 0], rem[:, 1])
        if not present.all():
            missing = rem[~present][0]
            raise GraphValidationError(
                f"cannot remove absent edge ({missing[0]}, {missing[1]})"
            )
    add_keys = np.unique(add[:, 0] * n + add[:, 1])

    def pairs(k: np.ndarray) -> np.ndarray:
        return np.stack([k // n, k % n], axis=1)

    added = pairs(add_keys)
    delta = EdgeDelta(
        added=added[~graph.has_arcs(added[:, 0], added[:, 1])],
        removed=pairs(np.setdiff1d(rem[:, 0] * n + rem[:, 1], add_keys)),
    )
    return edit_edges(graph, delta.added, delta.removed), delta


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
    (the edge set is a sorted union of keys), matching how streaming
    edge feeds deliver duplicates.
    """
    return _apply(graph, edges_added, edges_removed)[0]


def predecessor(sg, added: np.ndarray, removed: np.ndarray):
    """``sg`` with the delta's edges inside it reverted.

    ``added``/``removed`` are the changed edges in ``sg``'s local ids
    (:meth:`EdgeDelta.inside`).  The copy keeps ``sg``'s roots, γ,
    boundary mask, α and β, and its CSR arrays are the ones the
    partition builds for the reverted edge set, so its
    :func:`~repro.cache.fingerprint.subgraph_key` is the key a run on
    the pre-delta graph stored for the same sub-graph.
    """
    return replace(sg, graph=edit_edges(sg.graph, removed, added))


def affected_roots(
    graph: CSRGraph,
    roots: np.ndarray,
    added: np.ndarray,
    removed: np.ndarray,
) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """The roots whose BFS DAG the delta changes, their sides, and the
    rest's tally.

    ``graph`` is the predecessor (the delta not yet applied) and
    ``added``/``removed`` the changed edges in its ids.  One BFS from
    each endpoint ``x`` over the reversed arcs gives ``d(s, x)`` for
    every root ``s``; root ``s`` is *affected* by

    * an undirected edge ``{u, v}``, added or removed, when
      ``d(s, u) ≠ d(s, v)``;
    * an added arc ``u → v`` when ``u`` is reachable and
      ``d(s, u) + 1 ≤ d(s, v)`` (or ``v`` unreachable);
    * a removed arc ``u → v`` when ``d(s, v) = d(s, u) + 1``.

    A multi-edge delta takes the union: outside it every added arc
    is too long to be a shortest-path arc and every removed one was
    not one, so the predecessor's distances stay a valid BFS labelling
    of the new graph and each of those roots keeps its DAG, hence its
    contribution, exactly.  Returns the affected mask over ``roots``;
    for a delta of one undirected edge ``{u, v}`` (``u`` its first
    endpoint), the mask of the roots with ``d(s, u) < d(s, v)``, read
    from the same two BFS (the affected roots outside it are the
    ``v`` side), else ``None``; and the change in the unaffected
    roots' examined-edge tally: their DAGs and reach are unchanged,
    but each root examines every changed arc whose tail it reaches
    (added ones count +1, removed ones −1).
    """
    rev = reverse_graph(graph)
    dist = {}

    def to(x: int) -> np.ndarray:
        if x not in dist:
            dist[x] = bfs(rev, x)[roots].astype(np.int64)
        return dist[x]

    hit = np.zeros(roots.size, dtype=bool)
    reach = np.zeros(roots.size, dtype=np.int64)
    for sign, pairs in ((1, added), (-1, removed)):
        for u, v in pairs.tolist():
            du, dv = to(u), to(v)
            if not graph.directed:
                hit |= du != dv
                reach += sign * 2 * (du >= 0)
                continue
            if sign > 0:
                hit |= (du >= 0) & ((dv < 0) | (du + 1 <= dv))
            else:
                hit |= (du >= 0) & (dv == du + 1)
            reach += sign * (du >= 0)
    near = None
    if not graph.directed and len(added) + len(removed) == 1:
        (u, v), = np.concatenate([added, removed]).tolist()
        near = to(u) < to(v)
    return hit, near, int(reach[~hit].sum())


@dataclass
class DeltaResult:
    """Result of one incremental run.

    ``graph`` is the post-delta graph (build your next delta on it);
    ``result`` is the full :class:`~repro.core.result.BCResult` whose
    ``stats`` carry the replay split (``subgraphs_replayed`` /
    ``subgraphs_recomputed`` / ``subgraphs_patched``,
    ``edges_replayed`` vs ``edges_traversed``, ``edges_unwound``);
    ``store`` is the cache that served the run, now warmed for the
    next delta; ``partition`` is the post-delta graph's α/β-filled
    partition (pass it back as ``partition=`` with the next delta).
    """

    graph: CSRGraph
    result: "BCResult"  # noqa: F821 - forward ref, import cycle
    store: ContributionStore
    partition: Partition

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
    partition: Optional[Partition] = None,
) -> DeltaResult:
    """Exact BC of ``graph`` ± an edge delta, replaying clean sub-graphs.

    Apply the delta, re-decompose, and recompute only the sub-graphs
    whose content fingerprints are not already in ``cache`` — the
    clean ones replay their stored local vectors (and report the work
    as ``edges_replayed``, never as traversed).  A dirty sub-graph
    whose predecessor is stored is patched: ``stored − sweep(pred, A)
    + sweep(new, A)`` over the affected roots ``A``
    (:func:`affected_roots`), or, for one undirected edge, ``stored +
    2·(sweep(new, S) − sweep(pred, S))`` over the smaller side ``S``
    of ``A``, unless that would cost at least one full sweep
    (docs/CACHING.md §3.1).  The other
    misses run through the ordinary APGRE BC phase of ``config``, so
    ``backend=``/``workers=``/``steal=``/``batch_size=`` fan the dirty
    components out exactly like any other run.

    The cache must have been warmed on the pre-delta graph with the
    *same* store and an equivalent config (threshold,
    ``eliminate_pendants``) for anything to replay — a cold store
    simply recomputes everything and warms itself.

    ``partition``, the α/β-filled partition of ``graph`` (the
    pre-delta graph), lets the run derive the new graph's partition
    from it instead of re-partitioning
    (:func:`~repro.decompose.partition.derive_partition`, which falls
    back to the full decomposition where it cannot be exact;
    ``stats.partition_derived`` tells which ran).  It is never
    modified.

    Returns a :class:`DeltaResult`; chain deltas by passing its
    ``graph`` and ``partition`` (and the same store) back in.
    """
    from repro.core.apgre import _bc_phase, _decompose
    from repro.core.config import APGREConfig
    from repro.core.result import APGREStats

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
    new_graph, delta = _apply(graph, edges_added, edges_removed)
    stats = APGREStats()
    part = _decompose(new_graph, config, stats, partition, delta)
    result = _bc_phase(new_graph, config, part, stats, delta)
    return DeltaResult(
        graph=new_graph, result=result, store=store, partition=part
    )


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
