"""The APGRE driver (paper Figure 5).

Three steps:

1. decompose the graph by articulation points (Algorithm 1 —
   :func:`repro.decompose.partition.graph_partition`);
2. count ``α_SGi(a)``/``β_SGi(a)`` for every boundary articulation
   point (:func:`repro.decompose.alphabeta.compute_alpha_beta`);
3. compute each sub-graph's scores with the four-dependency kernel
   (:func:`repro.core.bc_subgraph.bc_subgraph`) and merge:
   ``BC(v) = Σ_SGi BC_SGi(v)`` (equation 8 — articulation points sum
   their per-sub-graph shares).

Step 3 carries the coarse-grained parallelism: sub-graphs are
independent ("coarse-grained asynchronous parallelism among
sub-graphs"), and cache keys and journal slots are keyed by sub-graph
index.  One BC-phase path, :func:`_compute_units`, runs them as one
list of units (:func:`_units`): a large sub-graph is a unit of its
own, and runs of small ones become *bundles*, each one weighted sweep
over the block-diagonal union of its members
(:func:`~repro.core.batched_subgraph.bc_bundle`).  With ``workers >
1`` the units' root slices go largest-first to the execution engine
``backend`` resolves to (:mod:`repro.parallel.backends`: worker
threads, the supervised shared-memory process pool, or an inline
loop) and the run attaches its supervision report to
``BCResult.health``; otherwise an inline loop runs the units in the
same LPT order.  One degradation ladder covers both: engine → serial
→ the plain Brandes baseline (docs/ROBUSTNESS.md).  The contribution
cache and the run journal are filters in front of that one pass: they
drop the sub-graphs they can replay, patch the ones an edge delta
touched whose predecessor is stored (:func:`_patch_filter`), and
commit every recomputed or patched sub-graph through a sink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.baselines.common import WorkCounter
from repro.core.batched_subgraph import bc_bundle
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.core.result import APGREStats, BCResult
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import (
    Partition,
    derive_partition,
    graph_partition,
)
from repro.errors import ExecutionError, ReproError
from repro.graph.batched import (
    AUTO_WORKSET_BYTES,
    DEFAULT_MAX_BATCH,
    batched_tallies,
    row_bytes,
)
from repro.graph.csr import CSRGraph
from repro.parallel.scheduler import lpt_order, task_cost
from repro.parallel.supervisor import RunHealth, SupervisorConfig
from repro.types import SCORE_DTYPE

__all__ = ["apgre_bc", "apgre_bc_detailed"]


def _roots(sg, config: APGREConfig) -> np.ndarray:
    """A sub-graph's sources: ``R`` with pendant elimination, else all."""
    if config.eliminate_pendants:
        return sg.roots
    return np.arange(sg.num_vertices, dtype=sg.roots.dtype)


def _subgraph_scores(
    sg,
    config: APGREConfig,
    kernel: Optional[str],
    counter=None,
    roots=None,
    workers: int = 1,
) -> np.ndarray:
    """One sub-graph's full-length local score vector, optionally over
    a subset ``roots`` of its sources.

    Routes through :func:`bc_subgraph` (honouring
    ``batch_size``/``compress``) on the run's resolved ``kernel``;
    ``workers`` concurrent callers share the auto batch's RAM budget.
    """
    return bc_subgraph(
        sg,
        eliminate_pendants=config.eliminate_pendants,
        counter=counter,
        roots=roots,
        batch_size=config.batch_size,
        compress=config.compress,
        kernel=kernel,
        workers=workers,
    )


class _Unit(NamedTuple):
    """Positions ``lo:hi`` of a todo list that run as one unit.

    ``bundle`` marks a bundle (:func:`_units`); otherwise the one
    sub-graph at ``lo`` runs on its own.
    """

    lo: int
    hi: int
    bundle: bool = False


def _bundles(sg, config: APGREConfig) -> bool:
    """Whether ``sg`` may join a bundle: a non-trivial compression plan
    runs alone."""
    if not config.compress:
        return True
    from repro.compress import compression_plan

    return not compression_plan(
        sg, eliminate_pendants=config.eliminate_pendants
    ).nontrivial


def _units(run: _Run, todo: List[int]) -> List[_Unit]:
    """Cut ``todo`` into the BC phase's units, in order.

    Consecutive sub-graphs join one bundle while each one is not the
    top (so ``top_bc`` keeps meaning the top), runs the batched sweep
    (not the per-source ``batch_size=None``) uncompressed
    (:func:`_bundles`), and the bundle's
    whole root set still fits one batch: at most
    :data:`~repro.graph.batched.DEFAULT_MAX_BATCH` roots (or the
    integer ``batch_size``) whose rows take at most
    :data:`~repro.graph.batched.AUTO_WORKSET_BYTES` together.  The
    test is arithmetic on sizes only.  Every other sub-graph, and a
    bundle left with one member, is a unit of its own.
    """
    config = run.config
    cap = config.batch_size
    if cap == "auto":
        cap = DEFAULT_MAX_BATCH

    def fits(roots: int, n: int, m: int) -> bool:
        return roots <= cap and roots * row_bytes(n, m) <= AUTO_WORKSET_BYTES

    units: List[_Unit] = []
    lo, bundle, size = 0, False, (0, 0, 0)

    def close(hi: int) -> None:
        units.append(_Unit(lo, hi, bundle and hi - lo > 1))

    for k, index in enumerate(todo):
        sg = run.subgraphs[index]
        mine = (_roots(sg, config).size, sg.num_vertices, sg.num_arcs)
        joins = (
            index != 0 and cap is not None and fits(*mine)
            and _bundles(sg, config)
        )
        grown = tuple(a + b for a, b in zip(size, mine))
        if joins and bundle and fits(*grown):
            size = grown
            continue
        if k > lo:
            close(k)
        lo, bundle, size = k, joins, mine
    if todo:
        close(len(todo))
    return units


def _unit_size(sgs: list, unit: _Unit, config: APGREConfig) -> Tuple[int, int]:
    """A unit's ``(arcs, roots)``."""
    members = sgs[unit.lo : unit.hi]
    return (
        sum(sg.num_arcs for sg in members),
        sum(_roots(sg, config).size for sg in members),
    )


def _unit_scores(
    sgs: list,
    unit: _Unit,
    config: APGREConfig,
    kernel: Optional[str],
    lo=None,
    hi=None,
    workers: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run one unit on ``kernel``: ``(local, tallies)``.

    ``local`` holds the members' local vectors end to end and
    ``tallies`` each member's examined-edge count.  A lone sub-graph
    may run the root slice ``[lo, hi)``; a bundle always runs whole.
    """
    if not unit.bundle:
        sg = sgs[unit.lo]
        tally = WorkCounter()
        roots = None if lo is None else _roots(sg, config)[lo:hi]
        local = _subgraph_scores(sg, config, kernel, tally, roots, workers)
        return local, np.asarray([tally.examined])
    local, _offsets, tallies = bc_bundle(
        sgs[unit.lo : unit.hi],
        kernel=kernel,
        eliminate_pendants=config.eliminate_pendants,
    )
    return local, tallies


def _make_tasks(
    sgs: list,
    units: List[_Unit],
    config: APGREConfig,
) -> Tuple[List[Tuple[int, int, int]], List[float]]:
    """Split units into (unit, root_lo, root_hi) chunks + weights.

    ``unit`` indexes ``units``.  Large sub-graphs are cut into
    ~``2 × workers`` root slices so the dominant top sub-graph does not
    serialise the pool (the paper gets the same effect from its
    fine-grained level); small ones and bundles stay whole.  Tasks are
    returned largest-estimated-work first (LPT) under the
    :func:`~repro.parallel.scheduler.task_cost` model.  With an
    integer ``batch_size``, chunk boundaries are aligned to a multiple
    of it so workers run full batches (``"auto"`` resolves per
    sub-graph inside the worker and is left unaligned).
    """
    batch_size = config.batch_size
    tasks: List[Tuple[int, int, int]] = []
    weights: List[float] = []
    sizes = [_unit_size(sgs, unit, config) for unit in units]
    chunk_target = max(
        sum(roots for _arcs, roots in sizes) // max(2 * config.workers, 1), 1
    )
    if isinstance(batch_size, int) and batch_size > 1:
        chunk_target = max(
            (chunk_target + batch_size - 1) // batch_size * batch_size,
            batch_size,
        )
    for u, (unit, (arcs, n_roots)) in enumerate(zip(units, sizes)):
        if n_roots == 0:
            continue
        step = n_roots
        if not unit.bundle:
            step = max(min(chunk_target, n_roots), 1)
        for lo in range(0, n_roots, step):
            hi = min(lo + step, n_roots)
            tasks.append((u, lo, hi))
            weights.append(task_cost(arcs, hi - lo))
    order = lpt_order(weights)
    return [tasks[i] for i in order], [weights[i] for i in order]


@dataclass
class _Run:
    """One run's BC-phase state, shared by the pass and its filters."""

    graph: CSRGraph
    config: APGREConfig
    #: the compute kernel every batched sweep runs, resolved once;
    #: ``None`` for the per-source reference (``batch_size=None``)
    kernel: Optional[str]
    subgraphs: list
    bc: np.ndarray
    counter: WorkCounter
    stats: APGREStats


#: ``sink(index, local, edges)``: commits one recomputed sub-graph
_Sink = Callable[[int, np.ndarray, int], None]


def apgre_bc_detailed(
    graph: CSRGraph,
    config: Optional[APGREConfig] = None,
    *,
    partition: Optional[Partition] = None,
    delta=None,
) -> BCResult:
    """Run APGRE and return scores plus phase timings and counters.

    Parameters
    ----------
    graph:
        Directed or undirected, connected or not.
    config:
        Run options; defaults to :class:`APGREConfig()`.
    partition:
        A pre-computed partition (with α/β already filled) to reuse
        across runs — the scaling benchmarks pass this so worker-count
        sweeps time only the BC phase they vary.
    delta:
        The :class:`~repro.cache.incremental.EdgeDelta` that turned
        the previous graph into ``graph``
        (:func:`~repro.cache.incremental.apgre_bc_delta` passes it).
        With a cache, dirty sub-graphs whose predecessor is stored are
        then patched instead of recomputed; without one it is unused.
    """
    config = config or APGREConfig()
    stats = APGREStats()
    if partition is None:
        partition = _decompose(graph, config, stats)
    return _bc_phase(graph, config, partition, stats, delta)


def _decompose(
    graph: CSRGraph,
    config: APGREConfig,
    stats: APGREStats,
    previous: Optional[Partition] = None,
    delta=None,
) -> Partition:
    """Steps 1-2: ``graph``'s α/β-filled partition, timed into ``stats``.

    ``previous`` is the α/β-filled partition of the graph the edge
    ``delta`` turned into ``graph``; when it has the run's threshold,
    the partition is derived from it where that is exact
    (:func:`~repro.decompose.partition.derive_partition`,
    ``stats.partition_derived``) and ``timings.partition`` times the
    derivation.  A derived undirected partition keeps its α/β, so the
    α/β phase does not run.
    """
    timings = stats.timings
    t0 = time.perf_counter()
    partition = None
    if previous is not None and previous.threshold == config.threshold:
        partition = derive_partition(previous, graph, delta)
    stats.partition_derived = partition is not None
    if partition is None:
        partition = graph_partition(graph, threshold=config.threshold)
    timings.partition = time.perf_counter() - t0
    if stats.partition_derived and not graph.directed:
        return partition

    t0 = time.perf_counter()
    ab = compute_alpha_beta(graph, partition, method=config.alpha_beta_method)
    timings.alpha_beta = time.perf_counter() - t0
    stats.alpha_beta_pairs = ab.pairs
    stats.alpha_beta_method = ab.method
    return partition


def _bc_phase(
    graph: CSRGraph,
    config: APGREConfig,
    partition: Partition,
    stats: APGREStats,
    delta=None,
) -> BCResult:
    """Step 3 over an α/β-filled partition: the scores, into ``stats``."""
    counter = WorkCounter()
    subgraphs = partition.subgraphs
    stats.num_subgraphs = len(subgraphs)
    stats.num_articulation_points = int(partition.articulation_flags.sum())
    stats.num_boundary_arts = int(partition.boundary_art_flags.sum())
    if config.eliminate_pendants:
        stats.num_removed_pendants = sum(sg.removed.size for sg in subgraphs)
        stats.num_sources = sum(sg.roots.size for sg in subgraphs)
    else:
        stats.num_sources = sum(sg.num_vertices for sg in subgraphs)

    if config.compress:
        # Build (and memoize) every plan up front: fork-based workers
        # then inherit the finished plans instead of rebuilding them,
        # and the stats describe the run regardless of which execution
        # path the scores take.  These tallies quantify work *avoided*
        # and are never folded into edges_traversed/TEPS.
        from repro.compress import compression_plan

        plans = [
            compression_plan(sg, eliminate_pendants=config.eliminate_pendants)
            for sg in subgraphs
        ]
        stats.vertices_merged = sum(p.vertices_merged for p in plans)
        stats.chains_contracted = sum(p.chain_interiors for p in plans)
        stats.vertices_peeled = sum(p.vertices_peeled for p in plans)
        total_n = sum(p.n for p in plans)
        total_core = sum(p.n_core for p in plans)
        stats.compression_ratio = (
            total_n / total_core if total_core else 1.0
        )

    bc = np.zeros(graph.n, dtype=SCORE_DTYPE)
    kernel = None
    if config.batch_size is not None:
        from repro.graph import kernels as _kernels

        kernel = _kernels.resolve_kernel_name(config.kernel)
    run = _Run(
        graph=graph,
        config=config,
        kernel=kernel,
        subgraphs=subgraphs,
        bc=bc,
        counter=counter,
        stats=stats,
    )
    store = None
    if config.cache is not None or config.cache_dir is not None:
        from repro.cache.store import resolve_store

        store = resolve_store(config.cache, config.cache_dir)
    t0 = time.perf_counter()
    if config.journal_dir is not None:
        health = _journaled_pass(run, store, delta)
    elif store is not None:
        health = _cached_pass(run, store, delta)
    else:
        health = _compute_units(run, list(range(len(subgraphs))))
    # the serial loop times the top sub-graph itself; the rest of the
    # phase (other sub-graphs, replays, engine runs) is rest_bc
    stats.timings.rest_bc = time.perf_counter() - t0 - stats.timings.top_bc

    stats.edges_traversed = counter.edges
    return BCResult(scores=bc, stats=stats, health=health)


def _compute_units(
    run: _Run,
    todo: List[int],
    sink: Optional[_Sink] = None,
    health: Optional[RunHealth] = None,
) -> Optional[RunHealth]:
    """Compute the ``todo`` sub-graphs into the scores — the one BC phase.

    ``todo`` indexes ``run.subgraphs``; :func:`_units` cuts it into
    lone sub-graphs and bundles.  With ``workers > 1`` the units run
    on the engine ``config.backend`` resolves to; otherwise, and as
    the engine's fallback rung, an inline loop runs them.  ``sink``
    receives each sub-graph's complete local vector and its exact
    examined-edge tally, bundled or not, parent-side
    only (after the engine's poisoned-row recovery or tree reduction),
    so a worker never touches the store or the journal.  Rungs: engine
    → serial → Brandes; the lower two engage only with
    ``config.fallback``, and the Brandes rung clears the
    replay/resume/bundle bookkeeping, since the scores no longer
    decompose per sub-graph.  Returns ``health``, created for an
    engine run.
    """
    config, stats = run.config, run.stats
    units = _units(run, todo)
    bundles = [unit for unit in units if unit.bundle]
    stats.bundles = len(bundles)
    stats.subgraphs_bundled = sum(unit.hi - unit.lo for unit in bundles)
    if config.workers <= 1:
        _serial_units(run, todo, units, sink)
        return health
    from repro.parallel.backends import resolve_backend

    engine = resolve_backend(config.backend)
    health = health if health is not None else RunHealth()
    try:
        _engine_units(run, todo, units, sink, engine.contributions, health)
        return health
    except ExecutionError:
        if not config.fallback:
            raise
    health.fallback_path = "serial"
    try:
        _serial_units(run, todo, units, sink)
    except ReproError:
        from repro.baselines.brandes import brandes_bc

        health.fallback_path = "brandes"
        run.bc[:] = brandes_bc(run.graph)
        stats.edges_replayed = stats.subgraphs_replayed = 0
        stats.edges_resumed = stats.subgraphs_resumed = 0
        stats.bundles = stats.subgraphs_bundled = 0
        stats.subgraphs_patched = 0
    return health


def _serial_units(
    run: _Run, todo: List[int], units: List[_Unit], sink: Optional[_Sink]
) -> None:
    """The inline loop: one unit at a time, largest first (LPT)."""
    config = run.config
    sgs = [run.subgraphs[i] for i in todo]
    costs = [task_cost(*_unit_size(sgs, unit, config)) for unit in units]
    for u in lpt_order(costs):
        unit = units[u]
        t0 = time.perf_counter()
        local, tallies = _unit_scores(sgs, unit, config, run.kernel)
        if todo[unit.lo] == 0:
            run.stats.timings.top_bc += time.perf_counter() - t0
        at = 0
        for k in range(unit.lo, unit.hi):
            part = local[at : at + sgs[k].num_vertices]
            at += part.size
            if sink is not None:
                sink(todo[k], part, int(tallies[k - unit.lo]))
            run.bc[sgs[k].vertices] += part
        run.counter.add(int(tallies.sum()))


def _engine_units(
    run: _Run,
    todo: List[int],
    units: List[_Unit],
    sink: Optional[_Sink],
    contributions,
    health: RunHealth,
) -> None:
    """Fan the ``todo`` sub-graphs' units out over an engine.

    Units are cut into root slices (:func:`_make_tasks`).  Without a
    sink every slice folds straight into global coordinates, so each
    engine row costs one ``(n,)`` vector; a bundle pre-sums the
    articulation points its members share, because an engine fold
    (``row[verts] += delta``) keeps only one of repeated indices.  A
    sink needs every sub-graph's complete local vector back, so each
    one then owns a contiguous slice of a concatenated local space
    instead (a bundle's members are consecutive, so it owns one run of
    them), plus one slot past that space for its examined-edge tally:
    the engine returns one tally per task, but a bundle task holds
    several sub-graphs, so the tallies ride in the vector, where
    integers below 2**53 add exactly in any order.  Nothing touches
    the scores or the counter until the engine returns, so a failed
    attempt leaves them clean for the serial rung.
    """
    config = run.config
    sgs = [run.subgraphs[i] for i in todo]
    tasks, weights = _make_tasks(sgs, units, config)
    offsets = None
    n = run.graph.n
    if sink is not None:
        offsets = np.zeros(len(sgs) + 1, dtype=np.int64)
        np.cumsum([sg.num_vertices for sg in sgs], out=offsets[1:])
        n = int(offsets[-1]) + len(sgs)

    def compute(task_id: int):
        u, lo, hi = tasks[task_id]
        unit = units[u]
        local, tallies = _unit_scores(
            sgs, unit, config, run.kernel, lo, hi, workers=config.workers
        )
        if offsets is not None:
            verts = np.concatenate([
                np.arange(offsets[unit.lo], offsets[unit.hi]),
                offsets[-1] + np.arange(unit.lo, unit.hi),
            ])
            local = np.concatenate([local, tallies])
        elif not unit.bundle:
            verts = sgs[unit.lo].vertices
        else:
            verts, inv = np.unique(
                np.concatenate([sg.vertices for sg in sgs[unit.lo : unit.hi]]),
                return_inverse=True,
            )
            local = np.bincount(inv, weights=local, minlength=verts.size)
        return verts, local, int(tallies.sum())

    total, edge_total, _batch_edges = contributions(
        compute,
        weights,
        n=n,
        workers=config.workers,
        steal=config.steal,
        config=SupervisorConfig(
            timeout=config.timeout,
            max_retries=config.max_retries,
            fallback=config.fallback,
        ),
        health=health,
    )
    run.counter.add(edge_total)
    if offsets is None:
        run.bc += total
        return
    tallies = np.rint(total[offsets[-1] :]).astype(np.int64)
    for k, sg in enumerate(sgs):
        local = total[offsets[k] : offsets[k + 1]]
        sink(todo[k], local, int(tallies[k]))
        run.bc[sg.vertices] += local


def _replay(run: _Run, index: int, entry) -> bool:
    """Merge a stored vector of sub-graph ``index`` into the scores.

    ``False`` (nothing merged) when there is no entry or its length
    does not match the sub-graph.
    """
    sg = run.subgraphs[index]
    if entry is None or entry.scores.size != sg.num_vertices:
        return False
    run.bc[sg.vertices] += entry.scores
    return True


def _cache_filter(
    run: _Run, store, todo: List[int], on_hit=None
) -> Tuple[List[int], List[str]]:
    """Replay the store hits among ``todo``; return the misses and keys.

    Every sub-graph is keyed by its content fingerprint (local edges +
    incoming α/β/γ summaries — :mod:`repro.cache.fingerprint`).  Hits
    merge their stored local vectors and report their stored tallies
    as ``stats.edges_replayed``; ``on_hit(index, entry)`` sees each
    one.
    """
    from repro.cache.fingerprint import subgraph_key

    config = run.config
    keys = [
        subgraph_key(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            compress=config.compress,
        )
        for sg in run.subgraphs
    ]
    misses: List[int] = []
    for index in todo:
        entry = store.get(keys[index])
        if _replay(run, index, entry):
            run.stats.edges_replayed += entry.edges
            run.stats.subgraphs_replayed += 1
            if on_hit is not None:
                on_hit(index, entry)
        else:
            misses.append(index)
    return misses, keys


def _patch_filter(
    run: _Run, store, todo: List[int], delta, sink: _Sink
) -> List[int]:
    """Patch the misses among ``todo`` that ``delta`` touched
    (:func:`_patch`); return the rest, for the full recompute."""
    if delta is None or run.config.compress:
        return todo
    return [index for index in todo
            if not _patch(run, store, index, delta, sink)]


#: What a tally-only pass (:func:`~repro.graph.batched.batched_tallies`)
#: costs per root, in sweeps of one root: on the serve and road tops
#: it measured 0.2-0.3 of a sweep in spmm's dense form and 0.6 in its
#: sparse form (docs/PERFORMANCE.md §8), so a patch is priced at the
#: dearer one
_TALLY_COST = 0.6


def _patch(run: _Run, store, index: int, delta, sink: _Sink) -> bool:
    """Patch sub-graph ``index`` from its stored predecessor, if it can.

    The predecessor (:func:`~repro.cache.incremental.predecessor`) is
    the sub-graph with ``delta``'s edges inside it reverted and its
    roots, γ, boundary mask, α and β kept.  When it is in the store,
    only the affected roots ``A``
    (:func:`~repro.cache.incremental.affected_roots`) change their
    contribution.  For one undirected edge ``{u, v}`` every changed
    pair has one end on each side of ``A`` (closer to ``u``, closer
    to ``v``) and both sides carry the same change (CACHING.md §3.1),
    so only the smaller side ``S`` is swept: the vector becomes
    ``stored + 2·(sweep(new, S) − sweep(pred, S))``, and the larger
    side owes only its tally, which a forward-only pass counts on both
    graphs (:func:`~repro.graph.batched.batched_tallies`).  Directed
    and multi-edge deltas sweep all of ``A`` (``S = A``, factor 1).
    The sink commits the vector with the exact from-scratch tally;
    ``sweep(new, S)`` counts as traversed, the rest of that tally as
    replayed, and ``sweep(pred, S)`` as ``edges_unwound``.  ``False``
    (nothing merged) when ``delta`` changed no edge inside, the
    predecessor is not stored, or what would run costs at least one
    full sweep: two sweeps of ``S`` plus two tally passes priced at
    :data:`_TALLY_COST` of a sweep per root.  Everything runs inline,
    on the run's kernel, whatever ``workers`` is.
    """
    from repro.cache.fingerprint import subgraph_key
    from repro.cache.incremental import affected_roots, predecessor

    t0 = time.perf_counter()
    config, stats = run.config, run.stats
    sg = run.subgraphs[index]
    inside = delta.inside(sg.vertices)
    if inside is None:
        return False
    pred = predecessor(sg, *inside)
    entry = store.get(
        subgraph_key(pred, eliminate_pendants=config.eliminate_pendants)
    )
    if entry is None or entry.scores.size != sg.num_vertices:
        return False
    roots = _roots(sg, config)
    hit, near, reach = affected_roots(pred.graph, roots, *inside)
    swept, owed, factor = roots[hit], roots[:0], 1.0
    if near is not None:
        swept, owed = sorted((roots[near], roots[hit & ~near]), key=len)
        factor = 2.0
    if 2 * (swept.size + _TALLY_COST * owed.size) >= roots.size:
        return False
    from repro.graph.kernels import share_features

    unwound, traversed = WorkCounter(), WorkCounter()
    new = _subgraph_scores(sg, config, run.kernel, traversed, swept)
    owes = int(batched_tallies(sg.graph, owed, kernel=run.kernel).sum())
    share_features(pred.graph, sg.graph)
    old = _subgraph_scores(pred, config, run.kernel, unwound, swept)
    owes -= int(batched_tallies(pred.graph, owed, kernel=run.kernel).sum())
    local = entry.scores + factor * (new - old)
    edges = (
        entry.edges - unwound.examined + traversed.examined + owes + reach
    )
    sink(index, local, edges)
    run.bc[sg.vertices] += local
    run.counter.add(traversed.examined)
    stats.edges_replayed += edges - traversed.examined
    stats.edges_unwound += unwound.examined
    stats.subgraphs_patched += 1
    if index == 0:
        stats.timings.top_bc += time.perf_counter() - t0
    return True


def _cached_pass(run: _Run, store, delta=None) -> Optional[RunHealth]:
    """Cache filter (and patch filter) in front of :func:`_compute_units`.

    Hits replay (:func:`_cache_filter`); misses an edge ``delta``
    touched may be patched (:func:`_patch_filter`); the rest recompute
    through the one BC-phase path.  The sink stores freshly computed
    and patched vectors with their *exact* tallies — parent-side, so a
    worker killed mid-recompute can never commit a poisoned cache
    entry.
    """
    misses, keys = _cache_filter(run, store, list(range(len(run.subgraphs))))
    run.stats.subgraphs_recomputed = len(misses)

    def sink(index: int, local: np.ndarray, edges: int) -> None:
        store.put(keys[index], local, edges)

    misses = _patch_filter(run, store, misses, delta, sink)
    if not misses:
        return None
    return _compute_units(run, misses, sink)


def _journaled_pass(run: _Run, store, delta=None) -> RunHealth:
    """Journal filter (and optional cache filter) in front of the pass.

    The run journal (:mod:`repro.journal`) is the durability layer:

    1. ``begin`` opens (or, with ``resume=True``, verifies and
       replays) the journal in ``config.journal_dir``; a fingerprint
       mismatch raises :class:`~repro.errors.JournalError` before any
       BC work starts.
    2. Journal-replayed sub-graphs merge their durable local vectors
       (``stats.subgraphs_resumed`` / ``edges_resumed``); a record's
       slot is its sub-graph index.
    3. With a cache configured, remaining sub-graphs consult the store
       next; hits are journaled too, so the resume contract never
       depends on cache warmth, and misses an edge ``delta`` touched
       may be patched (:func:`_patch_filter`).
    4. The rest recompute through :func:`_compute_units`; one sink
       commits every patched and recomputed contribution to the
       journal (and store).

    A :class:`KeyboardInterrupt` (SIGINT, or the CLI's SIGTERM
    translation) or an :class:`~repro.errors.ExecutionError` with
    ``fallback=False`` finalises the journal as a *resumable partial
    result* before re-raising — the error message names the journal
    directory so the operator knows ``--resume`` will pick the run
    back up.
    """
    from repro.journal import RunJournal, run_fingerprint

    config, stats = run.config, run.stats
    journal = RunJournal(config.journal_dir)
    resumed = journal.begin(
        run_fingerprint(run.graph, config), resume=config.resume
    )
    health = RunHealth()
    health.journal_resumable = bool(resumed)

    todo: List[int] = []
    for index in range(len(run.subgraphs)):
        entry = resumed.get(index)
        if _replay(run, index, entry):
            stats.edges_resumed += entry.edges
            stats.subgraphs_resumed += 1
        else:
            todo.append(index)
    keys = None
    if store is not None:
        todo, keys = _cache_filter(
            run, store, todo,
            on_hit=lambda index, entry: journal.record_contribution(
                index, entry.scores, entry.edges
            ),
        )
    stats.subgraphs_recomputed = len(todo)

    def sink(index: int, local: np.ndarray, edges: int) -> None:
        if keys is not None:
            store.put(keys[index], local, edges)
        journal.record_contribution(index, local, edges)

    try:
        if store is not None:
            todo = _patch_filter(run, store, todo, delta, sink)
        if todo:
            _compute_units(run, todo, sink, health)
    except KeyboardInterrupt:
        journal.finalize("interrupted")
        health.interrupted = True
        health.journal_records = journal.records_written
        health.journal_resumable = True
        raise
    except ExecutionError as exc:
        # fallback=False: surface the failure, but as a *resumable* one
        journal.finalize("partial")
        health.journal_records = journal.records_written
        health.journal_resumable = True
        durable = journal.records_written + stats.subgraphs_resumed
        raise type(exc)(
            f"{exc} [{durable} contribution(s) journaled in "
            f"{config.journal_dir}; rerun with resume=True / --resume "
            f"to continue from them]"
        ) from exc
    except BaseException:
        journal.finalize("partial")
        raise
    journal.finalize(
        "partial" if health.fallback_path == "brandes" else "complete"
    )
    health.journal_records = journal.records_written
    return health


def apgre_bc(graph: CSRGraph, **options) -> np.ndarray:
    """Exact BC via APGRE — the convenience entry point.

    ``apgre_bc(graph, **options)`` is
    ``apgre_bc_detailed(graph, APGREConfig(**options)).scores``: every
    option is an :class:`~repro.core.config.APGREConfig` field, with
    the same defaults and validation (an unknown option is a
    ``TypeError``).
    """
    return apgre_bc_detailed(graph, APGREConfig(**options)).scores
