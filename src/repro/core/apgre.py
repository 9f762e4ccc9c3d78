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
sub-graphs").  The driver expands them into work units (whole
sub-graphs, or shard tasks — :func:`_expand_units`) and runs the units
through one BC-phase path, :func:`_compute_units`.  With ``workers >
1`` their root slices go largest-first to the execution engine
``backend`` resolves to (:mod:`repro.parallel.backends`: worker
threads, the supervised shared-memory process pool, or an inline
loop) and the run attaches its supervision report to
``BCResult.health``; otherwise an inline loop runs the units in the
same LPT order.  One degradation ladder covers both: engine → serial
→ the plain Brandes baseline (docs/ROBUSTNESS.md).  The contribution
cache and the run journal are filters in front of that one pass: they
drop the units they can replay and commit every recomputed unit
through a sink.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.baselines.common import WorkCounter
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.core.result import APGREStats, BCResult
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import Partition, graph_partition
from repro.errors import ExecutionError, ReproError
from repro.graph.csr import CSRGraph
from repro.parallel.batched_pool import merge_examined
from repro.parallel.scheduler import lpt_order, task_cost
from repro.parallel.supervisor import RunHealth, SupervisorConfig
from repro.types import SCORE_DTYPE

__all__ = ["apgre_bc", "apgre_bc_detailed"]

# journal slot encoding for shard units: sub-graph ``index`` stays the
# slot of a whole-sub-graph unit (back-compatible with pre-shard
# journals), shard ``s`` of sub-graph ``i`` lives at
# ``(i + 1) * _SLOT_BASE + s`` — disjoint ranges, deterministic.
_SLOT_BASE = 1_000_000


def _counter_triple(tally: WorkCounter) -> Tuple[int, int, int]:
    """One task's ``(edges, pulled, switches)`` engine commit row."""
    return (tally.edges, tally.pulled, tally.switches)


def _fold_tally(counter: WorkCounter, tally: WorkCounter) -> None:
    """Fold a task-local tally's full split into the run counter."""
    counter.add(tally.edges)
    if tally.pulled:
        counter.add_pulled(tally.pulled)
    if tally.switches:
        counter.add_switch(tally.switches)


def _plan_of(sg, config: APGREConfig):
    """The sub-graph's shard plan, or ``None`` when it runs whole."""
    if not config.shard:
        return None
    from repro.shard import shard_plan

    return shard_plan(sg, max_size=config.shard_max_size)


def _expand_units(subgraphs, config: APGREConfig) -> List[Tuple[int, int]]:
    """The run's work units: ``(subgraph_index, shard)``.

    ``shard == -1`` is a whole-sub-graph unit (the only kind when
    sharding is off or the plan declined to split); a sharded
    sub-graph contributes one unit per shard task instead, each a
    first-class schedule/cache/journal citizen.
    """
    units: List[Tuple[int, int]] = []
    for sg in subgraphs:
        plan = _plan_of(sg, config)
        if plan is None:
            units.append((sg.index, -1))
        else:
            units.extend((sg.index, s) for s in range(plan.k))
    return units


def _unit_num_roots(sg, shard: int, config: APGREConfig) -> int:
    if config.eliminate_pendants:
        roots = sg.roots
    else:
        roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
    if shard < 0:
        return int(roots.size)
    return int(_plan_of(sg, config).home_roots(roots, shard).size)


def _unit_scores(
    sg,
    shard: int,
    config: APGREConfig,
    counter=None,
    lo=None,
    hi=None,
    workers: int = 1,
) -> np.ndarray:
    """One unit's full-length local score vector (optionally root-sliced).

    Whole units route through :func:`bc_subgraph` (honouring
    ``batch_size``/``compress``; ``workers`` concurrent callers share
    the auto batch's RAM budget); shard units run the shard kernel —
    never root-sliced and never compressed (the two reductions do not
    compose; docs/SHARDING.md).
    """
    if shard < 0:
        roots = None
        if lo is not None:
            if config.eliminate_pendants:
                all_roots = sg.roots
            else:
                all_roots = np.arange(sg.num_vertices, dtype=sg.roots.dtype)
            roots = all_roots[lo:hi]
        return bc_subgraph(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            counter=counter,
            roots=roots,
            batch_size=config.batch_size,
            compress=config.compress,
            kernel=config.kernel,
            workers=workers,
        )
    from repro.shard import shard_task_scores

    return shard_task_scores(
        sg,
        _plan_of(sg, config),
        shard,
        eliminate_pendants=config.eliminate_pendants,
        counter=counter,
    )


def _unit_weight(sg, shard: int, config: APGREConfig) -> float:
    """LPT weight of a unit under the edges × sqrt(roots) cost model."""
    n_roots = _unit_num_roots(sg, shard, config)
    if shard < 0:
        return task_cost(sg.num_arcs, n_roots)
    h = _plan_of(sg, config).shard_graphs[shard]
    return task_cost(h.num_arcs, n_roots)


def _unit_key(sg, shard: int, config: APGREConfig) -> str:
    """Content fingerprint of one unit's local contribution vector."""
    if shard < 0:
        from repro.cache.fingerprint import subgraph_key

        return subgraph_key(
            sg,
            eliminate_pendants=config.eliminate_pendants,
            compress=config.compress,
        )
    from repro.shard import shard_key

    return shard_key(
        sg,
        shard,
        max_size=config.shard_max_size,
        eliminate_pendants=config.eliminate_pendants,
    )


def _make_tasks(
    subgraphs,
    units: List[Tuple[int, int]],
    config: APGREConfig,
) -> Tuple[List[Tuple[int, int, int]], List[float]]:
    """Split units into (unit_pos, root_lo, root_hi) chunks + weights.

    Large whole-sub-graph units are cut into ~``2 × workers`` root
    slices so the dominant top sub-graph does not serialise the pool
    (the paper gets the same effect from its fine-grained level); small
    units stay whole, and shard units are always one task — the shard
    decomposition *is* the fine cut.  Tasks are returned
    largest-estimated-work first (LPT) under the
    :func:`~repro.parallel.scheduler.task_cost` model.  With an
    integer ``batch_size``, chunk boundaries are aligned to a multiple
    of it so workers run full batches (``"auto"`` resolves per
    sub-graph inside the worker and is left unaligned).
    """
    batch_size = config.batch_size
    tasks: List[Tuple[int, int, int]] = []
    weights: List[float] = []
    total_roots = sum(
        _unit_num_roots(subgraphs[i], s, config) for i, s in units
    )
    chunk_target = max(total_roots // max(2 * config.workers, 1), 1)
    if isinstance(batch_size, int) and batch_size > 1:
        chunk_target = max(
            (chunk_target + batch_size - 1) // batch_size * batch_size,
            batch_size,
        )
    for upos, (index, shard) in enumerate(units):
        sg = subgraphs[index]
        n_roots = _unit_num_roots(sg, shard, config)
        if shard >= 0:
            # zero-root shards still get a task so their (all-zero)
            # vector reaches the cache/journal commit path once
            tasks.append((upos, 0, n_roots))
            h = _plan_of(sg, config).shard_graphs[shard]
            weights.append(task_cost(h.num_arcs, n_roots))
            continue
        if n_roots == 0:
            continue
        step = max(min(chunk_target, n_roots), 1)
        for lo in range(0, n_roots, step):
            hi = min(lo + step, n_roots)
            tasks.append((upos, lo, hi))
            weights.append(task_cost(sg.num_arcs, hi - lo))
    order = lpt_order(weights)
    return [tasks[i] for i in order], [weights[i] for i in order]


@dataclass
class _Run:
    """One run's BC-phase state, shared by the pass and its filters."""

    graph: CSRGraph
    config: APGREConfig
    subgraphs: list
    units: List[Tuple[int, int]]
    bc: np.ndarray
    counter: WorkCounter
    stats: APGREStats


#: ``sink(unit_pos, local, edges)``: commits one recomputed unit
_Sink = Callable[[int, np.ndarray, int], None]


def apgre_bc_detailed(
    graph: CSRGraph,
    config: Optional[APGREConfig] = None,
    *,
    partition: Optional[Partition] = None,
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
    """
    config = config or APGREConfig()
    stats = APGREStats()
    timings = stats.timings
    counter = WorkCounter()

    if partition is None:
        t0 = time.perf_counter()
        partition = graph_partition(graph, threshold=config.threshold)
        timings.partition = time.perf_counter() - t0

        t0 = time.perf_counter()
        ab = compute_alpha_beta(
            graph, partition, method=config.alpha_beta_method
        )
        timings.alpha_beta = time.perf_counter() - t0
        stats.alpha_beta_pairs = ab.pairs
        stats.alpha_beta_method = ab.method

    subgraphs = partition.subgraphs
    stats.num_subgraphs = len(subgraphs)
    stats.num_articulation_points = int(partition.articulation_flags.sum())
    stats.num_boundary_arts = int(partition.boundary_art_flags.sum())
    if config.eliminate_pendants:
        stats.num_removed_pendants = sum(sg.removed.size for sg in subgraphs)
        stats.num_sources = sum(sg.roots.size for sg in subgraphs)
    else:
        stats.num_sources = sum(sg.num_vertices for sg in subgraphs)

    if config.shard:
        # Build (and memoize) every shard plan up front: fork-based
        # workers inherit finished plans, and the stats describe the
        # decomposition whichever execution path the scores take.
        # Plan-construction work is tallied out of TEPS.
        plans = [(sg, _plan_of(sg, config)) for sg in subgraphs]
        built = [(sg, p) for sg, p in plans if p is not None]
        stats.shards_created = sum(p.k for _, p in built)
        stats.separator_vertices = sum(p.num_separator for _, p in built)
        stats.edges_correction = sum(p.edges_correction for _, p in built)
        stats.largest_shard_ratio = max(
            (p.largest_shard / sg.num_vertices for sg, p in built),
            default=1.0,
        )

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
            # sharded sub-graphs skip the compression ladder entirely
            if _plan_of(sg, config) is None
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
    run = _Run(
        graph=graph,
        config=config,
        subgraphs=subgraphs,
        units=_expand_units(subgraphs, config),
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
        health = _journaled_pass(run, store)
    elif store is not None:
        health = _cached_pass(run, store)
    else:
        health = _compute_units(run, list(range(len(run.units))))
    # the serial loop times the top sub-graph's units itself; the rest
    # of the phase (other units, replays, engine runs) is rest_bc
    timings.rest_bc = time.perf_counter() - t0 - timings.top_bc

    stats.edges_traversed = counter.edges
    stats.edges_pulled = counter.pulled
    stats.kernel_switches = counter.switches
    return BCResult(scores=bc, stats=stats, health=health)


def _compute_units(
    run: _Run,
    todo: List[int],
    sink: Optional[_Sink] = None,
    health: Optional[RunHealth] = None,
) -> Optional[RunHealth]:
    """Compute the ``todo`` units into the scores — the one BC phase.

    ``todo`` indexes ``run.units``.  With ``workers > 1`` the units
    run on the engine ``config.backend`` resolves to; otherwise, and
    as the engine's fallback rung, an inline loop runs them.  ``sink``
    receives each unit's complete local vector and its exact
    direction-blind examined-edge tally, parent-side only (after the
    engine's poisoned-row recovery or tree reduction), so a worker
    never touches the store or the journal.  Rungs: engine → serial →
    Brandes; the lower two engage only with ``config.fallback``, and
    the Brandes rung clears the replay/resume bookkeeping, since the
    scores no longer decompose per unit.  Returns ``health``, created
    for an engine run.
    """
    config = run.config
    if config.workers <= 1:
        _serial_units(run, todo, sink)
        return health
    from repro.parallel.backends import resolve_backend

    engine = resolve_backend(config.backend)
    health = health if health is not None else RunHealth()
    try:
        _engine_units(run, todo, sink, engine.contributions, health)
        return health
    except ExecutionError:
        if not config.fallback:
            raise
    health.fallback_path = "serial"
    try:
        _serial_units(run, todo, sink)
    except ReproError:
        from repro.baselines.brandes import brandes_bc

        health.fallback_path = "brandes"
        run.bc[:] = brandes_bc(run.graph)
        stats = run.stats
        stats.edges_replayed = stats.subgraphs_replayed = 0
        stats.edges_resumed = stats.subgraphs_resumed = 0
    return health


def _serial_units(run: _Run, todo: List[int], sink: Optional[_Sink]) -> None:
    """The inline loop: one unit at a time, largest first (LPT)."""
    subgraphs, units, config = run.subgraphs, run.units, run.config
    costs = [
        _unit_weight(subgraphs[units[u][0]], units[u][1], config)
        for u in todo
    ]
    for idx in lpt_order(costs):
        upos = todo[idx]
        index, shard = units[upos]
        sg = subgraphs[index]
        tally = WorkCounter()
        t0 = time.perf_counter()
        local = _unit_scores(sg, shard, config, tally)
        if index == 0:
            run.stats.timings.top_bc += time.perf_counter() - t0
        if sink is not None:
            # committed replay tallies are direction-blind totals, so a
            # later replay reports the same examined count whatever
            # kernel recomputed the entry
            sink(upos, local, tally.examined)
        run.bc[sg.vertices] += local
        _fold_tally(run.counter, tally)


def _engine_units(
    run: _Run,
    todo: List[int],
    sink: Optional[_Sink],
    contributions,
    health: RunHealth,
) -> None:
    """Fan the ``todo`` units' root slices out over an engine.

    Whole units are cut into root slices and shard units run one task
    each (:func:`_make_tasks`).  Without a sink every slice folds
    straight into global coordinates, so each engine row costs one
    ``(n,)`` vector.  A sink needs every unit's complete local vector
    back, so each unit then owns a contiguous slice of a concatenated
    local space instead.  Per-batch edge tallies come back exactly and
    are summed per unit, so committed entries replay the tally a
    serial run counts.  Nothing touches the scores or the counter
    until the engine returns, so a failed attempt leaves them clean
    for the serial rung.
    """
    config = run.config
    units = [run.units[u] for u in todo]
    sgs = [run.subgraphs[i] for i, _s in units]
    tasks, weights = _make_tasks(run.subgraphs, units, config)
    offsets = None
    n = run.graph.n
    if sink is not None:
        offsets = np.zeros(len(units) + 1, dtype=np.int64)
        np.cumsum([sg.num_vertices for sg in sgs], out=offsets[1:])
        n = int(offsets[-1])

    def compute(task_id: int):
        k, lo, hi = tasks[task_id]
        tally = WorkCounter()
        local = _unit_scores(
            sgs[k], units[k][1], config, tally, lo, hi,
            workers=config.workers,
        )
        if offsets is None:
            verts = sgs[k].vertices
        else:
            verts = np.arange(offsets[k], offsets[k + 1])
        return verts, local, _counter_triple(tally)

    total, edge_total, batch_edges = contributions(
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
    merge_examined(run.counter, edge_total)
    if offsets is None:
        run.bc += total
        return
    # batch_edges carries per-batch examined TOTALS (push + pull), so
    # the committed per-unit replay tallies are direction-blind
    per_unit = np.zeros(len(units), dtype=np.int64)
    for task_id, (k, _lo, _hi) in enumerate(tasks):
        per_unit[k] += batch_edges[task_id]
    for k, sg in enumerate(sgs):
        local = total[offsets[k] : offsets[k + 1]]
        sink(todo[k], local, int(per_unit[k]))
        run.bc[sg.vertices] += local


def _replay(run: _Run, index: int, entry) -> bool:
    """Merge a stored unit vector of sub-graph ``index`` into the scores.

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

    Every work unit — a whole sub-graph, or one shard task of a
    sharded sub-graph — is keyed by its content fingerprint (local
    edges + incoming α/β/γ summaries — :mod:`repro.cache.fingerprint`;
    shard units add the shard id and threshold under their own domain
    — :mod:`repro.shard.fingerprint`).  Hits merge their stored local
    vectors and report their stored tallies as
    ``stats.edges_replayed``; ``on_hit(unit_pos, entry)`` sees each
    one.
    """
    keys = [_unit_key(run.subgraphs[i], s, run.config) for i, s in run.units]
    misses: List[int] = []
    for upos in todo:
        entry = store.get(keys[upos])
        if _replay(run, run.units[upos][0], entry):
            run.stats.edges_replayed += entry.edges
            run.stats.subgraphs_replayed += 1
            if on_hit is not None:
                on_hit(upos, entry)
        else:
            misses.append(upos)
    return misses, keys


def _cached_pass(run: _Run, store) -> Optional[RunHealth]:
    """Cache filter in front of :func:`_compute_units`.

    Hits replay (:func:`_cache_filter`); misses recompute through the
    one BC-phase path, and the sink stores their freshly computed
    vectors and *exact* tallies — parent-side, so a worker killed
    mid-recompute can never commit a poisoned cache entry.
    """
    misses, keys = _cache_filter(run, store, list(range(len(run.units))))
    run.stats.subgraphs_recomputed = len(misses)
    if not misses:
        return None

    def sink(upos: int, local: np.ndarray, edges: int) -> None:
        store.put(keys[upos], local, edges)

    return _compute_units(run, misses, sink)


def _journaled_pass(run: _Run, store) -> RunHealth:
    """Journal filter (and optional cache filter) in front of the pass.

    The run journal (:mod:`repro.journal`) is the durability layer:

    1. ``begin`` opens (or, with ``resume=True``, verifies and
       replays) the journal in ``config.journal_dir``; a fingerprint
       mismatch raises :class:`~repro.errors.JournalError` before any
       BC work starts.
    2. Journal-replayed units merge their durable local vectors
       (``stats.subgraphs_resumed`` / ``edges_resumed``).
    3. With a cache configured, remaining units consult the store
       next; hits are journaled too, so the resume contract never
       depends on cache warmth.
    4. The rest recompute through :func:`_compute_units`, whose sink
       commits every contribution to the journal (and store).

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

    slots = [
        index if shard < 0 else (index + 1) * _SLOT_BASE + shard
        for index, shard in run.units
    ]
    todo: List[int] = []
    for upos, (index, _shard) in enumerate(run.units):
        entry = resumed.get(slots[upos])
        if _replay(run, index, entry):
            stats.edges_resumed += entry.edges
            stats.subgraphs_resumed += 1
        else:
            todo.append(upos)
    keys = None
    if store is not None:
        todo, keys = _cache_filter(
            run, store, todo,
            on_hit=lambda upos, entry: journal.record_contribution(
                slots[upos], entry.scores, entry.edges
            ),
        )
    stats.subgraphs_recomputed = len(todo)

    def sink(upos: int, local: np.ndarray, edges: int) -> None:
        if keys is not None:
            store.put(keys[upos], local, edges)
        journal.record_contribution(slots[upos], local, edges)

    try:
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
