"""Differential tests for the delta patch (``apgre_bc_delta``).

A dirty sub-graph whose predecessor is stored is patched instead of
recomputed: ``stored − sweep(pred, A) + sweep(new, A)`` over the
affected roots ``A``, or, for one undirected edge, ``stored +
2·(sweep(new, S) − sweep(pred, S))`` over the smaller side ``S`` of
``A``, the larger side's tally counted by a forward-only pass.  These
tests drive seeded chains of deltas through it (directed and
undirected, pendant elimination on and off, both kernels) and check
every step against Brandes, the tally identity against a from-scratch
run, the one-sided patch against the two-sided one, the tally-only
pass against every kernel row by row, that cross-block edges fall
back, that the predicate is sound root by root, that the
predecessor's key is the key the previous run stored, and how far a
long chain drifts.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.baselines.common import WorkCounter
from repro.cache.fingerprint import subgraph_key
from repro.cache.incremental import (
    _apply,
    affected_roots,
    apgre_bc_delta,
    predecessor,
)
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc_detailed
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.articulation import biconnected_components
from repro.decompose.partition import graph_partition
from repro.generators.suite import SUITE_SPECS, analogue_graph
from repro.graph import batched
from repro.graph.batched import (
    arcs_contributions,
    batched_tallies,
    spmm_contributions,
)
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

KERNELS = ["arcs", "spmm"]

#: the undirected suite analogues
UNDIRECTED = sorted(
    name for name, spec in SUITE_SPECS.items() if not spec.directed
)


def _graph(seed: int, directed: bool) -> CSRGraph:
    """A dense core, small satellite blocks hanging off it at one
    vertex each, and pendant vertices: the shape APGRE decomposes."""
    rng = np.random.default_rng(seed)
    core = 20
    # a dense core: a root sees an edge's endpoints at different
    # distances only when it neighbours just one of them (~2p(1 - p)
    # of the roots), so most deltas leave most DAGs alone
    pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges = {pairs[k] for k in np.flatnonzero(rng.random(len(pairs)) < 0.8)}
    n = core
    for _ in range(8):  # satellites: cycles of 3-5 vertices
        anchor = int(rng.integers(0, n))
        size = int(rng.integers(3, 6))
        ring = [anchor] + list(range(n, n + size - 1))
        n += size - 1
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.add((a, b))
    for _ in range(6):  # pendants
        edges.add((n, int(rng.integers(0, n))))
        n += 1
    if directed:
        both = [(v, u) for u, v in edges if rng.random() < 0.4]
        edges |= set(both)
    else:
        edges = {(min(e), max(e)) for e in edges}
    return from_edges(sorted(edges), n=n, directed=directed)


def _step(graph, rng, kind: str):
    """One delta of ``kind``: ``(added, removed)`` edge lists, or None
    when the graph offers no such edge."""
    part = graph_partition(graph)
    top = part.subgraphs[0]
    verts = top.vertices.tolist()
    if kind == "insert":
        for _ in range(50):
            u, v = (int(x) for x in rng.choice(verts, 2, replace=False))
            if not graph.has_edge(u, v):
                return [(u, v)], []
        return None
    if kind == "remove":
        src, dst = top.graph.arcs()
        if not graph.directed:
            keep = src < dst
            src, dst = src[keep], dst[keep]
        k = int(rng.integers(0, src.size))
        return [], [(int(top.vertices[src[k]]), int(top.vertices[dst[k]]))]
    # cross: a satellite vertex to a core vertex outside that satellite
    others = [sg for sg in part.subgraphs[1:] if sg.num_vertices > 2]
    in_top = set(verts)
    for sg in rng.permutation(len(others)).tolist():
        sat = set(others[sg].vertices.tolist())
        xs = [x for x in sat if x not in in_top]
        ys = [y for y in verts if y not in sat]
        if xs and ys:
            x = int(rng.choice(xs))
            y = int(rng.choice(ys))
            if not graph.has_edge(x, y) and not graph.has_edge(y, x):
                return [(x, y)], []
    return None


def _chain(graph, options: dict, steps: int, seed: int):
    """Run ``steps`` mixed deltas through one store; yield each step's
    kind, delta result and a from-scratch run on its graph."""
    rng = np.random.default_rng(seed)
    store = ContributionStore()
    config = APGREConfig(cache=store, **options)
    apgre_bc_detailed(graph, config)
    done = 0
    while done < steps:
        kind = str(rng.choice(["insert", "insert", "remove", "cross"],
                              p=[0.4, 0.2, 0.3, 0.1]))
        delta = _step(graph, rng, kind)
        if delta is None:
            continue
        added, removed = delta
        dr = apgre_bc_delta(
            graph, edges_added=added, edges_removed=removed,
            cache=store, config=config,
        )
        scratch = apgre_bc_detailed(dr.graph, APGREConfig(**options))
        yield kind, dr, scratch
        graph = dr.graph
        done += 1


@pytest.mark.parametrize("kernel", KERNELS + [None])
@pytest.mark.parametrize("pendants", [True, False], ids=["ep", "all"])
@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_chain_matches_brandes(directed, pendants, kernel):
    # kernel None: the per-source reference loop (batch_size=None)
    graph = _graph(7 + directed, directed)
    options = {"kernel": kernel, "eliminate_pendants": pendants}
    if kernel is None:
        options["batch_size"] = None
    patched = {"insert": 0, "remove": 0}
    for kind, dr, scratch in _chain(graph, options, steps=50, seed=3):
        stats = dr.result.stats
        np.testing.assert_allclose(
            dr.scores, brandes_bc(dr.graph), rtol=1e-9, atol=1e-9
        )
        assert (
            stats.edges_traversed + stats.edges_replayed
            + stats.edges_resumed == scratch.stats.edges_traversed
        )
        assert (
            stats.subgraphs_replayed + stats.subgraphs_recomputed
            == stats.num_subgraphs
        )
        assert stats.subgraphs_patched <= stats.subgraphs_recomputed
        if kind == "cross":
            assert stats.subgraphs_patched == 0
            assert stats.edges_unwound == 0
        else:
            patched[kind] += stats.subgraphs_patched
    # the fast path really ran on both kinds of intra-block edit
    assert patched["insert"] > 0 and patched["remove"] > 0


@pytest.mark.parametrize("kernel", KERNELS + [None])
@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_unaffected_roots_keep_their_contribution_bitwise(directed, kernel):
    # per-root contributions outside A are equal to the last bit on the
    # predecessor and on the new sub-graph (kernel None: per-source)
    rng = np.random.default_rng(11)
    graph = _graph(5, directed)
    batch = None if kernel is None else "auto"
    checked = 0
    for kind in ["insert", "remove"] * 4:
        added, removed = _step(graph, rng, kind)
        new_graph, delta = _apply(graph, added, removed)
        part = graph_partition(new_graph)
        compute_alpha_beta(new_graph, part)
        for sg in part.subgraphs:
            inside = delta.inside(sg.vertices)
            if inside is None:
                continue
            pred = predecessor(sg, *inside)
            hit, _near, _reach = affected_roots(
                pred.graph, sg.roots, *inside
            )
            for s in sg.roots[~hit].tolist():
                one = np.asarray([s], dtype=sg.roots.dtype)
                old, new = WorkCounter(), WorkCounter()
                a = bc_subgraph(pred, roots=one, batch_size=batch,
                                kernel=kernel, counter=old)
                b = bc_subgraph(sg, roots=one, batch_size=batch,
                                kernel=kernel, counter=new)
                assert np.array_equal(a, b), (kind, s)
                checked += 1
        graph = new_graph
    assert checked > 0


@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_affected_tally_term_is_exact(directed):
    # the unaffected roots' examined counts change by the reach term
    rng = np.random.default_rng(4)
    graph = _graph(9, directed)
    for kind in ["insert", "remove"] * 3:
        added, removed = _step(graph, rng, kind)
        new_graph, delta = _apply(graph, added, removed)
        part = graph_partition(new_graph)
        compute_alpha_beta(new_graph, part)
        for sg in part.subgraphs:
            inside = delta.inside(sg.vertices)
            if inside is None:
                continue
            pred = predecessor(sg, *inside)
            hit, _near, reach = affected_roots(
                pred.graph, sg.roots, *inside
            )
            rest = sg.roots[~hit]
            old, new = WorkCounter(), WorkCounter()
            bc_subgraph(pred, roots=rest, batch_size="auto", counter=old)
            bc_subgraph(sg, roots=rest, batch_size="auto", counter=new)
            assert new.examined - old.examined == reach
        graph = new_graph


@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_predecessor_key_is_the_stored_key(directed):
    # the reconstructed predecessor hashes to the key the run on the
    # pre-delta graph stored, so the fast path cannot silently go dead
    rng = np.random.default_rng(2)
    graph = _graph(3, directed)
    patched = 0
    for kind in ["insert", "remove"] * 3:
        store = ContributionStore()
        config = APGREConfig(cache=store)
        apgre_bc_detailed(graph, config)
        old = graph_partition(graph)
        compute_alpha_beta(graph, old)
        stored = {subgraph_key(sg) for sg in old.subgraphs}
        added, removed = _step(graph, rng, kind)
        new_graph, delta = _apply(graph, added, removed)
        part = graph_partition(new_graph)
        compute_alpha_beta(new_graph, part)
        top = part.subgraphs[0]
        inside = delta.inside(top.vertices)
        key = None
        if inside is not None:  # a removal may split the top
            key = subgraph_key(predecessor(top, *inside))
        same = old.subgraphs[0]
        if (
            np.array_equal(top.vertices, same.vertices)
            and np.array_equal(top.roots, same.roots)
            and np.array_equal(top.gamma, same.gamma)
        ):
            assert key == subgraph_key(same)
        dr = apgre_bc_delta(
            graph, edges_added=added, edges_removed=removed,
            cache=store, config=config,
        )
        assert dr.result.stats.subgraphs_patched <= (key in stored)
        patched += dr.result.stats.subgraphs_patched
        graph = new_graph
    assert patched > 0


def test_two_partial_sweeps_must_beat_one_full():
    # a patch costing at least one full sweep falls back to it: a
    # 12-cycle's chord between vertices an odd distance apart moves
    # every root's DAG (no root is equidistant from its ends) and
    # splits the roots 6/6, so the two sweeps of one side alone cost a
    # full sweep, before the other side's tallies
    n = 12
    cycle = [(v, (v + 1) % n) for v in range(n)]
    graph = from_edges(cycle, n=n, directed=False)
    store = ContributionStore()
    config = APGREConfig(cache=store)
    apgre_bc_detailed(graph, config)
    dr = apgre_bc_delta(graph, edges_added=[(0, 5)], cache=store,
                        config=config)
    stats = dr.result.stats
    assert stats.subgraphs_patched == 0 and stats.edges_unwound == 0
    np.testing.assert_allclose(
        dr.scores, brandes_bc(dr.graph), rtol=1e-9, atol=1e-9
    )


@pytest.mark.parametrize("backend", ["threads", "processes"])
def test_patch_under_an_engine_and_a_journal(tmp_path, backend):
    # workers > 1: the patch runs inline, the rest on the engine; a
    # journaled run commits the patched vector through its sink too
    graph = _graph(13, False)
    store = ContributionStore()
    config = APGREConfig(cache=store, workers=2, backend=backend,
                         journal_dir=str(tmp_path / "j"))
    apgre_bc_detailed(graph, config)
    rng = np.random.default_rng(1)
    patched = 0
    for _ in range(4):
        added, _removed = _step(graph, rng, "insert")
        dr = apgre_bc_delta(graph, edges_added=added, cache=store,
                            config=config)
        stats = dr.result.stats
        patched += stats.subgraphs_patched
        assert dr.result.health.journal_records == (
            stats.subgraphs_recomputed + stats.subgraphs_replayed
        )
        np.testing.assert_allclose(
            dr.scores, brandes_bc(dr.graph), rtol=1e-9, atol=1e-9
        )
        graph = dr.graph
    assert patched > 0


def test_long_chain_drift_stays_bounded():
    # 200 patched deltas in a row: the chained vector stays exact to
    # 1e-9 and drifts from a fresh sweep by far less than that
    graph = _graph(21, False)
    worst = 0.0
    patched = 0
    for _kind, dr, scratch in _chain(graph, {}, steps=200, seed=8):
        patched += dr.result.stats.subgraphs_patched
        ref = scratch.scores
        rel = np.abs(dr.scores - ref) / np.maximum(np.abs(ref), 1.0)
        worst = max(worst, float(rel.max()))
    print(f"worst relative drift over 200 deltas: {worst:.2e}")
    np.testing.assert_allclose(
        dr.scores, brandes_bc(dr.graph), rtol=1e-9, atol=1e-9
    )
    assert patched >= 40
    assert worst < 1e-12


def _block_edit(graph, rng, kind: str):
    """A one-edge ``kind`` ("add" or "remove") inside a biconnected
    block of at least three vertices, as ``(added, removed)``."""
    bcc = biconnected_components(graph)
    blocks = [k for k, verts in enumerate(bcc.component_vertices)
              if verts.size >= 3]
    for _ in range(50):
        k = blocks[int(rng.integers(len(blocks)))]
        if kind == "remove":
            edges = bcc.component_edges[k]
            u, v = (int(x) for x in edges[int(rng.integers(len(edges)))])
            return [], [(u, v)]
        verts = bcc.component_vertices[k]
        u, v = (int(x) for x in rng.choice(verts, 2, replace=False))
        if not graph.has_edge(u, v):
            return [(u, v)], []
    return None


def _one_sided_cases(graph, threshold: int, pendants: bool):
    """Drive eight in-block one-edge deltas through a warmed store;
    return each one-sided patch's largest relative difference from the
    two-sided patch, after checking its tallies."""
    options = {"threshold": threshold, "eliminate_pendants": pendants}
    store = ContributionStore()
    config = APGREConfig(cache=store, **options)
    apgre_bc_detailed(graph, config)
    rng = np.random.default_rng(threshold)

    def sweep(sg, roots, counter=None):
        return bc_subgraph(sg, eliminate_pendants=pendants, roots=roots,
                           batch_size="auto", counter=counter)

    worst = []
    for kind in ["add", "remove"] * 4:
        edit = _block_edit(graph, rng, kind)
        if edit is None:
            continue
        added, removed = edit
        _new, delta = _apply(graph, added, removed)
        dr = apgre_bc_delta(graph, edges_added=added, edges_removed=removed,
                            cache=store, config=config)
        stats = dr.result.stats
        scratch = apgre_bc_detailed(dr.graph, APGREConfig(**options))
        assert (stats.edges_traversed + stats.edges_replayed
                == scratch.stats.edges_traversed)
        np.testing.assert_allclose(
            dr.scores, brandes_bc(dr.graph, batch_size="auto"),
            rtol=1e-9, atol=1e-9,
        )
        graph = dr.graph
        if stats.subgraphs_patched == 0:
            continue
        sg = next(sg for sg in dr.partition.subgraphs
                  if delta.inside(sg.vertices) is not None)
        inside = delta.inside(sg.vertices)
        pred = predecessor(sg, *inside)
        stored = store.get(subgraph_key(pred, eliminate_pendants=pendants))
        patched = store.get(subgraph_key(sg, eliminate_pendants=pendants))
        roots = sg.roots if pendants else np.arange(sg.num_vertices)
        hit, near, _reach = affected_roots(pred.graph, roots, *inside)
        small = min(roots[near], roots[hit & ~near], key=len)
        unwound, full = WorkCounter(), WorkCounter()
        sweep(pred, small, unwound)
        sweep(sg, None, full)
        # it swept one side, and committed the from-scratch tally
        assert stats.edges_unwound == unwound.examined
        assert patched.edges == full.examined
        two = (stored.scores - sweep(pred, roots[hit])
               + sweep(sg, roots[hit]))
        rel = np.abs(patched.scores - two) / np.maximum(np.abs(two), 1.0)
        worst.append(float(rel.max()))
    return worst


@pytest.mark.parametrize("name", UNDIRECTED)
def test_one_sided_patch_matches_two_sided(name):
    # thresholds 0, 2 and 8, pendants on and off: every one-sided
    # patch equals stored - sweep(pred, A) + sweep(new, A) within
    # 1e-12 relative, with exact tallies; on the road analogues most
    # shortcuts move so many DAGs that the sub-graph recomputes
    graph = analogue_graph(name, scale=0.5, seed=1)
    worst = []
    for threshold in (0, 2, 8):
        for pendants in (True, False):
            worst += _one_sided_cases(graph, threshold, pendants)
    print(f"{name}: {len(worst)} one-sided patches, worst "
          f"{max(worst, default=0.0):.1e}")
    assert worst and max(worst) < 1e-12


@pytest.mark.parametrize(
    "graph",
    [
        _graph(31, False),
        _graph(32, True),
        # a hub reached over 200 and over 33000 DAG arcs at once: the
        # count dtype widens from the largest in-degree (int16 at 200,
        # int32 past 32767)
        from_edges([(h, k) for k in range(2, 202) for h in (0, 1)]),
        from_edges([(h, k) for k in range(2, 33002) for h in (0, 1)]),
    ],
    ids=["und", "dir", "hub-200", "hub-33000"],
)
def test_tally_pass_matches_every_kernel_row_by_row(graph):
    # the forward-only pass, in each of its forms, equals the arcs and
    # spmm (sparse and dense) sweeps' and the per-source loop's tally
    part = graph_partition(graph)
    compute_alpha_beta(graph, part)
    top = part.subgraphs[0]
    g, roots = top.graph, top.roots[:40].astype(np.int64)
    loop = []
    for s in roots.tolist():
        counter = WorkCounter()
        bc_subgraph(top, roots=np.asarray([s]), batch_size=None,
                    counter=counter)
        loop.append(counter.examined)
    refs = [np.asarray(loop)]
    rows = np.zeros(roots.size, dtype=np.int64)
    arcs_contributions(g, roots, row_edges=rows)
    refs.append(rows)
    forms = []
    for dense in (False, True):
        ops = batched._spmm_operands_for(g, roots.size, dense)
        widest = int(np.diff(g.in_indptr).max())
        assert np.iinfo(ops.counts().dtype).max >= widest
        rows = np.zeros(roots.size, dtype=np.int64)
        spmm_contributions(g, roots, operands=ops, row_edges=rows)
        refs.append(rows)
        form = batched._dense_tallies if dense else batched._sparse_tallies
        forms.append(form(g, roots, ops))
    for kernel in KERNELS:
        forms.append(batched_tallies(g, roots, kernel=kernel))
    for ref in refs[1:]:
        assert np.array_equal(ref, refs[0])
    for got in forms:
        assert np.array_equal(got, refs[0])


def test_served_delta_reads_memory_once_per_resolution(monkeypatch):
    # a patched delta resolves four batch widths (the sweeps of S on the
    # new and predecessor sub-graphs, the tallies of L on both); each
    # resolution and its kernel's prepare share one read of the RAM
    # ceiling, and a cold run resolves only its top's width
    e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
    monkeypatch.syspath_prepend(str(e2e))
    import workloads

    spec = json.loads((e2e / "spec.json").read_text())
    inputs = workloads.make_inputs(spec["workloads"]["serve-delta"], 1)
    edges = [op.arg for op in inputs.stream if op.kind == "delta"][:5]
    reads = []
    read = batched._read_available_memory

    def counted():
        reads.append(1)
        return read()

    monkeypatch.setattr(batched, "_read_available_memory", counted)
    graph = inputs.graph
    store = ContributionStore()
    config = APGREConfig(cache=store)
    part = graph_partition(graph, threshold=config.threshold)
    compute_alpha_beta(graph, part)
    apgre_bc_detailed(graph, config, partition=part)
    assert len(reads) <= 1
    for edge in edges:
        reads.clear()
        dr = apgre_bc_delta(graph, edges_added=[edge], cache=store,
                            config=config, partition=part)
        assert dr.result.stats.subgraphs_patched == 1, edge
        assert 1 <= len(reads) <= 4, (edge, len(reads))
        graph, part = dr.graph, dr.partition
