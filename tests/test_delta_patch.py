"""Differential tests for the delta patch (``apgre_bc_delta``).

A dirty sub-graph whose predecessor is stored is patched, ``stored −
sweep(pred, A) + sweep(new, A)`` over the affected roots ``A``, instead
of recomputed.  These tests drive seeded chains of deltas through it
(directed and undirected, pendant elimination on and off, both
kernels) and check every step against Brandes, the tally identity
against a from-scratch run, that cross-block edges fall back, that the
predicate is sound root by root, that the predecessor's key is the key
the previous run stored, and how far a long chain drifts.
"""

from __future__ import annotations

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
from repro.decompose.partition import graph_partition
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph

KERNELS = ["arcs", "spmm"]


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
            hit, _reach = affected_roots(pred.graph, sg.roots, *inside)
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
            hit, reach = affected_roots(pred.graph, sg.roots, *inside)
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
    # 2|A| >= |R| falls back to the full recompute: a path's middle
    # edge moves every root's DAG
    n = 12
    cycle = [(v, (v + 1) % n) for v in range(n)]
    graph = from_edges(cycle, n=n, directed=False)
    store = ContributionStore()
    config = APGREConfig(cache=store)
    apgre_bc_detailed(graph, config)
    dr = apgre_bc_delta(graph, edges_added=[(0, 6)], cache=store,
                        config=config)
    stats = dr.result.stats
    assert stats.subgraphs_patched == 0 and stats.edges_unwound == 0
    np.testing.assert_allclose(
        dr.scores, brandes_bc(dr.graph), rtol=1e-9, atol=1e-9
    )


def test_compressed_runs_recompute():
    # compress=True keys plans, not the raw CSR: no patch, still exact
    graph = _graph(5, False)
    store = ContributionStore()
    config = APGREConfig(cache=store, compress=True)
    apgre_bc_detailed(graph, config)
    added, _removed = _step(graph, np.random.default_rng(0), "insert")
    dr = apgre_bc_delta(graph, edges_added=added, cache=store,
                        config=config)
    assert dr.result.stats.subgraphs_patched == 0
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
