"""Derived partitions (``derive_partition``) against re-partitioning.

An edge added inside one block leaves the block-cut tree and Algorithm
1's walk alone, so a delta run given the pre-delta partition derives
the new graph's partition from it instead of re-partitioning.  These
tests drive seeded chains of in-block deltas (directed and undirected,
thresholds 0, 2 and 8) and require every derived partition to equal
``graph_partition`` on the new graph array for array and key for key.
They check that each case the derivation cannot make exact falls back
to ``graph_partition``, that the predecessor partition is never
modified, that chained delta runs stay exact, and that the end-to-end
serve-delta stream derives on every delta.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.cache.fingerprint import subgraph_key
from repro.cache.incremental import _apply, apgre_bc_delta
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import (
    Partition,
    derive_partition,
    graph_partition,
)
from repro.generators.suite import SUITE_SPECS, analogue_graph
from repro.graph.build import from_edges
from repro.graph.csr import CSRGraph
from tests.conftest import zoo
from tests.test_decompose_pins import _graph as e2e_graph
from tests.test_delta_patch import _graph as patch_graph
from tests.test_delta_patch import _step as patch_step

THRESHOLDS = [0, 2, 8]
STEPS = 30
E2E_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
_ZOO = zoo()


def _filled(graph: CSRGraph, threshold: int = 8) -> Partition:
    """``graph_partition`` with α/β filled, as a run makes it."""
    part = graph_partition(graph, threshold=threshold)
    compute_alpha_beta(graph, part)
    return part


def _reference(graph: CSRGraph, threshold: int) -> Partition:
    """What a derived partition must equal: ``graph_partition``, α/β
    filled on an undirected graph, where the derivation carries them
    over; on a directed one it leaves α/β zero, as ``graph_partition``
    does, for ``compute_alpha_beta`` (a function of the arrays
    compared) to fill."""
    if graph.directed:
        return graph_partition(graph, threshold=threshold)
    return _filled(graph, threshold)


def _arrays(part: Partition) -> list:
    out = [part.articulation_flags, part.boundary_art_flags]
    for sg in part.subgraphs:
        g = sg.graph
        out += [
            np.asarray([sg.index]), sg.vertices, g.out_indptr, g.out_indices,
            g.in_indptr, g.in_indices, sg.is_boundary_art, sg.roots,
            sg.gamma, sg.removed, sg.alpha, sg.beta,
        ]
    return out


def assert_identical(got: Partition, want: Partition) -> None:
    """Array for array (dtype, shape, bytes) and key for key."""
    assert got.threshold == want.threshold
    a, b = _arrays(got), _arrays(want)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.dtype == y.dtype and x.shape == y.shape
        assert x.tobytes() == y.tobytes()
    assert [subgraph_key(sg) for sg in got.subgraphs] == [
        subgraph_key(sg) for sg in want.subgraphs
    ]


def _blocks(part: Partition) -> list:
    """Each block's vertices, read off the partition's walk."""
    walk = part.walk
    verts = np.repeat(np.arange(walk.vertex_ptr.size - 1),
                      np.diff(walk.vertex_ptr))
    order = np.argsort(walk.vertex_blocks, kind="stable")
    bounds = np.searchsorted(walk.vertex_blocks[order],
                             np.arange(walk.edges.size + 1))
    return [verts[order[lo:hi]] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _step(graph: CSRGraph, part: Partition, rng):
    """One in-block delta ``(added, removed)``, or None if none drawn.

    Undirected: an absent pair inside a block (the largest one half the
    time).  Directed, also: an arc added or removed where its reverse
    arc exists, which leaves the undirected shadow alone.
    """
    kinds = ["add", "flip_add", "flip_remove"] if graph.directed else ["add"]
    kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "add":
        blocks = [b for b in _blocks(part) if b.size >= 3]
        if not blocks:
            return None
        largest = max(blocks, key=len)
        for _ in range(20):
            verts = (largest if rng.random() < 0.5
                     else blocks[int(rng.integers(len(blocks)))])
            u, v = (int(x) for x in rng.choice(verts, 2, replace=False))
            if not (graph.has_edge(u, v) or graph.has_edge(v, u)):
                return [(u, v)], []
        return None
    src, dst = graph.arcs()
    mutual = graph.has_arcs(dst, src)
    pick = np.flatnonzero(mutual if kind == "flip_remove" else ~mutual)
    if pick.size == 0:
        return None
    k = int(rng.choice(pick))
    u, v = int(src[k]), int(dst[k])
    return ([], [(u, v)]) if kind == "flip_remove" else ([(v, u)], [])


def _chain(graph: CSRGraph, threshold: int, seed: int = 1):
    """Up to ``STEPS`` in-block deltas, each derived partition checked
    against ``graph_partition``; the chain derives from derived
    partitions.  Returns ``(deltas, derived)``."""
    rng = np.random.default_rng(seed)
    part = _reference(graph, threshold)
    taken = derived = 0
    for _ in range(3 * STEPS):
        if taken == STEPS:
            break
        step = _step(graph, part, rng)
        if step is None:
            continue
        taken += 1
        new, delta = _apply(graph, *step)
        got = derive_partition(part, new, delta)
        want = _reference(new, threshold)
        if got is not None:
            assert_identical(got, want)
            derived += 1
        graph, part = new, (want if got is None else got)
    return taken, derived


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("entry", _ZOO, ids=[name for name, _g, _x in _ZOO])
def test_zoo_chains_derive_identically(entry, threshold):
    taken, derived = _chain(entry[1], threshold)
    assert derived > 0 or taken == 0


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("name", sorted(SUITE_SPECS))
def test_suite_chains_derive_identically(name, threshold):
    taken, derived = _chain(analogue_graph(name, scale=0.5, seed=1),
                            threshold)
    assert taken == STEPS and derived > 0


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize(
    "name,scale",
    [("USA-roadBAY", 2.0), ("WikiTalk", 6.0), ("Email-Enron", 2.0)],
    ids=["road-cold", "web-cold", "serve"],
)
def test_e2e_chains_derive_identically(name, scale, threshold):
    taken, derived = _chain(e2e_graph(name, scale), threshold)
    assert taken == STEPS and derived > 0


def test_apply_edits_the_csr_byte_identically():
    # the edited graph equals a rebuild from the edited edge set
    for _name, g, _x in _ZOO:
        rng = np.random.default_rng(g.n)
        src, dst = g.arcs()
        if src.size == 0:
            continue
        k = int(rng.integers(src.size))
        u, v = (int(x) for x in rng.integers(0, g.n, 2))
        add = [(u, v)] if u != v else []
        new, _delta = _apply(g, add, [(int(src[k]), int(dst[k]))])
        s2, d2 = new.arcs()
        ref = CSRGraph.from_arcs(g.n, s2, d2, directed=g.directed)
        for x, y in [(new.out_indptr, ref.out_indptr),
                     (new.out_indices, ref.out_indices),
                     (new.in_indptr, ref.in_indptr),
                     (new.in_indices, ref.in_indices)]:
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


# ----------------------------------------------------------------------
# fallbacks
# ----------------------------------------------------------------------
def _falls_back(graph, added=(), removed=(), threshold=8):
    """The derivation declines and the delta run re-partitions: its
    partition is exactly ``graph_partition(new)``'s."""
    prev = _filled(graph, threshold)
    new, delta = _apply(graph, list(added), list(removed))
    assert derive_partition(prev, new, delta) is None
    dr = apgre_bc_delta(
        graph, list(added), list(removed), cache=ContributionStore(),
        config=APGREConfig(threshold=threshold), partition=prev,
    )
    assert dr.result.stats.partition_derived is False
    assert_identical(dr.partition, _filled(new, threshold))
    np.testing.assert_allclose(dr.scores, brandes_bc(new),
                               rtol=1e-9, atol=1e-9)
    return prev, dr.partition


def _barbell() -> CSRGraph:
    """Two K4s joined by the bridge path 3-4-5."""
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return from_edges(
        k4 + [(a + 5, b + 5) for a, b in k4] + [(3, 4), (4, 5)], n=9
    )


def test_cross_block_add_falls_back():
    _falls_back(_barbell(), added=[(0, 8)])


def test_bridge_removal_falls_back():
    _falls_back(_barbell(), removed=[(3, 4)])


def test_block_split_falls_back():
    # a 6-cycle with the chord 0-3: removing a cycle edge splits it
    cycle = [(v, (v + 1) % 6) for v in range(6)]
    _falls_back(from_edges(cycle + [(0, 3)], n=6), removed=[(1, 2)])


def test_isolated_endpoint_falls_back():
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    _falls_back(from_edges(k4 + [(3, 4), (4, 5)], n=7), added=[(0, 6)])


@pytest.mark.parametrize("chords", [[(4, 6)], [(4, 6), (5, 7)]],
                         ids=["ties", "overtakes"])
def test_block_reaching_its_top_falls_back(chords):
    # the top K4 (6 edges) and a 5-cycle at cut vertex 3; chords
    # between non-cut vertices bring the cycle to 6 or 7 edges
    k4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    cycle = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    _falls_back(from_edges(k4 + cycle, n=8), added=chords)


@pytest.mark.parametrize("threshold", [0, 2])
def test_cut_vertex_endpoint_falls_back(threshold):
    # K5 on 0-4 is the top; cut vertex 4 heads the pendant bridge 4-7
    # and the 4-cycle 4-8-5-9.  The chord 4-5 gives 4 a neighbour in
    # the cycle below 7, so the cycle now precedes the bridge among
    # 4's blocks: the walk reaches the bridge from the cycle instead
    # of from the top, and the bridge becomes a sub-graph of its own
    # instead of merging into the top.
    k5 = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    cycle = [(4, 8), (8, 5), (5, 9), (9, 4)]
    prev, new = _falls_back(from_edges(k5 + [(4, 7)] + cycle, n=10),
                            added=[(4, 5)], threshold=threshold)
    assert len(new.subgraphs) == len(prev.subgraphs) + 1


# ----------------------------------------------------------------------
# the predecessor, chained runs, the end-to-end stream
# ----------------------------------------------------------------------
def _digest(part: Partition) -> str:
    h = hashlib.blake2b(digest_size=16)
    walk = part.walk
    for a in _arrays(part) + [getattr(walk, f) for f in (
        "vertex_ptr", "vertex_blocks", "edges", "group", "top", "order"
    )]:
        h.update(str(a.dtype).encode() + a.tobytes())
    return h.hexdigest()


def test_predecessor_is_never_modified():
    graph = patch_graph(3, True)
    rng = np.random.default_rng(5)
    part = _filled(graph)
    store = ContributionStore()
    config = APGREConfig(cache=store)
    apgre_bc_detailed(graph, config, partition=part)
    derived = 0
    for _ in range(6):
        added, removed = _step(graph, part, rng) or ([], [])
        before = _digest(part)
        dr = apgre_bc_delta(graph, added, removed, cache=store,
                            config=config, partition=part)
        assert _digest(part) == before
        derived += dr.result.stats.partition_derived
        graph, part = dr.graph, dr.partition
    assert derived > 0


@pytest.mark.parametrize("directed", [False, True], ids=["und", "dir"])
def test_chained_delta_runs_stay_exact(directed):
    # mixed deltas (in-block adds and removals, cross-block adds), each
    # run deriving from the last run's partition where it can
    graph = patch_graph(7 + directed, directed)
    rng = np.random.default_rng(3)
    store = ContributionStore()
    config = APGREConfig(cache=store)
    part = _filled(graph)
    apgre_bc_detailed(graph, config, partition=part)
    derived = steps = 0
    while steps < 30:
        kind = str(rng.choice(["insert", "remove", "cross"],
                              p=[0.6, 0.3, 0.1]))
        delta = patch_step(graph, rng, kind)
        if delta is None:
            continue
        dr = apgre_bc_delta(graph, *delta, cache=store, config=config,
                            partition=part)
        stats = dr.result.stats
        scratch = apgre_bc_detailed(dr.graph, APGREConfig())
        np.testing.assert_allclose(dr.scores, brandes_bc(dr.graph),
                                   rtol=1e-9, atol=1e-9)
        assert (stats.edges_traversed + stats.edges_replayed
                == scratch.stats.edges_traversed)
        derived += stats.partition_derived
        graph, part = dr.graph, dr.partition
        steps += 1
    assert derived > 0


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_e2e_serve_delta_stream_derives(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(E2E_DIR))
    import workloads

    spec = json.loads((E2E_DIR / "spec.json").read_text())
    inputs = workloads.make_inputs(spec["workloads"]["serve-delta"], seed)
    edges = [op.arg for op in inputs.stream if op.kind == "delta"][:20]
    assert len(edges) == 20
    graph = inputs.graph
    part = _filled(graph)
    for edge in edges:
        new, delta = _apply(graph, [edge])
        got = derive_partition(part, new, delta)
        assert got is not None, edge
        graph, part = new, got
    assert_identical(part, _filled(graph))
