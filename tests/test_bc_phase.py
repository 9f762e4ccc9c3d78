"""The APGRE BC phase is one path, whatever wraps it.

Every engine runs the same ``_compute_units`` pass: a plain run, a
cold-cache run and a journaled run agree with Brandes to 1e-9 and
tally exactly the same work, and a warm-cache rerun or a journal
resume accounts for that work as replayed/resumed instead of
traversed.  With one worker the three
first runs execute the identical serial loop, so their scores are
bit-identical.  Besides the ring, two suite analogues run every
engine: their small sub-graphs run as bundles whose members share
articulation points, and each bundled sub-graph still commits, replays
and resumes its own exact tally.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.generators.suite import analogue_graph
from repro.graph.build import from_edges

ENGINES = {
    "serial": {},
    "threads": {"backend": "threads", "workers": 2},
    "processes": {"backend": "processes", "workers": 2},
}


def ring_graph():
    """Four K6 blobs joined into a ring by 3-vertex chains, plus a
    pendant 2-path off each blob: one 36-vertex BCC."""
    edges, n, blobs = [], 0, []
    for _ in range(4):
        edges += [(n + i, n + j) for i in range(6) for j in range(i + 1, 6)]
        blobs.append(n)
        n += 6
    for b, start in enumerate(blobs):
        nxt = blobs[(b + 1) % 4] + 1
        chain = [start] + list(range(n, n + 3)) + [nxt]
        edges += list(zip(chain, chain[1:]))
        n += 3
    for start in blobs:
        edges += [(start + 2, n), (n, n + 1)]
        n += 2
    return from_edges(edges, n=n, directed=False)


@pytest.fixture(scope="module")
def graph():
    return ring_graph()


@pytest.fixture(scope="module")
def reference(graph):
    return brandes_bc(graph)


def work(result) -> int:
    """Every examined arc a run accounts for, however it got it."""
    s = result.stats
    return s.edges_traversed + s.edges_replayed + s.edges_resumed


#: suite analogues whose small sub-graphs bundle (default threshold):
#: WikiTalk is directed, Email-Enron undirected
ANALOGUES = ("WikiTalk", "Email-Enron")


@pytest.fixture(scope="module", params=ANALOGUES)
def analogue(request):
    g = analogue_graph(request.param, scale=0.5)
    return g, brandes_bc(g)


def check_agree(graph, reference, tmp_path, base):
    """Plain, cold-cache and journaled runs agree, and a warm rerun
    and a resume account for the same work as replayed/resumed."""
    store = ContributionStore()
    plain = apgre_bc_detailed(graph, base)
    cold = apgre_bc_detailed(graph, replace(base, cache=store))
    journaled = apgre_bc_detailed(
        graph, replace(base, journal_dir=str(tmp_path))
    )

    traversed = plain.stats.edges_traversed
    assert traversed > 0
    for result in (plain, cold, journaled):
        np.testing.assert_allclose(
            result.scores, reference, rtol=1e-9, atol=1e-9
        )
        assert work(result) == traversed
    if base.workers == 1:
        # the same inline loop in the same LPT order, three times
        assert np.array_equal(cold.scores, plain.scores)
        assert np.array_equal(journaled.scores, plain.scores)

    # the same work again, accounted as replayed or resumed
    warm = apgre_bc_detailed(graph, replace(base, cache=store))
    resumed = apgre_bc_detailed(
        graph, replace(base, journal_dir=str(tmp_path), resume=True)
    )
    assert warm.stats.edges_replayed == traversed
    assert resumed.stats.edges_resumed == traversed
    for result in (warm, resumed):
        assert result.stats.edges_traversed == 0
        assert work(result) == traversed
        np.testing.assert_allclose(
            result.scores, reference, rtol=1e-9, atol=1e-9
        )
    return plain


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_plain_cache_journal_agree(graph, reference, tmp_path, engine):
    check_agree(
        graph, reference, tmp_path,
        APGREConfig(threshold=2, **ENGINES[engine]),
    )


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_plain_cache_journal_agree_bundled(analogue, tmp_path, engine):
    graph, reference = analogue
    plain = check_agree(
        graph, reference, tmp_path, APGREConfig(**ENGINES[engine])
    )
    assert plain.stats.bundles >= 1
    assert plain.stats.subgraphs_bundled > plain.stats.bundles
