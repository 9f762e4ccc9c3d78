"""The decomposition's outputs, pinned byte for byte.

The biconnected-component and SCC passes, the partition and the cache
keys are pure integer combinatorics, so their outputs are fixed for a
given graph on any host.  These digests were taken before the DFS
passes moved from numpy scalar indexing to Python lists; they pin
that a speed-up of the decomposition changes nothing it produces:
component order and contents, articulation flags, SCC labels, every
partition array, and every ``subgraph_key`` (so stores and journals
written earlier still replay).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.cache.fingerprint import subgraph_key
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.articulation import biconnected_components
from repro.decompose.partition import graph_partition
from repro.generators.suite import analogue_graph
from repro.graph.csr import CSRGraph
from repro.graph.ops import to_undirected
from repro.graph.scc import strongly_connected_components

#: (graph, scale) -> digests; the 12 suite analogues at scale 1 and
#: the graphs of the end-to-end benchmark's road-cold, web-cold and
#: serve workloads
PINS = {
    ("Email-Enron", 1.0): {"bcc": "69fecd87747a4ce1", "partition": "9416cbd9536d7f35", "keys": "decc4356cb2f1abf"},
    ("Email-EuAll", 1.0): {"bcc": "a222c9d01f7e1400", "scc": "ba89c02635f6cb21", "partition": "66ec66f0f25dd760", "keys": "8b8e5763bafcb106"},
    ("Slashdot0811", 1.0): {"bcc": "8a59ad2e1b5a49b0", "scc": "1c08d5b247a5c1a3", "partition": "e8a83371e727113c", "keys": "efe3a6b35cd1f6d3"},
    ("soc-DouBan", 1.0): {"bcc": "4486d6a80adf1564", "scc": "14065f0b3966833e", "partition": "f54a3e01ef67b773", "keys": "d39a71922c204d76"},
    ("WikiTalk", 1.0): {"bcc": "6b0d54816791f885", "scc": "704f4989998e9abc", "partition": "d6af452cca277db4", "keys": "9d08fd0afbb19cd5"},
    ("dblp-2010", 1.0): {"bcc": "0d74d527b291a786", "scc": "f1f037ff110ad05b", "partition": "0c5d32f4bbb7b967", "keys": "d56d231f06023b68"},
    ("com-youtube", 1.0): {"bcc": "78663e40e86bcde6", "partition": "e4941cd3340a7c76", "keys": "cfbe8b4292b938c6"},
    ("NotroDame", 1.0): {"bcc": "61e0916de0bf3bb5", "scc": "9ce176464ebb01cc", "partition": "8fad735efc32ec26", "keys": "b71513afaf2c0394"},
    ("web-BerkStan", 1.0): {"bcc": "6970ad5521d159db", "scc": "12ff453ca4ef057f", "partition": "ece3e0597727a9fc", "keys": "b48d67d8d7037bde"},
    ("web-Google", 1.0): {"bcc": "5d2c8dc4f21160fb", "scc": "f90d2508c5a290cc", "partition": "7ed1b30accf9eca2", "keys": "1d2548b1600aabaf"},
    ("USA-roadNY", 1.0): {"bcc": "0e77026d3fd13069", "partition": "25bac4014ef0ad16", "keys": "77aebc8448417cf5"},
    ("USA-roadBAY", 1.0): {"bcc": "9e828c4430e53e93", "partition": "ba79cc2fe1313209", "keys": "7c32bfcd87a1fe39"},
    ("USA-roadBAY", 2.0): {"bcc": "48d6c650fa32e789", "partition": "cabd6f9703907dc2", "keys": "c95cea2a15619071"},
    ("WikiTalk", 6.0): {"bcc": "7142efada7094626", "scc": "bfa3c7486763c311", "partition": "f57a648cf41719d7", "keys": "544d5d75d285a32c"},
    ("Email-Enron", 2.0): {"bcc": "556eddfc1463a280", "partition": "1f7041e77f6b99dd", "keys": "ad4320e006215b1d"},
}


#: the end-to-end graphs, loaded as the benchmark loads them
E2E = {("USA-roadBAY", 2.0), ("WikiTalk", 6.0), ("Email-Enron", 2.0)}


def _graph(name: str, scale: float) -> CSRGraph:
    """The analogue at seed 1; an end-to-end graph drops its isolated
    vertices and renumbers the rest in order, as its edge list does."""
    g = analogue_graph(name, scale=scale, seed=1)
    if (name, scale) not in E2E:
        return g
    src, dst = g.arcs()
    used = np.unique(np.concatenate([src, dst]))
    if used.size < g.n:
        g = CSRGraph.from_arcs(
            used.size, np.searchsorted(used, src), np.searchsorted(used, dst),
            directed=g.directed,
        )
    return g


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=8)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _digests(g: CSRGraph) -> dict:
    bcc = biconnected_components(to_undirected(g))
    out = {"bcc": _digest(
        *bcc.component_edges, *bcc.component_vertices,
        bcc.articulation_flags, bcc.isolated_vertices,
    )}
    if g.directed:
        scc = strongly_connected_components(g)
        out["scc"] = _digest(scc.labels, np.asarray([scc.num_components]))
    part = graph_partition(g)
    compute_alpha_beta(g, part)
    arrays = [part.articulation_flags, part.boundary_art_flags]
    for sg in part.subgraphs:
        arrays += [
            sg.vertices, sg.graph.out_indptr, sg.graph.out_indices,
            sg.graph.in_indptr, sg.graph.in_indices, sg.is_boundary_art,
            sg.roots, sg.gamma, sg.removed, sg.alpha, sg.beta,
        ]
    out["partition"] = _digest(*arrays)
    keys = "".join(
        subgraph_key(sg, eliminate_pendants=ep)
        for ep in (True, False) for sg in part.subgraphs
    )
    out["keys"] = hashlib.blake2b(keys.encode(), digest_size=8).hexdigest()
    return out


@pytest.mark.parametrize(
    "name,scale", list(PINS), ids=[f"{n}@{s:g}" for n, s in PINS]
)
def test_decomposition_matches_pins(name, scale):
    assert _digests(_graph(name, scale)) == PINS[(name, scale)]
