"""Stable content fingerprints for graphs and sub-graph contributions.

A cache entry is valid iff the sub-graph's edges *and* the cross-
articulation summaries feeding it are byte-identical, so the key hashes
exactly the inputs :func:`repro.core.bc_subgraph.bc_subgraph` reads:

* the sub-graph's local CSR arrays and directedness;
* the root set ``R_sgi`` and pendant multiplicities ``γ_sgi``;
* the boundary mask ``A_sgi`` and the ``α_sgi``/``β_sgi`` summaries;
* the ``eliminate_pendants`` switch (it changes the source set).

Global vertex ids are deliberately **excluded**: local coordinates are
assigned deterministically (sorted global ids → ``arange``), and the
local score vector of two sub-graphs that agree on everything above is
identical regardless of where they sit in the host graph.  Structurally
repeated components (bridge chains, identical satellites) therefore
share one entry — content addressing, not location addressing.

Hashes are BLAKE2b-128 over dtype/shape/bytes of each array, with
domain separation between fields; arrays are made C-contiguous before
hashing (CSR arrays already are).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["array_digest", "graph_fingerprint", "subgraph_key"]

#: bytes of BLAKE2b digest — 128 bits, collision-safe at any realistic
#: cache population and half the key-string length of sha256
_DIGEST_SIZE = 16


@functools.lru_cache(maxsize=None)
def _dtype_name(dtype: np.dtype) -> bytes:
    """``str(dtype)``, encoded and memoized: the conversion costs a few
    µs, and every array a key hashes pays it."""
    return str(dtype).encode()


def _feed(h, label: str, arr: np.ndarray) -> None:
    """Hash one array with a field label for domain separation."""
    arr = np.ascontiguousarray(arr)
    h.update(label.encode())
    h.update(_dtype_name(arr.dtype))
    h.update(str(arr.shape).encode())
    h.update(arr.tobytes())


def array_digest(arr: np.ndarray) -> str:
    """Hex digest of one array's dtype, shape and bytes."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    _feed(h, "array", arr)
    return h.hexdigest()


def graph_fingerprint(graph: CSRGraph) -> str:
    """Canonical hex fingerprint of a CSR graph's structure.

    Two graphs fingerprint equal iff they have the same vertex count,
    directedness and byte-identical CSR arrays (the reverse CSR is
    derived from the forward one, so hashing the forward arrays
    suffices for both orientations).
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"csr-graph")
    h.update(str(int(graph.n)).encode())
    h.update(b"d" if graph.directed else b"u")
    _feed(h, "indptr", graph.out_indptr)
    _feed(h, "indices", graph.out_indices)
    return h.hexdigest()


def subgraph_key(
    sg, *, eliminate_pendants: bool = True, compress: bool = False
) -> str:
    """Cache key of one sub-graph's local contribution vector.

    ``sg`` is a :class:`repro.decompose.partition.Subgraph` whose
    ``alpha``/``beta`` arrays are already filled (the key *must* see
    the summaries — a sub-graph with unchanged edges but a changed α
    on a boundary articulation point produces different scores).

    With ``compress=True`` the key of a sub-graph whose compression
    plan is non-trivial hashes the *plan* — the compressed local CSR
    with its super-edge lengths plus the per-vertex elimination record
    — instead of the raw CSR, under a separate domain prefix.  The
    plan is a deterministic function of the sub-graph, so twin-heavy
    identical components keep sharing one entry; sub-graphs where no
    rule fires fall back to the uncompressed key, because they run
    the plain kernels and their entries stay interchangeable with
    uncompressed runs.
    """
    if compress:
        from repro.compress import compression_plan

        plan = compression_plan(sg, eliminate_pendants=eliminate_pendants)
        if plan.nontrivial:
            return _compressed_key(sg, plan, eliminate_pendants)
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"bc-contribution-v1")
    h.update(b"ep" if eliminate_pendants else b"all")
    h.update(graph_fingerprint(sg.graph).encode())
    _feed(h, "roots", sg.roots)
    _feed(h, "gamma", sg.gamma)
    _feed(h, "boundary", sg.is_boundary_art)
    _feed(h, "alpha", sg.alpha)
    _feed(h, "beta", sg.beta)
    return h.hexdigest()


def _compressed_key(sg, plan, eliminate_pendants: bool) -> str:
    """Key a non-trivial plan: compressed CSR + inversion record.

    Everything the compressed kernel reads goes in: the core CSR and
    arc lengths, the per-vertex status/rep/mult/pfold arrays (they
    invert the merge), the chain records (interior ids decide where
    flow credit lands) and twin-class kinds, plus the same root/γ/
    boundary/α/β summaries as the base key.  All arrays are in local
    id space, so two identically-shaped components hash equal wherever
    they sit in the host graph.
    """
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    h.update(b"bc-contribution-compressed-v1")
    h.update(b"ep" if eliminate_pendants else b"all")
    h.update(graph_fingerprint(plan.core_graph).encode())
    _feed(h, "lengths", plan.arc_lengths)
    _feed(h, "status", plan.status)
    _feed(h, "rep", plan.rep)
    _feed(h, "mult", plan.mult)
    _feed(h, "pfold", plan.pfold)
    for ch in plan.chains:
        h.update(f"chain:{ch.u}:{ch.v}".encode())
        _feed(h, "interiors", ch.interiors)
    for tc in plan.twin_classes:
        h.update(f"class:{tc.rep}:{tc.kind}".encode())
    _feed(h, "roots", sg.roots)
    _feed(h, "gamma", sg.gamma)
    _feed(h, "boundary", sg.is_boundary_art)
    _feed(h, "alpha", sg.alpha)
    _feed(h, "beta", sg.beta)
    return h.hexdigest()
