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


def subgraph_key(sg, *, eliminate_pendants: bool = True) -> str:
    """Cache key of one sub-graph's local contribution vector.

    ``sg`` is a :class:`repro.decompose.partition.Subgraph` whose
    ``alpha``/``beta`` arrays are already filled (the key *must* see
    the summaries — a sub-graph with unchanged edges but a changed α
    on a boundary articulation point produces different scores).
    """
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
