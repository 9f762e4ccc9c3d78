"""Result types for instrumented APGRE runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.parallel.supervisor import RunHealth

__all__ = [
    "PhaseTimings",
    "APGREStats",
    "BCResult",
    "normalize_scores",
    "to_networkx_convention",
]


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Rescale raw ordered-pair BC scores to [0, 1].

    The raw convention in this package sums ``σ_st(v)/σ_st`` over all
    ordered pairs ``s ≠ v ≠ t`` (the paper's definition), whose count
    is ``(n-1)(n-2)`` — the standard normaliser for both directed and
    undirected graphs (networkx's undirected normalisation, half the
    pairs over halved scores, cancels to the same value).
    """
    n = scores.size
    pairs = (n - 1) * (n - 2)
    if pairs <= 0:
        return scores.astype(np.float64, copy=True)
    return scores / pairs


def to_networkx_convention(
    scores: np.ndarray, *, directed: bool
) -> np.ndarray:
    """Convert raw scores to networkx's unnormalised convention.

    networkx counts each unordered pair once on undirected graphs, so
    undirected scores are halved; directed scores pass through.
    """
    if directed:
        return scores.astype(np.float64, copy=True)
    return scores / 2.0


@dataclass
class PhaseTimings:
    """Wall-clock seconds per APGRE phase (paper Figure 8).

    ``top_bc`` vs ``rest_bc`` splits the third phase between the top
    sub-graph and all others — the quantity Figure 8 plots ("the BC
    calculation of the top sub-graph is the majority of the total
    execution time"). ``top_bc`` is the time the serial loop spends on
    the top sub-graph's units; ``rest_bc`` is the rest of the phase,
    so an engine run (``workers > 1``) reports the whole phase there.
    """

    partition: float = 0.0
    alpha_beta: float = 0.0
    top_bc: float = 0.0
    rest_bc: float = 0.0

    @property
    def total(self) -> float:
        return self.partition + self.alpha_beta + self.top_bc + self.rest_bc

    def fractions(self) -> Dict[str, float]:
        """Phase shares of total time (empty-total guard included)."""
        t = self.total or 1.0
        return {
            "partition": self.partition / t,
            "alpha_beta": self.alpha_beta / t,
            "top_bc": self.top_bc / t,
            "rest_bc": self.rest_bc / t,
        }


@dataclass
class APGREStats:
    """Counters describing one APGRE run.

    ``edges_traversed`` counts edges the run actually examined;
    ``edges_replayed`` counts the examined-edge tallies of cached
    sub-graph contributions that were *replayed* instead of
    recomputed (cache-enabled runs only — docs/CACHING.md).  The two
    are never mixed: TEPS over ``edges_traversed`` stays an honest
    hardware rate, and ``edges_replayed`` quantifies the work the
    cache eliminated.

    ``edges_resumed`` / ``subgraphs_resumed`` are the journal's
    analogue (``resume=True`` runs only — docs/ROBUSTNESS.md): the
    examined-edge tallies and count of sub-graph contributions
    *replayed from the run journal* instead of recomputed.  Like
    ``edges_replayed`` they never feed TEPS, and the identity
    ``edges_resumed + edges_replayed + edges_traversed`` equals the
    from-scratch ``edges_traversed`` of an identical unjournaled run.

    ``vertices_merged`` / ``chains_contracted`` / ``vertices_peeled``
    tally the structural compression (``compress=True`` runs only;
    docs/COMPRESSION.md): twin-class members collapsed into their
    representatives, chain interiors contracted into super-edges, and
    pendants folded into endpoint mass.  ``compression_ratio`` is
    ``Σ n / Σ n_core`` over all sub-graphs (1.0 when compression is
    off or nothing fired).  Like ``edges_replayed``, these never feed
    TEPS — they describe work *avoided*, not performed.

    ``subgraphs_patched`` counts the sub-graphs an edge delta touched
    that were *patched* from their stored predecessor instead of
    recomputed in full (``apgre_bc_delta`` only — docs/CACHING.md);
    they are part of ``subgraphs_recomputed``.  A patched sub-graph's
    exact tally splits into the affected roots' sweep on the new
    sub-graph (``edges_traversed``) and the rest (``edges_replayed``),
    so the identity above still holds; the affected roots' sweep on
    the predecessor, which the patch subtracts, is ``edges_unwound``:
    real work, outside the identity and TEPS.

    ``partition_derived`` says the partition was derived from the
    pre-delta graph's (``apgre_bc_delta(..., partition=)`` only —
    docs/CACHING.md §3.2) instead of re-partitioned;
    ``timings.partition`` then times the derivation.

    ``bundles`` / ``subgraphs_bundled`` describe the BC phase's
    coarse-grained level: how many block-diagonal bundle sweeps ran and
    how many of the sub-graphs this run computed they held between
    them (small non-top sub-graphs whose roots fit one batch together
    — docs/ALGORITHM.md §7).  Bundled sub-graphs still replay, resume
    and tally one by one.
    """

    num_subgraphs: int = 0
    num_articulation_points: int = 0
    num_boundary_arts: int = 0
    num_removed_pendants: int = 0
    num_sources: int = 0
    edges_traversed: int = 0
    edges_replayed: int = 0
    edges_resumed: int = 0
    edges_unwound: int = 0
    subgraphs_replayed: int = 0
    subgraphs_resumed: int = 0
    subgraphs_recomputed: int = 0
    subgraphs_patched: int = 0
    subgraphs_bundled: int = 0
    bundles: int = 0
    partition_derived: bool = False
    alpha_beta_pairs: int = 0
    alpha_beta_method: str = ""
    vertices_merged: int = 0
    chains_contracted: int = 0
    vertices_peeled: int = 0
    compression_ratio: float = 1.0
    timings: PhaseTimings = field(default_factory=PhaseTimings)


@dataclass
class BCResult:
    """Scores plus run statistics.

    ``scores[v]`` is the exact unnormalised BC of vertex ``v`` (same
    convention as every baseline in :mod:`repro.baselines`).

    ``health`` is the supervision report of an engine run
    (``workers > 1``: retries, worker crashes, timeouts, serial
    fallbacks — see :class:`repro.parallel.supervisor.RunHealth`) or a
    journaled run; ``None`` for an unjournaled serial run, which has no
    pool to supervise. Check ``health.degraded`` to detect a run that
    needed any fallback.
    """

    scores: np.ndarray
    stats: APGREStats
    health: Optional["RunHealth"] = None

    def top_k(self, k: int) -> np.ndarray:
        """Vertex ids of the ``k`` highest-BC vertices, best first."""
        k = min(k, self.scores.size)
        idx = np.argpartition(-self.scores, np.arange(k))[:k]
        return idx.astype(np.int64)
