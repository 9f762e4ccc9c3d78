"""Contribution-cache bench: cold vs warm vs k-edge incremental delta.

Three measurements per workload, all through the BCC-scoped
contribution cache (:mod:`repro.cache`, docs/CACHING.md):

``cold``
    APGRE with an empty :class:`~repro.cache.ContributionStore` — every
    sub-graph contribution is computed and admitted.
``warm``
    The identical run against the now-populated store. Every sub-graph
    fingerprint hits, so the run replays stored score vectors and
    traverses **zero** edges; the exact-tally guard asserts
    ``edges_replayed == cold.edges_traversed``.
``delta``
    ``apgre_bc_delta`` after adding ``K_DELTA`` (<= 8) new edges inside
    one non-top sub-graph. Only that sub-graph's fingerprint changes,
    so the incremental front-end recomputes one dirty BCC and replays
    the rest — asserted through the edge-tally identity
    ``delta.traversed + delta.replayed == from_scratch.traversed`` and
    scores matching a from-scratch run on the new graph to 1e-9.

The committed ``BENCH_cache.json`` records all three on the two
workloads below; ``check_rows`` holds future runs to warm >= 5x cold
(the PR's acceptance bar — replay skips the whole BC phase, so the
measured ratios are far above it) and to no worse than half the
committed baseline ratios.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.persistence import environment_provenance
from repro.bench.workloads import get_graph
from repro.cache import ContributionStore, apgre_bc_delta
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.decompose.partition import graph_partition

pytestmark = pytest.mark.benchmarks

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_cache.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCHEMA_VERSION = 1  # of this payload; bumped when row keys change

#: (suite graph, scale) — one bridge-heavy road graph where BC work
#: dwarfs preprocessing, one social graph with many merged blocks.
WORKLOADS = [
    ("USA-roadBAY", 2.0),
    ("Email-Enron", 2.0),
]
QUICK_WORKLOADS = [
    ("USA-roadBAY", 1.0),
]
SEED = 7
K_DELTA = 6  # acceptance bar says k <= 8
WARM_REPEAT = 2  # warm replay is idempotent: best-of absorbs noise


def _localized_added_edges(graph, k, seed=SEED):
    """``k`` new edges between vertices of one non-top sub-graph.

    Adding edges inside a single sub-graph leaves every other
    sub-graph's local structure and cross-articulation summaries
    byte-identical, so the delta dirties exactly one cache key — the
    scenario the incremental engine exists for. Returns the edges and
    the host sub-graph's vertex count (reported in the row).
    """
    partition = graph_partition(graph)
    host = max(partition.subgraphs[1:], key=lambda s: s.num_vertices)
    verts = np.asarray(host.vertices)
    u = np.repeat(np.arange(graph.n), np.diff(graph.out_indptr))
    existing = set(zip(u.tolist(), graph.out_indices.tolist()))
    rng = np.random.default_rng(seed)
    chosen = []
    seen = set()
    while len(chosen) < k:
        a, b = (int(x) for x in rng.choice(verts, 2, replace=False))
        key = (min(a, b), max(a, b))
        if a == b or (a, b) in existing or key in seen:
            continue
        seen.add(key)
        chosen.append((a, b))
    return np.asarray(chosen, dtype=np.int64), host.num_vertices


def measure_workload(name, scale):
    """Cold/warm/delta measurement row for one suite graph."""
    graph = get_graph(name, scale=scale)
    store = ContributionStore()
    config = APGREConfig(cache=store)

    t0 = time.perf_counter()
    cold = apgre_bc_detailed(graph, config)
    t_cold = time.perf_counter() - t0

    t_warm = None
    for _ in range(WARM_REPEAT):
        t0 = time.perf_counter()
        warm = apgre_bc_detailed(graph, config)
        elapsed = time.perf_counter() - t0
        t_warm = elapsed if t_warm is None else min(t_warm, elapsed)
    np.testing.assert_allclose(warm.scores, cold.scores, rtol=1e-9, atol=1e-9)
    assert warm.stats.edges_traversed == 0, (
        f"{name}: warm rerun traversed {warm.stats.edges_traversed} edges"
    )
    assert warm.stats.edges_replayed == cold.stats.edges_traversed, (
        f"{name}: warm replay tally {warm.stats.edges_replayed} != cold "
        f"traversal {cold.stats.edges_traversed}"
    )

    added, host_n = _localized_added_edges(graph, K_DELTA)
    t0 = time.perf_counter()
    delta = apgre_bc_delta(graph, edges_added=added, cache=store, config=config)
    t_delta = time.perf_counter() - t0
    scratch = apgre_bc_detailed(
        delta.graph, APGREConfig(cache=ContributionStore())
    )
    np.testing.assert_allclose(
        delta.scores, scratch.scores, rtol=1e-9, atol=1e-9
    )
    ds = delta.result.stats
    assert (
        ds.edges_traversed + ds.edges_replayed
        == scratch.stats.edges_traversed
    ), (
        f"{name}: delta tallies {ds.edges_traversed}+{ds.edges_replayed} "
        f"!= from-scratch {scratch.stats.edges_traversed}"
    )
    assert ds.subgraphs_recomputed < ds.num_subgraphs, (
        f"{name}: delta recomputed every sub-graph — nothing was replayed"
    )

    return {
        "graph": name,
        "scale": scale,
        "n": graph.n,
        "m": graph.num_arcs,
        "subgraphs": cold.stats.num_subgraphs,
        "cold_seconds": round(t_cold, 4),
        "warm_seconds": round(t_warm, 4),
        "warm_speedup": round(t_cold / t_warm, 2),
        "edges_traversed_cold": cold.stats.edges_traversed,
        "edges_replayed_warm": warm.stats.edges_replayed,
        "delta_edges_added": int(len(added)),
        "delta_host_subgraph_vertices": host_n,
        "delta_seconds": round(t_delta, 4),
        "delta_speedup_vs_scratch": round(t_cold / t_delta, 2),
        "delta_subgraphs_recomputed": ds.subgraphs_recomputed,
        "delta_subgraphs_replayed": ds.subgraphs_replayed,
        "delta_edges_traversed": ds.edges_traversed,
        "delta_edges_replayed": ds.edges_replayed,
        "cache": store.summary_dict(),
    }


def run_bench(quick=False, out_path=None):
    """Measure every workload; returns (payload, path written or None).

    A quick run writes only to an explicit ``out_path``, so it never
    rewrites the committed ``results/`` file.
    """
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    rows = [measure_workload(*w) for w in workloads]
    payload = {
        "bench": "bench_cache_incremental",
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "k_delta": K_DELTA,
        "quick": quick,
        "environment": environment_provenance(),
        "workloads": rows,
    }
    if out_path is None and not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / "bench_cache_incremental.json"
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, out_path


def check_rows(rows, *, quick=False):
    """Perf guards (the correctness guards run inside measure)."""
    for row in rows:
        assert row["warm_speedup"] >= 5.0, (
            f"{row['graph']}: warm rerun only {row['warm_speedup']}x "
            f"faster than cold (acceptance bar is 5x)"
        )
        assert row["delta_subgraphs_recomputed"] < row["subgraphs"], (
            f"{row['graph']}: localized delta dirtied every sub-graph"
        )
    if quick or not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    base_rows = {r["graph"]: r for r in baseline["workloads"]}
    for row in rows:
        base = base_rows.get(row["graph"])
        if base is None:
            continue
        assert row["warm_speedup"] >= 0.5 * base["warm_speedup"], (
            f"{row['graph']}: warm speedup {row['warm_speedup']}x fell to "
            f"less than half the committed {base['warm_speedup']}x"
        )


def test_cache_incremental_smoke(results_dir):
    payload, _ = run_bench(quick=False)
    print(json.dumps(payload, indent=2))
    check_rows(payload["workloads"], quick=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="one small graph — the CI smoke configuration",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/ on a full run; a "
        "--quick run writes only to an explicit --out)",
    )
    args = parser.parse_args(argv)
    payload, out_path = run_bench(quick=args.quick, out_path=args.out)
    print(json.dumps(payload, indent=2))
    check_rows(payload["workloads"], quick=args.quick)
    if out_path is not None:
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
