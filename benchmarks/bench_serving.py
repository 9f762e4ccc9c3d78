"""Serving bench: cold CLI invocations vs warm served queries.

Two measurements per workload, through the warm-path daemon
(:mod:`repro.serve`, docs/SERVING.md):

``cold``
    ``repro-bc compute GRAPH --top 10`` as a fresh subprocess — the
    pre-daemon unit of work: interpreter start-up, graph parse,
    articulation decomposition, α/β counting and a full BC pass on
    every single query.
``warm``
    The same full-BC query against a resident daemon (in-process
    `make_server` + `ServeClient` over TCP loopback) after one
    priming request: the graph, partition state and assembled score
    vector are all hot, so a query is one HTTP round trip and a
    score-LRU hit.

The PR's acceptance bar is **warm p50 >= 20x faster than cold p50**;
persistent residency removes seconds of per-query setup, so the
measured ratios sit far above it. A third phase streams single-edge
deltas (``POST /delta``) while reader threads keep querying, and
reports sustained reader QPS, the delta commit latency, how many
deltas patched their dirty sub-graph instead of recomputing it and how
many derived their partition from the previous version's — the served
scores are exact after every commit (tests/test_serve.py pins
consistency; this file measures throughput).  The streamed edges join
two vertices of the graph's dominant block, as the end-to-end
serve-delta stream's do, so each delta exercises that intra-block
path rather than a merge of blocks.

The committed ``BENCH_serving.json`` records both workloads;
``check_rows`` holds future runs to the 20x bar and to no worse than
half the committed warm speedup.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.persistence import environment_provenance
from repro.bench.workloads import get_graph
from repro.cache import ContributionStore
from repro.core.config import APGREConfig
from repro.decompose.articulation import biconnected_components
from repro.graph.ops import to_undirected
from repro.serve.client import ServeClient
from repro.serve.server import make_server

pytestmark = pytest.mark.benchmarks

ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCHEMA_VERSION = 3  # of this payload; bumped when row keys change

#: (suite graph, scale) — the contribution-cache workload pair, so the
#: cold column here is directly comparable to BENCH_cache.json's.
WORKLOADS = [
    ("USA-roadBAY", 2.0),
    ("Email-Enron", 2.0),
]
QUICK_WORKLOADS = [
    ("USA-roadBAY", 1.0),
]
SEED = 11
COLD_REPEAT = 3
QUICK_COLD_REPEAT = 2
WARM_QUERIES = 40
QUICK_WARM_QUERIES = 15
DELTA_STREAM = 4
QUICK_DELTA_STREAM = 2
READER_THREADS = 2


def _percentile(samples, q):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return ordered[rank - 1]


def _write_edge_list(graph, path):
    src = np.repeat(np.arange(graph.n), np.diff(graph.out_indptr))
    dst = graph.out_indices
    mask = src < dst
    lines = [f"{u} {v}" for u, v in zip(src[mask].tolist(),
                                        dst[mask].tolist())]
    path.write_text("\n".join(lines) + "\n")


def _fresh_edges(graph, k, seed=SEED):
    """``k`` edges absent from the graph, for the delta stream.

    Both endpoints lie in the graph's dominant block (the biconnected
    component with the most edges): a pair drawn over the whole graph
    mostly merges blocks and falls back to a full recompute.
    """
    bcc = biconnected_components(to_undirected(graph))
    sizes = [edges.shape[0] for edges in bcc.component_edges]
    block = bcc.component_vertices[int(np.argmax(sizes))]
    src = np.repeat(np.arange(graph.n), np.diff(graph.out_indptr))
    existing = set(zip(src.tolist(), graph.out_indices.tolist()))
    rng = np.random.default_rng(seed)
    chosen, seen = [], set()
    while len(chosen) < k:
        a, b = (int(block[x]) for x in rng.integers(0, block.size, 2))
        key = (min(a, b), max(a, b))
        if a == b or (a, b) in existing or key in seen:
            continue
        seen.add(key)
        chosen.append(key)
    return chosen


def _measure_cold_cli(graph_path, repeat):
    """Wall-clock of full cold ``repro-bc compute`` subprocesses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "compute",
             str(graph_path), "--top", "10"],
            env=env, capture_output=True, text=True,
        )
        samples.append(time.perf_counter() - t0)
        assert proc.returncode == 0, (
            f"cold CLI run failed:\n{proc.stdout}{proc.stderr}"
        )
    return samples


def measure_workload(name, scale, *, quick=False):
    """Cold-CLI vs warm-served measurement row for one suite graph."""
    graph = get_graph(name, scale=scale)
    cold_repeat = QUICK_COLD_REPEAT if quick else COLD_REPEAT
    warm_queries = QUICK_WARM_QUERIES if quick else WARM_QUERIES
    deltas = QUICK_DELTA_STREAM if quick else DELTA_STREAM

    with tempfile.TemporaryDirectory(prefix="bench_serving_") as tmp:
        graph_path = Path(tmp) / "graph.txt"
        _write_edge_list(graph, graph_path)
        cold_samples = _measure_cold_cli(graph_path, cold_repeat)

    store = ContributionStore()
    server = make_server(
        graph, port=0, base_config=APGREConfig(cache=store), store=store
    )
    state = server.state
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    try:
        host, port = server.server_address
        client = ServeClient(host=host, port=port, timeout=600.0)

        t0 = time.perf_counter()
        primed = client.bc(full=True)  # the daemon's one cold compute
        serve_prime = time.perf_counter() - t0
        assert primed["cached"] is False

        warm_samples = []
        for _ in range(warm_queries):
            t0 = time.perf_counter()
            payload = client.bc(full=True)
            warm_samples.append(time.perf_counter() - t0)
            assert payload["cached"] is True

        t0 = time.perf_counter()
        replay = client.bc(full=True, fresh=True)  # store replay path
        replay_seconds = time.perf_counter() - t0
        assert replay["cached"] is False

        # delta stream: one writer commits versions, readers keep
        # pulling top-k; sustained QPS is reads / writer wall-clock
        stop = threading.Event()
        reads = []

        def reader():
            local_client = ServeClient(
                host=host, port=port, timeout=600.0
            )
            while not stop.is_set():
                t0 = time.perf_counter()
                local_client.bc(top=10)
                reads.append(time.perf_counter() - t0)

        readers = [
            threading.Thread(target=reader) for _ in range(READER_THREADS)
        ]
        delta_samples = []
        t_stream = time.perf_counter()
        for t in readers:
            t.start()
        try:
            for edge in _fresh_edges(graph, deltas):
                t0 = time.perf_counter()
                client.delta(add=[edge])
                delta_samples.append(time.perf_counter() - t0)
        finally:
            stream_seconds = time.perf_counter() - t_stream
            stop.set()
            for t in readers:
                t.join(timeout=120)
        final = client.healthz()
        assert final["version"] == deltas + 1, (
            f"{name}: stream committed {final['version'] - 1} of "
            f"{deltas} deltas"
        )
        stats = client.stats()
    finally:
        server.shutdown()
        thread.join(timeout=60)
        server.server_close()

    cold_p50 = _percentile(cold_samples, 50)
    warm_p50 = _percentile(warm_samples, 50)
    return {
        "graph": name,
        "scale": scale,
        "n": graph.n,
        "m": graph.num_arcs,
        "cold_invocations": len(cold_samples),
        "cold_p50_seconds": round(cold_p50, 4),
        "cold_p99_seconds": round(_percentile(cold_samples, 99), 4),
        "serve_prime_seconds": round(serve_prime, 4),
        "warm_queries": len(warm_samples),
        "warm_p50_seconds": round(warm_p50, 6),
        "warm_p99_seconds": round(_percentile(warm_samples, 99), 6),
        "warm_speedup_p50": round(cold_p50 / warm_p50, 1),
        "fresh_replay_seconds": round(replay_seconds, 4),
        "delta_stream": {
            "deltas": deltas,
            "delta_p50_seconds": round(_percentile(delta_samples, 50), 4),
            "reader_threads": READER_THREADS,
            "reader_queries": len(reads),
            "reader_p50_seconds": round(_percentile(reads, 50), 6),
            "sustained_qps": round(len(reads) / stream_seconds, 1),
            "final_version": final["version"],
            # deltas whose dirty sub-graph was patched, not recomputed,
            # and deltas whose partition was derived, not re-partitioned
            "subgraphs_patched": stats["server"]["subgraphs_patched"],
            "partitions_derived": stats["server"]["partitions_derived"],
            "edges_unwound": stats["edges"]["unwound"],
        },
        "score_lru": stats["score_lru"],
        "contribution_store": {
            k: stats["contribution_store"][k]
            for k in ("hits", "misses", "puts", "evictions")
        },
        "computed_vectors": state.computed_vectors,
    }


def run_bench(quick=False, out_path=None):
    """Measure every workload; returns (payload, path written or None).

    A quick run writes only to an explicit ``out_path``, so it never
    rewrites the committed ``results/`` file.
    """
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    rows = [measure_workload(*w, quick=quick) for w in workloads]
    payload = {
        "bench": "bench_serving",
        "schema_version": SCHEMA_VERSION,
        "seed": SEED,
        "quick": quick,
        "environment": environment_provenance(),
        "workloads": rows,
    }
    if out_path is None and not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / "bench_serving.json"
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, out_path


def check_rows(rows, *, quick=False):
    """Perf guards (correctness guards run inside measure)."""
    for row in rows:
        assert row["warm_speedup_p50"] >= 20.0, (
            f"{row['graph']}: warm served query only "
            f"{row['warm_speedup_p50']}x faster than a cold CLI "
            f"invocation at p50 (acceptance bar is 20x)"
        )
        stream = row["delta_stream"]
        assert stream["sustained_qps"] > 0, (
            f"{row['graph']}: readers starved during the delta stream"
        )
        assert stream["final_version"] == stream["deltas"] + 1
    if quick or not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    base_rows = {r["graph"]: r for r in baseline["workloads"]}
    for row in rows:
        base = base_rows.get(row["graph"])
        if base is None:
            continue
        assert row["warm_speedup_p50"] >= 0.5 * base["warm_speedup_p50"], (
            f"{row['graph']}: warm speedup {row['warm_speedup_p50']}x "
            f"fell to less than half the committed "
            f"{base['warm_speedup_p50']}x"
        )


def test_serving_smoke(results_dir):
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
