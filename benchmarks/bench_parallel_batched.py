"""Parallel-batched bench: serial batched vs the execution backends.

The coarse-level companion to ``bench_batched_kernel.py``: the same
two >= 50k-vertex suite graphs and fixed source sample, measuring the
serial batched path (``batch_size="auto"``, its best configuration)
against every requested execution backend
(:mod:`repro.parallel.backends` — the GIL-free thread engine of
:mod:`repro.parallel.threaded` and the persistent shared-memory
process pool) at ``--workers`` workers with work stealing on.  One row
per graph x backend.  Each engine run uses a fixed batch width that
yields ``~2 x workers`` batches so the LPT/steal scheduler has
something to schedule; scores are asserted against serial to 1e-9 and
the WorkCounter edge tallies must match exactly.

Every row also reports ``model_speedup`` — the work/critical-path
bound ``sum(batch) / lpt_makespan(batch, workers)`` from
:mod:`repro.parallel.scheduler` — and the JSON embeds the environment
provenance block (active backend, worker count, cores, which backends
the host can run), because the measured column is only meaningful next
to the machine that produced it.

Honest numbers note: the acceptance bars (threads >= 1.5x, processes
>= 2.5x over serial batched at 4 workers) are multi-core numbers; on a
1-CPU container the workers timeshare one core and the measured
speedup is ~1x minus scheduling overhead, so those assertions are
gated on ``available_workers() >= workers``.  CI enforces the threads
bar unconditionally on a >= 4-core runner via ``--min-speedup`` (see
.github/workflows/ci.yml, job ``bench-multicore``); a committed
``BENCH_parallel.json`` regenerated on a single-core host records the
single-core measurement plus the model column, with the environment
block saying exactly that.  The unconditional guards are correctness,
exact tallies, and not falling below half the committed baseline.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.common import WorkCounter, run_per_source
from repro.bench.persistence import environment_provenance
from repro.bench.workloads import get_graph
from repro.metrics.teps import examined_mteps
from repro.parallel.backends import backend_names, get_backend
from repro.parallel.pool import available_workers
from repro.parallel.scheduler import lpt_makespan
from repro.parallel.supervisor import RunHealth

pytestmark = pytest.mark.benchmarks

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: (suite graph, scale, sources) — the BENCH_baseline.json workloads.
WORKLOADS = [
    ("USA-roadBAY", 10.5, 128),
    ("WikiTalk", 49.0, 128),
]
QUICK_WORKLOADS = [
    ("USA-roadBAY", 3.0, 32),
]
SEED = 42
REPEAT = 2  # best-of: absorbs one-off scheduler noise
WORKERS = 4
QUICK_WORKERS = 2

#: Measured-speedup acceptance bar per backend, applied only when the
#: host has at least as many cores as workers (serial is the 1x
#: reference and has no bar).
SPEEDUP_TARGETS = {"threads": 1.5, "processes": 2.5}


def _best_of(fn, repeat=REPEAT):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def measure_workload(name, scale, n_sources, workers=WORKERS,
                     backends=("processes",)):
    """One graph's serial-batched vs per-backend measurement rows."""
    graph = get_graph(name, scale=scale)
    rng = np.random.default_rng(SEED)
    sources = np.sort(
        rng.choice(graph.n, size=min(n_sources, graph.n), replace=False)
    ).tolist()
    # fixed engine batch width: ~2 batches per worker, so LPT placement
    # and stealing have a schedule to work with (auto would often give
    # one batch for the whole sample, leaving workers idle)
    batch = max(len(sources) // (2 * workers), 1)
    n_batches = -(-len(sources) // batch)
    weights = [
        min(batch, len(sources) - lo)
        for lo in range(0, len(sources), batch)
    ]

    counter = WorkCounter()
    run_per_source(
        graph, sources=sources, mode="arcs", counter=counter,
        batch_size="auto",
    )
    edges = counter.edges
    serial, t_serial = _best_of(
        lambda: run_per_source(
            graph, sources=sources, mode="arcs", batch_size="auto"
        )
    )
    serial_same_batch = WorkCounter()
    run_per_source(
        graph, sources=sources, mode="arcs", counter=serial_same_batch,
        batch_size=batch,
    )

    rows = []
    for backend in backends:
        health = RunHealth()
        engine_counter = WorkCounter()

        def engine_run():
            return run_per_source(
                graph,
                sources=sources,
                mode="arcs",
                batch_size=batch,
                workers=workers,
                backend=backend,
            )

        result, t_engine = _best_of(engine_run)
        # correctness + exact-tally checks on an instrumented run
        checked = run_per_source(
            graph,
            sources=sources,
            mode="arcs",
            batch_size=batch,
            workers=workers,
            backend=backend,
            counter=engine_counter,
            health=health,
        )
        np.testing.assert_allclose(result, serial, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(checked, serial, rtol=1e-9, atol=1e-9)
        assert engine_counter.edges == serial_same_batch.edges, (
            f"{name}/{backend}: engine edge tally {engine_counter.edges} "
            f"!= serial {serial_same_batch.edges}"
        )
        rows.append({
            "graph": name,
            "backend": backend,
            "scale": scale,
            "n": graph.n,
            "m": graph.num_arcs,
            "sources": len(sources),
            "workers": workers,
            "pool_batch": batch,
            "batches": n_batches,
            "edges_examined": edges,
            "serial_batched_seconds": round(t_serial, 4),
            "pooled_seconds": round(t_engine, 4),
            "serial_batched_mteps": round(examined_mteps(edges, t_serial), 2),
            "pooled_mteps": round(examined_mteps(edges, t_engine), 2),
            "speedup": round(t_serial / t_engine, 3),
            "model_speedup": round(
                sum(weights) / lpt_makespan(weights, workers), 3
            ),
            "steals": health.steals,
            "health": health.summary(),
        })
    return rows


def available_backend_names():
    """Registry backends this host can actually run, preference order."""
    return [n for n in backend_names() if get_backend(n).available()]


def run_bench(quick=False, out_path=None, workers=None, backends=None):
    """Measure every workload x backend; returns (payload, path or None).

    A quick run writes only to an explicit ``out_path``, so it never
    rewrites the committed ``results/`` file.
    """
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    if workers is None:
        workers = QUICK_WORKERS if quick else WORKERS
    if backends is None:
        backends = available_backend_names()
    rows = []
    for w in workloads:
        rows.extend(measure_workload(*w, workers=workers, backends=backends))
    payload = {
        "bench": "bench_parallel_batched",
        "seed": SEED,
        "repeat": REPEAT,
        "quick": quick,
        "backends": list(backends),
        "environment": environment_provenance(
            workers=workers, backend=",".join(backends)
        ),
        "workloads": rows,
    }
    if out_path is None and not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / "bench_parallel_batched.json"
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, out_path


def check_rows(rows, *, quick=False, min_speedup=None):
    """Perf guards, scaled to what this machine can actually show.

    ``min_speedup`` (the CI knob) unconditionally asserts every
    non-serial backend row reaches that measured speedup — the caller
    is vouching that the host has the cores (the workflow gates the
    job on ``nproc``).  Without it, the per-backend targets in
    ``SPEEDUP_TARGETS`` apply only when ``available_workers()`` covers
    the worker count.
    """
    cores = available_workers()
    for row in rows:
        backend = row.get("backend", "processes")
        target = SPEEDUP_TARGETS.get(backend)
        if min_speedup is not None and backend != "serial":
            assert row["speedup"] >= min_speedup, (
                f"{row['graph']}/{backend}: measured {row['speedup']}x at "
                f"{row['workers']} workers is below the enforced "
                f"--min-speedup {min_speedup}x"
            )
        elif (
            target is not None
            and not quick
            and cores >= row["workers"]
        ):
            # the real acceptance bar — only measurable with the cores
            assert row["speedup"] >= target, (
                f"{row['graph']}/{backend}: {row['speedup']}x at "
                f"{row['workers']} workers on {cores} cores "
                f"(target >= {target}x)"
            )
        # scheduler-model sanity: the LPT bound must show headroom for
        # the fan-out even when the host cannot
        assert row["model_speedup"] >= 2.0 or row["workers"] < 4, (
            f"{row['graph']}: LPT model speedup {row['model_speedup']}x "
            f"leaves the engine starved — batch plan is wrong"
        )
    if quick or not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    base_rows = {
        (r["graph"], r.get("backend", "processes")): r
        for r in baseline["workloads"]
    }
    for row in rows:
        backend = row.get("backend", "processes")
        base = base_rows.get((row["graph"], backend))
        if base is None:
            continue
        assert row["speedup"] >= 0.5 * base["speedup"], (
            f"{row['graph']}/{backend}: speedup {row['speedup']}x fell to "
            f"less than half the committed baseline {base['speedup']}x"
        )


def test_parallel_batched_smoke(results_dir):
    payload, _ = run_bench(quick=False)
    print(json.dumps(payload, indent=2))
    check_rows(payload["workloads"], quick=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small graph, 2 workers — the CI smoke configuration",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output JSON path (default: results/ on a full run; a "
        "--quick run writes only to an explicit --out)",
    )
    parser.add_argument(
        "--backend",
        action="append",
        choices=("serial", "threads", "processes"),
        default=None,
        help="backend(s) to measure (repeatable; default: every "
        "backend this host can run)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help=f"worker count (default {QUICK_WORKERS} with --quick, "
        f"else {WORKERS})",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="unconditionally require every non-serial backend row to "
        "reach X measured speedup (the CI enforcement knob — only pass "
        "on a host with enough cores)",
    )
    args = parser.parse_args(argv)
    payload, out_path = run_bench(
        quick=args.quick,
        out_path=args.out,
        workers=args.workers,
        backends=args.backend,
    )
    print(json.dumps(payload, indent=2))
    check_rows(
        payload["workloads"], quick=args.quick, min_speedup=args.min_speedup
    )
    if out_path is not None:
        print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
