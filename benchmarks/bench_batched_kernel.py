"""Batched-kernel smoke bench: serial vs batched, per compute kernel.

A small deterministic perf artifact for the batched multi-source BC
kernel (:mod:`repro.graph.batched`) and the compute-kernel registry
(:mod:`repro.graph.kernels`): each workload fixes a graph and a sorted
source sample, measures serial per-source (``mode="arcs"``) once, then
times ``batch_size="auto"`` under every kernel on the workload's axis —
wall-clock seconds, examined-edge MTEPS and the speedup over serial.
Full runs write ``benchmarks/results/bench_batched_kernel.json``; the
recorded numbers are committed as ``benchmarks/BENCH_baseline.json`` so
later PRs have a per-kernel perf trajectory to compare against.

Workloads cover three frontier regimes: a deep road grid and a shallow
sparse social analogue, plus ``social-core`` — a dense small-diameter
powerlaw core (Barabási–Albert, avg degree 32, two-sweep diameter ~3),
the regime the real com-youtube/Slashdot *cores* occupy and the one
where spmm's dense form runs.

Wall-clock is measured on uncounted runs (instrumented runs pay for
the tally); each kernel's MTEPS denominator comes from one counted run
of that kernel (see docs/KERNELS.md for the tally contract).

Every row also records ``spmm_layout``: the level layout
:func:`repro.graph.kernels.spmm_layout` picks for that graph and
source count (``"dense"`` on shallow graphs, else ``"sparse"``).  The
``--quick`` check pins it on the two regimes that sit either side of
the rule (:data:`QUICK_LAYOUTS`), and gates ``spmm`` against ``arcs``
in both: the sparse form on the deep road grid, the dense form on the
dense core.

Honest numbers note: the historical serial-vs-batched rows keep their
achieved ~1.5-1.9x single-core level (per-source numpy BFS is
dispatch-bound).
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
from repro.generators.powerlaw import barabasi_albert_graph
from repro.graph.kernels import get_kernel, spmm_layout
from repro.metrics.teps import examined_mteps

pytestmark = pytest.mark.benchmarks

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: (graph, scale, sources, kernel axis) — the two >= 50k-vertex suite
#: regimes (deep grid, shallow social analogue) plus the dense
#: small-diameter core.
WORKLOADS = [
    ("USA-roadBAY", 10.5, 128, ("arcs", "spmm")),
    ("WikiTalk", 49.0, 128, ("arcs", "spmm")),
    ("social-core", 10.0, 64, ("arcs", "spmm")),
]
#: shrunken workloads for ``--quick`` (the CI smoke job): same three
#: regimes, sizes that keep the job under a minute
QUICK_WORKLOADS = [
    ("USA-roadBAY", 2.0, 32, ("arcs", "spmm")),
    ("WikiTalk", 8.0, 32, ("arcs", "spmm")),
    ("social-core", 2.0, 32, ("arcs", "spmm")),
]
#: the spmm layout the quick workloads must get: the dense core is
#: shallow, the road grid deep (docs/KERNELS.md, the layout rule)
QUICK_LAYOUTS = {"social-core": "dense", "USA-roadBAY": "sparse"}
SEED = 42
REPEAT = 2  # best-of: absorbs one-off scheduler noise

#: the default kernel must not fall behind the numpy-only fallback in
#: the deep regime: spmm's sparse form over arcs on the quick road grid
#: (measured 1.5-1.8x on a 2-vCPU host)
SPMM_VS_ARCS_FLOOR_QUICK = 1.0
#: ... and must keep the dense form's edge in the dense regime: spmm
#: over arcs on the quick dense core (measured 3.95-4.34x on a 2-vCPU
#: host)
SPMM_VS_ARCS_DENSE_FLOOR_QUICK = 2.0


def workload_graph(name, scale):
    """A workload graph: suite analogue, or the synthetic dense core."""
    if name == "social-core":
        return barabasi_albert_graph(int(3000 * scale), 16, seed=7)
    return get_graph(name, scale=scale)


def _best_of(fn, repeat=REPEAT):
    best = None
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def measure_workload(name, scale, n_sources, kernels=("arcs",)):
    """One graph's serial-vs-batched rows, one row per compute kernel."""
    graph = workload_graph(name, scale)
    rng = np.random.default_rng(SEED)
    sources = np.sort(
        rng.choice(graph.n, size=min(n_sources, graph.n), replace=False)
    ).tolist()
    serial_counter = WorkCounter()
    run_per_source(
        graph, sources=sources, mode="arcs", counter=serial_counter
    )
    serial, t_serial = _best_of(
        lambda: run_per_source(graph, sources=sources, mode="arcs")
    )
    rows = []
    arcs_seconds = None
    layout = spmm_layout(graph, len(sources))
    for kern in kernels:
        if not get_kernel(kern).available():
            continue  # e.g. spmm on hosts without scipy: clean miss
        counter = WorkCounter()
        run_per_source(
            graph, sources=sources, mode="arcs",
            batch_size="auto", kernel=kern, counter=counter,
        )
        batched, t_batched = _best_of(
            lambda: run_per_source(
                graph, sources=sources, mode="arcs",
                batch_size="auto", kernel=kern,
            )
        )
        np.testing.assert_allclose(batched, serial, rtol=1e-9, atol=1e-9)
        if kern == "arcs":
            arcs_seconds = t_batched
        row = {
            "graph": name,
            "scale": scale,
            "n": graph.n,
            "m": graph.num_arcs,
            "sources": len(sources),
            "kernel": kern,
            "spmm_layout": layout,
            "edges_examined": counter.examined,
            "serial_seconds": round(t_serial, 4),
            "batched_seconds": round(t_batched, 4),
            "serial_mteps": round(
                examined_mteps(serial_counter.examined, t_serial), 2
            ),
            "batched_mteps": round(
                examined_mteps(counter.examined, t_batched), 2
            ),
            "speedup": round(t_serial / t_batched, 3),
        }
        if arcs_seconds is not None:
            row["speedup_vs_arcs"] = round(arcs_seconds / t_batched, 3)
        rows.append(row)
    return rows


def check_rows(rows, *, quick=False):
    """The bench's regression guards, shared by pytest and the CLI.

    The vs-serial floor applies to each workload's *best* kernel row —
    the claim is "batched with the right kernel beats serial", and some
    rows exist only as comparison baselines (on the dense core the arcs
    kernel's sort-based dedup over ~m-sized candidate arrays is
    serial-or-worse).
    """
    # small graphs are dispatch-bound, so quick runs only check >= 1.0x
    floor = 1.0 if quick else 1.2
    best = {}
    for row in rows:
        prev = best.get(row["graph"])
        if prev is None or row["speedup"] > prev["speedup"]:
            best[row["graph"]] = row
    for graph, row in best.items():
        assert row["speedup"] >= floor, (
            f"batched kernel regressed on {graph}: best kernel "
            f"{row['kernel']} at {row['speedup']}x vs serial "
            f"(floor {floor}x)"
        )
    if quick:
        for row in rows:
            want = QUICK_LAYOUTS.get(row["graph"])
            assert want is None or row["spmm_layout"] == want, (
                f"spmm layout rule regressed on {row['graph']}: "
                f"{row['spmm_layout']} (want {want})"
            )
            # no spmm row where scipy's extension is missing: no check
            if row["graph"] == "USA-roadBAY" and row["kernel"] == "spmm":
                assert row["speedup_vs_arcs"] >= SPMM_VS_ARCS_FLOOR_QUICK, (
                    f"spmm fell behind arcs on the deep road grid: "
                    f"{row['speedup_vs_arcs']}x (floor "
                    f"{SPMM_VS_ARCS_FLOOR_QUICK}x)"
                )
            if row["graph"] == "social-core" and row["kernel"] == "spmm":
                floor_dense = SPMM_VS_ARCS_DENSE_FLOOR_QUICK
                assert row["speedup_vs_arcs"] >= floor_dense, (
                    f"spmm lost its dense-form edge on the dense core: "
                    f"{row['speedup_vs_arcs']}x vs arcs (floor "
                    f"{floor_dense}x)"
                )


def test_batched_kernel_smoke(results_dir):
    rows = [r for w in WORKLOADS for r in measure_workload(*w)]
    payload = {
        "bench": "bench_batched_kernel",
        "seed": SEED,
        "repeat": REPEAT,
        "environment": environment_provenance(),
        "workloads": rows,
    }
    out = results_dir / "bench_batched_kernel.json"
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    check_rows(rows)
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        base_rows = {
            (r["graph"], r.get("kernel", "arcs")): r
            for r in baseline["workloads"]
        }
        for row in rows:
            base = base_rows.get((row["graph"], row["kernel"]))
            if base is None:
                continue
            assert row["speedup"] >= 0.5 * base["speedup"], (
                f"{row['graph']}/{row['kernel']}: speedup "
                f"{row['speedup']}x fell to less than half the committed "
                f"baseline {base['speedup']}x"
            )


def main(argv=None):
    """CLI entry point for the CI smoke job.

    ``--quick`` runs the shrunken workloads with a correctness check
    and lenient floors (small graphs are dispatch-bound, so the
    full-size guards would be noise there).
    """
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="CI smoke workloads"
    )
    args = parser.parse_args(argv)
    workloads = QUICK_WORKLOADS if args.quick else WORKLOADS
    rows = [r for w in workloads for r in measure_workload(*w)]
    print(json.dumps({"bench": "bench_batched_kernel", "quick": args.quick,
                      "environment": environment_provenance(),
                      "workloads": rows}, indent=2))
    check_rows(rows, quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
