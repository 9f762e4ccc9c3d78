"""Run-journal bench: journaling overhead and kill-at-half resume.

Three measurements per workload, all through the crash-safe run
journal (:mod:`repro.journal`, docs/ROBUSTNESS.md):

``plain``
    Serial APGRE with no journal — the time baseline.
``journaled``
    The identical run with ``journal_dir`` set: every sub-graph
    contribution is durably committed (payload ``.npy`` + group-committed log
    record). The acceptance bar is **< 5% overhead** over ``plain``.
``resume``
    The journal is cut back to its first ``ceil(S/2)`` contribution
    records — byte-identical to what a ``SIGKILL`` mid-run leaves
    behind (``tests/test_journal.py`` proves the equivalence with real
    ``SIGKILL`` subprocesses; here the cut is deterministic so the
    bench is reproducible) — and the run resumes.  The bar is
    recomputing **strictly fewer than 50%** of the sub-graphs, with
    scores matching the cold run to 1e-9 and the exact edge-tally
    identity ``edges_resumed + edges_traversed == cold traversal``.

The committed ``BENCH_journal.json`` records all three on the two
workloads below; ``check_rows`` holds future runs to the acceptance
bars and to no worse than twice the committed overhead.
"""

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from repro.bench.persistence import environment_provenance
from repro.bench.workloads import get_graph
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.journal.format import decode_line, scan_log

pytestmark = pytest.mark.benchmarks

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_journal.json"
RESULTS_DIR = Path(__file__).resolve().parent / "results"
SCHEMA_VERSION = 1  # of this payload; bumped when row keys change

#: (suite graph, scale) — one bridge-heavy road graph (many journal
#: records relative to BC work: the overhead-unfriendly case), one
#: social graph whose top BCC dominates (few large records).
WORKLOADS = [
    ("USA-roadBAY", 2.0),
    ("Email-Enron", 2.0),
]
QUICK_WORKLOADS = [
    ("Email-Enron", 1.0),
]
REPEAT = 2  # best-of absorbs scheduler noise on both sides


def _truncate_to_half(journal_dir):
    """Keep the header + the first ceil(k/2) contribution records.

    The bytes left on disk are exactly a mid-run crash: no final
    record, later payload files present but unreferenced (a resume
    ignores them, just as it ignores the stale payloads a killed run
    leaves).  Returns (kept, total) contribution counts.
    """
    log = Path(journal_dir) / "journal.log"
    records, _ = scan_log(log)
    total = sum(r["type"] == "contribution" for r in records)
    keep = total // 2 + 1  # strictly under half left to recompute
    kept_lines, kept = [], 0
    for line in log.read_bytes().splitlines(keepends=True):
        body = decode_line(line)
        if body is None:
            break
        if body.get("type") == "header":
            kept_lines.append(line)
        elif body.get("type") == "contribution" and kept < keep:
            kept_lines.append(line)
            kept += 1
    log.write_bytes(b"".join(kept_lines))
    return kept, total


def _best_of(fn, repeat=REPEAT):
    best_t, out = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        if best_t is None or elapsed < best_t:
            best_t, out = elapsed, result
    return best_t, out


def measure_workload(name, scale):
    """plain/journaled/resume measurement row for one suite graph."""
    graph = get_graph(name, scale=scale)

    t_plain, plain = _best_of(
        lambda: apgre_bc_detailed(graph, APGREConfig())
    )

    workdir = Path(tempfile.mkdtemp(prefix="bench-journal-"))
    try:
        jdir = workdir / "journal"
        t_journaled, journaled = _best_of(
            lambda: apgre_bc_detailed(
                graph, APGREConfig(journal_dir=str(jdir))
            )
        )
        np.testing.assert_allclose(
            journaled.scores, plain.scores, rtol=1e-9, atol=1e-9
        )
        total = journaled.stats.num_subgraphs
        assert journaled.health.journal_records == total, (
            f"{name}: journaled run committed "
            f"{journaled.health.journal_records}/{total} records"
        )

        kept, logged = _truncate_to_half(jdir)
        assert logged == total
        t_resume = time.perf_counter()
        resumed = apgre_bc_detailed(
            graph, APGREConfig(journal_dir=str(jdir), resume=True)
        )
        t_resume = time.perf_counter() - t_resume
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    np.testing.assert_allclose(
        resumed.scores, plain.scores, rtol=1e-9, atol=1e-9
    )
    rs = resumed.stats
    assert rs.subgraphs_resumed == kept, (
        f"{name}: resumed {rs.subgraphs_resumed} != {kept} journaled"
    )
    assert rs.subgraphs_resumed + rs.subgraphs_recomputed == total
    assert rs.edges_resumed + rs.edges_traversed == (
        plain.stats.edges_traversed
    ), (
        f"{name}: resume tallies {rs.edges_resumed}+{rs.edges_traversed}"
        f" != from-scratch {plain.stats.edges_traversed}"
    )

    return {
        "graph": name,
        "scale": scale,
        "n": graph.n,
        "m": graph.num_arcs,
        "subgraphs": total,
        "plain_seconds": round(t_plain, 4),
        "journaled_seconds": round(t_journaled, 4),
        "journal_overhead_pct": round(
            100.0 * (t_journaled / t_plain - 1.0), 2
        ),
        "resume_seconds": round(t_resume, 4),
        "resume_speedup_vs_cold": round(t_plain / t_resume, 2),
        "subgraphs_resumed": rs.subgraphs_resumed,
        "subgraphs_recomputed": rs.subgraphs_recomputed,
        "recompute_fraction": round(rs.subgraphs_recomputed / total, 3),
        "edges_traversed_cold": plain.stats.edges_traversed,
        "edges_resumed": rs.edges_resumed,
        "edges_traversed_resume": rs.edges_traversed,
    }


def run_bench(quick=False, out_path=None):
    """Measure every workload; returns (payload, path written or None).

    A quick run writes only to an explicit ``out_path``, so it never
    rewrites the committed ``results/`` file.
    """
    workloads = QUICK_WORKLOADS if quick else WORKLOADS
    rows = [measure_workload(*w) for w in workloads]
    payload = {
        "bench": "bench_journal_resume",
        "schema_version": SCHEMA_VERSION,
        "quick": quick,
        "environment": environment_provenance(),
        "workloads": rows,
    }
    if out_path is None and not quick:
        RESULTS_DIR.mkdir(exist_ok=True)
        out_path = RESULTS_DIR / "bench_journal_resume.json"
    if out_path is not None:
        out_path = Path(out_path)
        out_path.write_text(json.dumps(payload, indent=2) + "\n")
    return payload, out_path


def check_rows(rows, *, quick=False):
    """Perf guards (the correctness guards run inside measure)."""
    for row in rows:
        assert row["journal_overhead_pct"] < 5.0, (
            f"{row['graph']}: journaling cost "
            f"{row['journal_overhead_pct']}% over plain (bar is 5%)"
        )
        assert row["recompute_fraction"] < 0.5, (
            f"{row['graph']}: resume recomputed "
            f"{row['recompute_fraction']:.0%} of sub-graphs (bar is "
            f"strictly under half)"
        )
    if quick or not BASELINE_PATH.exists():
        return
    baseline = json.loads(BASELINE_PATH.read_text())
    base_rows = {r["graph"]: r for r in baseline["workloads"]}
    for row in rows:
        base = base_rows.get(row["graph"])
        if base is None:
            continue
        # overhead can honestly be ~0; guard against a regression to
        # twice the committed percentage or the 5% bar, whichever is
        # looser on noise
        ceiling = max(2.0 * base["journal_overhead_pct"], 5.0)
        assert row["journal_overhead_pct"] <= ceiling, (
            f"{row['graph']}: journal overhead "
            f"{row['journal_overhead_pct']}% regressed past "
            f"{ceiling}% (committed: {base['journal_overhead_pct']}%)"
        )


def test_journal_resume_smoke(results_dir):
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
