#!/usr/bin/env python3
"""One seeded end-to-end benchmark: batch BC, served reads, served deltas.

Run every workload (each in its own subprocess), or one::

    python benchmarks/e2e/run.py [--seed N] [--seconds S] [--trace [0|1]]
                                 [--smoke] [--workload NAME] [--out PATH]

Compare >= 10 alternating parent/change result files::

    python benchmarks/e2e/run.py compare P1.json C1.json P2.json C2.json ...

Re-measure the calibration record (three back-to-back full sets on
the default seed) and the latest numbers in spec.json::

    python benchmarks/e2e/run.py calibrate

Without ``--trace`` a run reports the end-to-end metrics; with it the
per-layer ones.  Every output is checked against Brandes; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the exit code is 0 only
when every check passed.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
SPEC = HERE / "spec.json"
RESULTS = HERE / "results"
CALIBRATION = HERE / "calibration"
#: a workload subprocess that outlives this is killed and counted failed
WORKLOAD_TIMEOUT = 175
#: units of the raw numbers that are not in milliseconds
RAW_UNITS = {"setup_s": "s", "peak_rss_mb": "MB"}
#: back-to-back full sets ``calibrate`` records
CALIBRATION_SETS = 3

import harness  # noqa: E402  (sibling module; needs no repro)


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def metric_names(spec: dict, trace: bool) -> list:
    if not trace:
        return list(spec["end_to_end"])
    return [m for m, meta in spec["per_layer"].items()
            if meta["workloads"] == "all"]


def unit_of(spec: dict, name: str) -> str:
    meta = spec["end_to_end"].get(name) or spec["per_layer"][name]
    return meta["unit"]


def print_report(spec: dict, name: str, payload: dict) -> None:
    trace = payload["trace"]
    for metric, value in payload["metrics"].items():
        n = payload["counts"].get(metric)
        note = ""
        if not trace:
            note = spec["end_to_end"][metric]["measures"][payload["workload"]]
        count = f"n={n}" if n is not None else ""
        print(f"[{name}] {metric:28s} {value:14.6g} {unit_of(spec, metric):8s}"
              f" {count:8s} {note}")
    for metric, value in payload["extra"].items():
        print(f"[{name}] {metric:28s} {value:14.6g} {unit_of(spec, metric):8s}")
    for metric, value in payload["raw"].items():
        if metric in payload["metrics"]:
            continue
        n = payload["counts"].get(metric)
        note = ""
        if metric == "p99_ms":
            tail = harness.supported_tail(n)
            if tail is None or tail < 99:
                note = (f"only {harness.beyond(n, 99)} samples beyond p99; "
                        f"highest percentile with {harness.MIN_BEYOND} beyond: "
                        f"{'none' if tail is None else f'p{tail:g}'}")
        print(f"[{name}] {'raw.' + metric:28s} {value:14.6g} "
              f"{RAW_UNITS.get(metric, 'ms'):8s} {f'n={n}' if n else '':8s} {note}")
    attempted, failed = payload["attempted"], payload["failed"]
    print(f"[{name}] {'failed_frac':28s} {failed / max(attempted, 1):14.6g} "
          f"{'fraction':8s} n={attempted}")
    for error in payload["errors"]:
        print(f"[{name}] FAILED: {error}")


def result_line(payload_by_workload: dict, spec: dict) -> dict:
    """The machine-readable last line: flat names for one workload,
    ``<workload>.<metric>`` for several."""
    many = len(payload_by_workload) > 1
    metrics = {}
    for name, payload in payload_by_workload.items():
        for metric, value in payload["metrics"].items():
            key = f"{name}.{metric}" if many else metric
            metrics[key] = {"value": value, "unit": unit_of(spec, metric)}
    attempted = sum(p["attempted"] for p in payload_by_workload.values())
    failed = sum(p["failed"] for p in payload_by_workload.values())
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# ----------------------------------------------------------------------
# one workload, in this process
# ----------------------------------------------------------------------
def run_workload(spec: dict, args) -> int:
    import workloads

    name = args.workload
    wspec = spec["workloads"][name]
    inputs = workloads.make_inputs(wspec, args.seed, smoke=args.smoke)
    if args.seed == spec["default_seed"] and not args.smoke:
        expected = spec["digests"][name]
        if inputs.digests != expected:
            print(f"run.py: input digests of {name} drifted for seed "
                  f"{args.seed}: expected {expected}, generated "
                  f"{inputs.digests} (did repro.generators change?)",
                  file=sys.stderr)
            return 3

    RESULTS.mkdir(exist_ok=True)
    tag = f"{name}-seed{args.seed}-trace{int(args.trace)}"
    workdir = RESULTS / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        outcome = workloads.run(
            wspec, inputs, seconds=args.seconds,
            trace=bool(args.trace), smoke=args.smoke, env=child_env(),
        )
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    if not args.trace:
        outcome.metrics = {m: outcome.raw[m] for m in spec["end_to_end"]}

    payload = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "metrics": {m: outcome.metrics[m] for m in metric_names(spec, args.trace)},
        "counts": outcome.counts,
        "extra": outcome.extra,
        "raw": outcome.raw,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors,
        "digests": inputs.digests,
        "samples": outcome.samples,
    }
    if args.trace:
        spans = RESULTS / f"spans-{tag}.json"
        spans.write_text(json.dumps({
            "workload": name, "seed": args.seed, "spans": outcome.spans,
            "self_seconds": harness.self_times(outcome.spans),
        }))
        payload["spans_file"] = str(spans.relative_to(ROOT))
    write_results(Path(args.out) if args.out else RESULTS / f"{tag}.json",
                  {name: payload}, args)
    print_report(spec, name, payload)
    line = result_line({name: payload}, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def write_results(path: Path, payloads: dict, args) -> None:
    from repro.bench.persistence import environment_provenance

    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "environment": environment_provenance(),
        "workloads": payloads,
    }, indent=1) + "\n")


# ----------------------------------------------------------------------
# every workload, one subprocess each
# ----------------------------------------------------------------------
def run_all(spec: dict, args) -> int:
    RESULTS.mkdir(exist_ok=True)
    passes = [0, 1] if args.smoke else [int(args.trace)]
    payloads, broken = {}, []
    for trace in passes:
        for name in spec["workloads"]:
            out = RESULTS / f"part-{name}-trace{trace}-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--out", str(out)]
            if args.smoke:
                cmd.append("--smoke")
            try:
                code = subprocess.run(cmd, timeout=WORKLOAD_TIMEOUT).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if out.exists():
                key = name if len(passes) == 1 else f"{name}.trace{trace}"
                payloads[key] = json.loads(out.read_text())["workloads"][name]
                out.unlink()
            if code != 0:
                broken.append(f"{name} (trace {trace}): exit {code}")
    tag = f"e2e-seed{args.seed}-trace{int(args.trace)}"
    write_results(Path(args.out) if args.out else RESULTS / f"{tag}.json",
                  payloads, args)
    print()
    for key, payload in payloads.items():
        print_report(spec, key, payload)
    for problem in broken:
        print(f"run.py: {problem}", file=sys.stderr)
    line = result_line(payloads, spec)
    if broken:
        line["correct"] = False
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def incomparable(results) -> str:
    """Why these alternating parent/change result files cannot be
    compared, or an empty string.

    Every file must be an untraced, full-length run of the same length.
    Pairs may use different seeds, but a parent and its change share one.
    """
    for key in ("seconds", "smoke", "trace"):
        values = {r[key] for r in results}
        if len(values) > 1:
            return f"the files differ in {key}: {sorted(values)}"
    if results[0]["trace"]:
        return "traced files hold per-layer metrics; compare untraced runs"
    if results[0]["smoke"]:
        return "smoke runs are too short to compare; compare full runs"
    for i in range(0, len(results), 2):
        seeds = results[i]["seed"], results[i + 1]["seed"]
        if seeds[0] != seeds[1]:
            return f"pair {i // 2 + 1} mixes seeds {seeds[0]} and {seeds[1]}"
    return ""


def compare(spec: dict, files) -> int:
    if len(files) % 2 or len(files) < 2 * harness.MIN_PAIRS:
        print(f"run.py compare: need >= {harness.MIN_PAIRS} alternating "
              f"PARENT CHANGE pairs, got {len(files)} file(s)",
              file=sys.stderr)
        return 2
    try:
        results = [json.loads(Path(f).read_text()) for f in files]
        problem = incomparable(results)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problem = f"not a run.py result file: {exc!r}"
    if problem:
        print(f"run.py compare: {problem}", file=sys.stderr)
        return 2
    runs = [r["workloads"] for r in results]
    parents, changes = runs[0::2], runs[1::2]
    names = [w for w in spec["workloads"] if all(w in r for r in runs)]
    if not names:
        print("run.py compare: no workload is present in every file",
              file=sys.stderr)
        return 2
    regress = False
    for name in names:
        verdicts = {}
        for metric, meta in spec["end_to_end"].items():
            verdicts[metric] = harness.verdict(
                [r[name]["metrics"][metric] for r in parents],
                [r[name]["metrics"][metric] for r in changes],
                meta["bounds"][name], meta["better"],
            )
        status = harness.row_status(v["status"] for v in verdicts.values())
        regress |= status == "regress"
        detail = "  ".join(
            f"{m}={v['status']}({v['change_vs_parent']:+.1%}, "
            f"wins {v['wins']}/{v['pairs']}, spread {v['spread']:.1%}, "
            f"bound {v['bound']:.0%})"
            for m, v in verdicts.items()
        )
        print(f"{name:12s} {status:10s} {detail}")
    return 1 if regress else 0


# ----------------------------------------------------------------------
# calibrate
# ----------------------------------------------------------------------
def calibrate(spec: dict) -> int:
    """Back-to-back full untraced sets on the default seed; record them
    and their medians."""
    seed, seconds = spec["default_seed"], spec["run_seconds"]
    CALIBRATION.mkdir(exist_ok=True)
    files = []
    for i in range(1, CALIBRATION_SETS + 1):
        path = CALIBRATION / f"set-{i}.json"
        code = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--seed", str(seed),
             "--seconds", str(seconds), "--out", str(path)]
        ).returncode
        if code != 0:
            print(f"run.py calibrate: set {i} failed (exit {code})",
                  file=sys.stderr)
            return 1
        files.append(path)
    runs = [json.loads(p.read_text()) for p in files]
    latest = {}
    for name in spec["workloads"]:
        latest[name] = {}
        for metric in spec["end_to_end"]:
            values = [r["workloads"][name]["metrics"][metric] for r in runs]
            latest[name][metric] = {
                "median": statistics.median(values),
                "spread": harness.relative_spread(values),
            }
    spec["latest"] = {
        "measured": time.strftime("%Y-%m-%d"),
        "seed": seed,
        "seconds": seconds,
        "sets": [str(p.relative_to(ROOT)) for p in files],
        "environment": runs[-1]["environment"],
        "workloads": latest,
    }
    SPEC.write_text(json.dumps(spec, indent=2) + "\n")
    print(json.dumps(spec["latest"]["workloads"], indent=1))
    return 0


# ----------------------------------------------------------------------
def parse(argv, spec: dict):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="subcommands: compare FILES..., calibrate",
    )
    parser.add_argument("--workload", choices=list(spec["workloads"]),
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=spec["default_seed"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"],
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="per-layer run (default 0)")
    parser.add_argument("--smoke", action="store_true",
                        help="small graphs, short runs, both passes")
    parser.add_argument("--out", help="result file (default under results/)")
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")
    if args.smoke:
        args.seconds = min(args.seconds, 2)
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = load_spec()
    if argv[:1] == ["compare"]:
        return compare(spec, argv[1:])
    if not (SRC / "repro" / "__init__.py").exists():
        print(f"run.py: the repro sources are missing ({SRC / 'repro'}); "
              f"run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if argv[:1] == ["calibrate"]:
        if argv[1:]:
            print("run.py calibrate: takes no arguments", file=sys.stderr)
            return 2
        return calibrate(spec)
    args = parse(argv, spec)
    if args.workload is None:
        return run_all(spec, args)
    try:
        return run_workload(spec, args)
    except Exception:  # noqa: BLE001 - report any crash as a failed run
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
