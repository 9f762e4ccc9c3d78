"""Command-line interface (installed as ``repro-bc``).

Subcommands:

``repro-bc compute GRAPH``
    Exact BC of a graph file (edge list / DIMACS / MatrixMarket),
    printing the top-k vertices.
``repro-bc partition GRAPH``
    Decomposition statistics (the Table-4 view) for one graph file.
``repro-bc info GRAPH``
    Structural summary (size, articulation points, pendant fraction).
``repro-bc convert SRC DST``
    Convert between edge list / DIMACS / MatrixMarket / npz formats.
``repro-bc compare GRAPH``
    Run two algorithms and report timing + score agreement.
``repro-bc bench [EXPERIMENT ...]``
    Run paper experiments (default: all tables and figures) and print
    their tables; honours ``REPRO_SCALE``/``REPRO_GRAPHS``.
``repro-bc suite``
    List the analogue workload suite with sizes at the current scale.
``repro-bc serve GRAPH``
    Long-lived warm-path serving daemon (docs/SERVING.md): the graph,
    decomposition and caches stay resident; full/top-k/per-vertex BC
    and streamed edge deltas over HTTP (TCP or ``--unix-socket``).
``repro-bc query WHAT``
    Client for a running daemon: ``health``/``stats``/``bc``/
    ``vertex``/``delta``, printing the JSON response.
``repro-bc gc``
    List and remove shared-memory segments orphaned by ``kill -9``.

The process is signal-aware: SIGTERM is handled like SIGINT (graceful
drain — in-flight batches finish, the run journal is finalised as
resumable, shared-memory segments are unlinked) and both exit with
code 130.  ``repro-bc serve`` is the exception: a signalled daemon
drains in-flight requests and exits **0** (a clean drain is that
command's success path).  Deliberate failures
(:class:`repro.errors.ReproError`, including a journal fingerprint
mismatch) exit with code 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro._version import __version__

__all__ = ["main", "build_parser"]


def _parse_batch_size(value: str):
    """argparse type for ``--batch-size``: 'auto' or a positive int."""
    if value == "auto":
        return "auto"
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'auto' or a positive integer, got {value!r}"
        ) from None
    if parsed < 1:
        raise argparse.ArgumentTypeError(
            f"batch size must be >= 1, got {parsed}"
        )
    return parsed


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bc`` argument parser (exposed for the tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-bc",
        description="APGRE betweenness centrality (PPoPP'16 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro-bc {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="exact BC of a graph file")
    p_compute.add_argument("graph", help="path to an edge list/.gr/.mtx file")
    p_compute.add_argument(
        "--directed",
        action="store_true",
        help="treat the input as directed (formats without directedness)",
    )
    p_compute.add_argument(
        "--algorithm",
        default="APGRE",
        help="algorithm name (Table-2 spelling, default APGRE)",
    )
    p_compute.add_argument(
        "--top", type=int, default=10, help="print the k highest-BC vertices"
    )
    p_compute.add_argument(
        "--workers",
        type=int,
        default=1,
        help="workers for the execution engine --backend names "
        "(APGRE sub-graph units, or source batches for "
        "serial/preds/batched); > 1 without --backend uses the host "
        "default engine",
    )
    p_compute.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-task wall-clock budget for supervised workers",
    )
    p_compute.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="pool re-dispatches per failed/timed-out task (default 2)",
    )
    p_compute.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail fast instead of degrading to serial execution",
    )
    p_compute.add_argument(
        "--batch-size",
        type=_parse_batch_size,
        default=None,
        metavar="N|auto",
        help="advance N sources at once through the multi-source "
        "batched kernel ('auto', APGRE's default, sizes batches to a "
        "~4 MiB working set; supported by APGRE, serial, preds and "
        "batched)",
    )
    p_compute.add_argument(
        "--backend",
        choices=("auto", "serial", "threads", "processes"),
        default=None,
        help="execution engine for batched source/root fan-out: "
        "worker threads over the shared in-process CSR, the "
        "shared-memory process pool, an inline serial loop, or "
        "'auto' (best for this host, honours REPRO_PARALLEL_BACKEND); "
        "implies --batch-size auto unless one is given",
    )
    p_compute.add_argument(
        "--kernel",
        choices=("auto", "arcs", "spmm"),
        default=None,
        help="compute kernel for the batched traversals: pure-numpy "
        "scatters, scipy sparse-matmul levels, or 'auto' (the host "
        "default); unset: REPRO_KERNEL, else spmm when scipy's "
        "extension loads, else arcs; "
        "implies --batch-size auto unless one is given; an "
        "unavailable kernel degrades to the default with a warning",
    )
    p_compute.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="let idle pool workers steal batches from stragglers "
        "(--no-steal keeps the static LPT placement)",
    )
    p_compute.add_argument(
        "--cache",
        action="store_true",
        help="enable the decomposition-aware contribution cache "
        "(APGRE only): unchanged sub-graphs replay their stored "
        "scores instead of recomputing",
    )
    p_compute.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist cache entries under DIR (implies --cache; "
        "separate invocations pointed at DIR share warmth)",
    )
    p_compute.add_argument(
        "--delta",
        default=None,
        metavar="FILE",
        help="apply an edge-delta file ('+ u v' / '- u v' per line) "
        "and recompute incrementally: the base graph warms the cache, "
        "then only the sub-graphs the delta dirtied are recomputed "
        "(implies --cache)",
    )
    p_compute.add_argument(
        "--journal-dir",
        default=None,
        metavar="DIR",
        help="journal every completed sub-graph contribution to a "
        "crash-safe log under DIR (APGRE only); a killed run can be "
        "picked up with --resume",
    )
    p_compute.add_argument(
        "--resume",
        action="store_true",
        help="resume from the journal in --journal-dir: replay its "
        "valid records and recompute only the rest (fingerprint "
        "mismatch exits 2)",
    )

    p_part = sub.add_parser("partition", help="decomposition statistics")
    p_part.add_argument("graph", help="path to a graph file")
    p_part.add_argument("--directed", action="store_true")
    p_part.add_argument(
        "--threshold", type=int, default=None, help="Algorithm-1 threshold"
    )

    p_info = sub.add_parser(
        "info", help="structural statistics of a graph file"
    )
    p_info.add_argument("graph", help="path to a graph file")
    p_info.add_argument("--directed", action="store_true")
    p_info.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="machine-readable output (the same payload the serving "
        "daemon's /stats embeds under 'registries')",
    )

    p_conv = sub.add_parser(
        "convert", help="convert between graph file formats"
    )
    p_conv.add_argument("source", help="input graph file")
    p_conv.add_argument("target", help="output graph file")
    p_conv.add_argument("--directed", action="store_true")
    p_conv.add_argument(
        "--to",
        dest="target_format",
        default="",
        help="output format (default: by target extension)",
    )

    p_cmp = sub.add_parser(
        "compare", help="compare two BC algorithms on a graph file"
    )
    p_cmp.add_argument("graph", help="path to a graph file")
    p_cmp.add_argument(
        "--reference", default="serial", help="reference algorithm"
    )
    p_cmp.add_argument(
        "--candidate", default="APGRE", help="algorithm under test"
    )
    p_cmp.add_argument("--directed", action="store_true")

    p_bench = sub.add_parser("bench", help="run paper experiments")
    p_bench.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: every table and figure)",
    )
    p_bench.add_argument(
        "--scale", type=float, default=None, help="override REPRO_SCALE"
    )
    p_bench.add_argument(
        "--graphs", default=None, help="override REPRO_GRAPHS (comma list)"
    )
    p_bench.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    p_bench.add_argument(
        "--save",
        default=None,
        help="also write the results as JSON (for repro.bench.diff_results)",
    )
    p_bench.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-run budget (sets REPRO_BENCH_TIMEOUT; slow cells "
        "degrade to '-')",
    )

    sub.add_parser("suite", help="list the analogue workload suite")
    sub.add_parser("selftest", help="quick end-to-end installation check")

    p_serve = sub.add_parser(
        "serve",
        help="warm-path BC serving daemon (graph stays resident)",
    )
    p_serve.add_argument("graph", help="path to a graph file")
    p_serve.add_argument("--directed", action="store_true")
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind address"
    )
    p_serve.add_argument(
        "--port",
        type=int,
        default=8321,
        help="TCP port (0 binds an ephemeral port)",
    )
    p_serve.add_argument(
        "--unix-socket",
        default=None,
        metavar="PATH",
        help="serve on a unix domain socket instead of TCP",
    )
    p_serve.add_argument(
        "--threshold", type=int, default=None, help="Algorithm-1 threshold"
    )
    p_serve.add_argument(
        "--backend",
        choices=("auto", "serial", "threads", "processes"),
        default=None,
        help="default execution backend (requests may override via "
        "?backend=)",
    )
    p_serve.add_argument(
        "--kernel",
        choices=("auto", "arcs", "spmm"),
        default=None,
        help="default compute kernel (requests may override via "
        "?kernel=)",
    )
    p_serve.add_argument(
        "--batch-size",
        type=_parse_batch_size,
        default=None,
        metavar="N|auto",
        help="default batch width for the multi-source kernel "
        "(default 'auto': a ~4 MiB working set)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1, help="default worker count"
    )
    p_serve.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="default work-stealing policy for pooled requests",
    )
    p_serve.add_argument(
        "--no-cache",
        action="store_true",
        help="run without the contribution store (the /delta endpoint "
        "then answers 409 — deltas need replay to be incremental)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist contribution-store entries under DIR",
    )
    p_serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-task budget for supervised execution",
    )
    p_serve.add_argument(
        "--max-retries", type=int, default=2, metavar="N"
    )
    p_serve.add_argument(
        "--no-fallback",
        action="store_true",
        help="fail requests fast instead of degrading to serial",
    )
    p_serve.add_argument(
        "--lru-entries",
        type=int,
        default=64,
        metavar="N",
        help="score-LRU entry budget (materialised final vectors)",
    )
    p_serve.add_argument(
        "--lru-bytes",
        type=int,
        default=512 * 1024 * 1024,
        metavar="BYTES",
        help="score-LRU byte budget (default 512 MiB)",
    )
    p_serve.add_argument(
        "--verbose",
        action="store_true",
        help="per-request access log on stderr",
    )

    p_query = sub.add_parser(
        "query", help="query a running repro-bc serve daemon"
    )
    p_query.add_argument(
        "what",
        choices=("health", "stats", "bc", "vertex", "delta"),
        help="endpoint: /healthz, /stats, /bc, /vertex/<id>, /delta",
    )
    p_query.add_argument("--host", default="127.0.0.1")
    p_query.add_argument("--port", type=int, default=8321)
    p_query.add_argument(
        "--unix-socket", default=None, metavar="PATH",
        help="daemon's unix socket (instead of host/port)",
    )
    p_query.add_argument(
        "--vertex", type=int, default=None, help="vertex id (what=vertex)"
    )
    p_query.add_argument(
        "--top", type=int, default=None, help="top-k ranks (what=bc)"
    )
    p_query.add_argument(
        "--full",
        action="store_true",
        help="full score vector instead of top-k (what=bc)",
    )
    p_query.add_argument(
        "--delta-file",
        default=None,
        metavar="FILE",
        help="edge-delta file to POST ('+ u v' / '- u v' per line; "
        "what=delta)",
    )
    p_query.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="extra query parameter (repeatable): backend=threads, "
        "kernel=arcs, fresh=1, version=3, ...",
    )
    p_query.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="client-side socket timeout",
    )

    p_gc = sub.add_parser(
        "gc",
        help="reclaim shared-memory segments orphaned by kill -9",
    )
    p_gc.add_argument(
        "--dry-run",
        action="store_true",
        help="list orphaned segments without removing them",
    )
    p_gc.add_argument(
        "--shm-dir",
        default=None,
        metavar="DIR",
        help="shared-memory filesystem to scan (default /dev/shm)",
    )
    return parser


def _cmd_compute(args) -> int:
    import numpy as np

    from repro.baselines.registry import get_algorithm
    from repro.io.registry import load_graph

    graph = load_graph(args.graph, directed=args.directed)
    fn = get_algorithm(args.algorithm)
    batched_algos = ("APGRE", "serial", "preds", "batched")
    if args.backend is not None and args.algorithm not in batched_algos:
        print(
            f"repro-bc: error: --backend is not supported by "
            f"{args.algorithm!r} (use APGRE, serial, preds or batched)",
            file=sys.stderr,
        )
        return 2
    kwargs = {}
    if args.algorithm == "APGRE" and (
        args.workers > 1 or args.backend is not None
    ):
        kwargs = {
            "workers": args.workers,
            "timeout": args.timeout,
            "max_retries": args.max_retries,
            "fallback": not args.no_fallback,
            "backend": args.backend,
            "steal": args.steal,
        }
    elif args.algorithm in ("serial", "preds", "batched") and (
        args.workers > 1 or args.backend is not None
    ):
        kwargs = {"workers": args.workers, "steal": args.steal}
        if args.backend is not None:
            kwargs["backend"] = args.backend
    if args.batch_size is not None:
        if args.algorithm not in batched_algos:
            print(
                f"repro-bc: error: --batch-size is not supported by "
                f"{args.algorithm!r} (use APGRE, serial, preds or batched)",
                file=sys.stderr,
            )
            return 2
        kwargs["batch_size"] = args.batch_size
    if args.kernel is not None:
        if args.algorithm not in batched_algos:
            print(
                f"repro-bc: error: --kernel is not supported by "
                f"{args.algorithm!r} (use APGRE, serial, preds or "
                f"batched)",
                file=sys.stderr,
            )
            return 2
        kwargs["kernel"] = args.kernel
    cache_on = (
        args.cache or args.cache_dir is not None or args.delta is not None
    )
    if cache_on and args.algorithm != "APGRE":
        print(
            f"repro-bc: error: --cache/--cache-dir/--delta need the "
            f"decomposition and are not supported by "
            f"{args.algorithm!r} (use APGRE)",
            file=sys.stderr,
        )
        return 2
    journal_on = args.journal_dir is not None or args.resume
    if journal_on:
        if args.algorithm != "APGRE":
            print(
                f"repro-bc: error: --journal-dir/--resume need the "
                f"decomposition and are not supported by "
                f"{args.algorithm!r} (use APGRE)",
                file=sys.stderr,
            )
            return 2
        if args.journal_dir is None:
            print(
                "repro-bc: error: --resume requires --journal-dir "
                "(there is no journal to resume from without one)",
                file=sys.stderr,
            )
            return 2
        kwargs["journal_dir"] = args.journal_dir
        kwargs["resume"] = args.resume
    if args.delta is not None:
        return _compute_delta(args, graph, kwargs)
    if cache_on:
        kwargs["cache"] = True
        if args.cache_dir is not None:
            kwargs["cache_dir"] = args.cache_dir
    journal_note = ""
    if journal_on:
        # run through the detailed API so the resume/journal tallies
        # can be reported alongside the scores
        from repro.core.apgre import apgre_bc_detailed
        from repro.core.config import APGREConfig

        result = apgre_bc_detailed(graph, APGREConfig(**kwargs))
        scores = result.scores
        journal_note = (
            f"# journal: {result.stats.subgraphs_resumed} sub-graph(s) "
            f"resumed, {result.stats.subgraphs_recomputed} recomputed "
            f"({result.health.journal_records} record(s) in "
            f"{args.journal_dir})"
        )
    else:
        scores = fn(graph, **kwargs)
    k = min(args.top, graph.n)
    order = np.argsort(-scores)[:k]
    print(f"# {args.algorithm} BC on {args.graph} "
          f"(n={graph.n}, arcs={graph.num_arcs})")
    print(f"{'vertex':>10s} {'bc':>16s}")
    for v in order.tolist():
        print(f"{v:>10d} {scores[v]:>16.4f}")
    if journal_note:
        print(journal_note)
    return 0


def _compute_delta(args, graph, kwargs) -> int:
    """The ``compute --delta`` path: warm on the base graph, then
    recompute only what the edge delta dirtied."""
    import numpy as np

    from repro.cache.incremental import apgre_bc_delta, parse_delta_file
    from repro.cache.store import ContributionStore
    from repro.core.apgre import apgre_bc_detailed
    from repro.core.config import APGREConfig
    from repro.decompose.alphabeta import compute_alpha_beta
    from repro.decompose.partition import graph_partition

    added, removed = parse_delta_file(args.delta)
    store = ContributionStore(cache_dir=args.cache_dir)
    config = APGREConfig(cache=store, **kwargs)
    # warm (or verify disk warmth) on a partition the delta derives from
    part = graph_partition(graph, threshold=config.threshold)
    compute_alpha_beta(graph, part, method=config.alpha_beta_method)
    apgre_bc_detailed(graph, config, partition=part)
    res = apgre_bc_delta(
        graph, added, removed, cache=store, config=config, partition=part
    )
    stats = res.result.stats
    scores = res.scores
    k = min(args.top, res.graph.n)
    order = np.argsort(-scores)[:k]
    print(
        f"# APGRE BC on {args.graph} + delta {args.delta} "
        f"(n={res.graph.n}, arcs={res.graph.num_arcs}, "
        f"+{len(added)}/-{len(removed)} edges)"
    )
    print(f"{'vertex':>10s} {'bc':>16s}")
    for v in order.tolist():
        print(f"{v:>10d} {scores[v]:>16.4f}")
    print(
        f"# incremental: {stats.subgraphs_replayed} sub-graph(s) "
        f"replayed, {stats.subgraphs_recomputed} recomputed, "
        f"{stats.subgraphs_patched} of them patched "
        f"({stats.edges_replayed} edges replayed, "
        f"{stats.edges_traversed} traversed, "
        f"{stats.edges_unwound} unwound)"
    )
    how = "derived" if stats.partition_derived else "re-partitioned"
    print(f"# partition: {how} in {stats.timings.partition * 1e3:.2f} ms")
    return 0


def _cmd_partition(args) -> int:
    from repro.bench.report import render_table
    from repro.decompose.partition import DEFAULT_THRESHOLD, graph_partition
    from repro.io.registry import load_graph
    from repro.metrics.stats import partition_stats

    graph = load_graph(args.graph, directed=args.directed)
    threshold = (
        args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    )
    partition = graph_partition(graph, threshold=threshold)
    stats = partition_stats(partition, name=os.path.basename(args.graph))
    rows = [
        [i + 1, row.num_vertices, row.num_arcs,
         f"{row.vertex_fraction:.2%}", f"{row.arc_fraction:.2%}"]
        for i, row in enumerate(stats.rows)
    ]
    print(
        render_table(
            f"Partition of {args.graph} "
            f"(#SG={stats.num_subgraphs}, threshold={threshold})",
            ["rank", "#V", "#E", "V/G.V", "E/G.E"],
            rows,
        )
    )
    return 0


def _cmd_info(args) -> int:
    from repro.io.registry import load_graph
    from repro.metrics.stats import bcc_size_histogram, graph_stats

    graph = load_graph(args.graph, directed=args.directed)
    if args.as_json:
        import json

        from repro.introspect import info_payload

        payload = info_payload(
            graph, name=os.path.basename(args.graph), source=args.graph
        )
        print(json.dumps(payload, indent=2))
        return 0
    stats = graph_stats(graph, name=os.path.basename(args.graph))
    print(f"# {stats.name}")
    print(f"vertices             : {stats.num_vertices}")
    print(f"arcs                 : {stats.num_arcs}")
    print(f"directed             : {'yes' if stats.directed else 'no'}")
    print(f"articulation points  : {stats.num_articulation_points}")
    print(
        f"pendant vertices     : {stats.num_pendants} "
        f"({stats.pendant_fraction:.1%})"
    )
    print(f"max degree           : {stats.max_degree}")
    print(f"mean degree          : {stats.mean_degree:.2f}")
    buckets = bcc_size_histogram(graph)
    total = sum(count for _lo, _hi, count in buckets)
    print(f"biconnected components: {total}")
    for lo, hi, count in buckets:
        label = f"{lo}" if hi == lo else f"{lo}-{hi}"
        print(f"  BCC size {label:>13s} : {count}")
    _print_registries()
    return 0


def _print_registries() -> None:
    """Execution-backend and compute-kernel availability listings."""
    from repro.graph.kernels import kernel_report
    from repro.parallel.backends import backend_report

    print("execution backends:")
    for name, row in backend_report().items():
        mark = "available" if row["available"] else "unavailable"
        star = " (default)" if row["default"] else ""
        line = f"  {name:<10s}: {mark}{star}"
        if not row["available"] and row.get("reason"):
            line += f" — {row['reason']}"
        print(line)
    print("compute kernels:")
    for name, row in kernel_report().items():
        mark = "available" if row["available"] else "unavailable"
        star = " (default)" if row["default"] else ""
        line = f"  {name:<10s}: {mark}{star} — {row['description']}"
        if not row["available"] and row.get("reason"):
            line += f" ({row['reason']})"
        print(line)


def _cmd_convert(args) -> int:
    from repro.io.binary import load_npz, save_npz
    from repro.io.registry import load_graph, save_graph

    if str(args.source).endswith(".npz"):
        graph = load_npz(args.source)
    else:
        graph = load_graph(args.source, directed=args.directed)
    if args.target_format == "npz" or (
        not args.target_format and str(args.target).endswith(".npz")
    ):
        save_npz(graph, args.target)
    else:
        save_graph(graph, args.target, fmt=args.target_format)
    print(
        f"wrote {args.target} (n={graph.n}, arcs={graph.num_arcs}, "
        f"{'directed' if graph.directed else 'undirected'})"
    )
    return 0


def _cmd_compare(args) -> int:
    import time

    from repro.baselines.registry import get_algorithm
    from repro.io.registry import load_graph
    from repro.metrics.comparison import compare_scores

    graph = load_graph(args.graph, directed=args.directed)
    results = {}
    for role, name in (("reference", args.reference),
                       ("candidate", args.candidate)):
        fn = get_algorithm(name)
        t0 = time.perf_counter()
        scores = fn(graph)
        results[role] = (name, time.perf_counter() - t0, scores)
    ref_name, ref_t, ref_scores = results["reference"]
    cand_name, cand_t, cand_scores = results["candidate"]
    cmp = compare_scores(ref_scores, cand_scores)
    print(f"# {cand_name} vs {ref_name} on {args.graph}")
    print(f"{ref_name:>16s} : {ref_t:.4f}s")
    print(f"{cand_name:>16s} : {cand_t:.4f}s  (speedup {ref_t / cand_t:.2f}x)")
    print(f"max abs diff     : {cmp.max_abs_diff:.3g}")
    print(f"pearson          : {cmp.pearson:.4f}")
    print(f"kendall tau      : {cmp.kendall:.4f}")
    print(f"top-10% overlap  : {cmp.top10_overlap:.4f}")
    print(f"exact match      : {'yes' if cmp.exact_match else 'no'}")
    return 0


def _cmd_bench(args) -> int:
    if args.scale is not None:
        os.environ["REPRO_SCALE"] = str(args.scale)
    if args.graphs is not None:
        os.environ["REPRO_GRAPHS"] = args.graphs
    if args.timeout is not None:
        os.environ["REPRO_BENCH_TIMEOUT"] = str(args.timeout)
    from repro.bench.registry import experiment_ids, get_experiment

    if args.list:
        for exp_id in experiment_ids():
            print(exp_id)
        return 0
    ids = args.experiments or experiment_ids()
    results = []
    for exp_id in ids:
        result = get_experiment(exp_id)()
        results.append(result)
        print(result.render())
        print()
    if args.save:
        from repro.bench.persistence import save_results
        from repro.bench.workloads import bench_graph_names, bench_scale

        save_results(
            results,
            args.save,
            metadata={
                "scale": bench_scale(),
                "graphs": bench_graph_names(),
            },
        )
        print(f"saved {len(results)} experiment(s) to {args.save}")
    return 0


def _cmd_gc(args) -> int:
    from repro.parallel.sharedmem import (
        DEFAULT_SHM_DIR,
        collect_orphans,
        list_orphans,
    )

    shm_dir = args.shm_dir if args.shm_dir is not None else DEFAULT_SHM_DIR
    if args.dry_run:
        orphans = list_orphans(shm_dir)
        verb = "orphaned"
    else:
        orphans = collect_orphans(shm_dir)
        verb = "removed"
    for seg in orphans:
        print(
            f"{verb}: {seg.name} ({seg.size} bytes, "
            f"dead pid {seg.pid})"
        )
    total = sum(seg.size for seg in orphans)
    print(
        f"# {len(orphans)} orphaned segment(s) {verb} "
        f"({total} bytes) under {shm_dir}"
    )
    return 0


def _cmd_selftest(_args) -> int:
    from repro.selftest import run_selftest

    print(run_selftest())
    return 0


def _cmd_suite(_args) -> int:
    from repro.bench.report import render_table
    from repro.bench.workloads import bench_scale, get_suite

    rows = [
        [name, g.n, g.num_arcs, "Y" if g.directed else "N"]
        for name, g in get_suite().items()
    ]
    print(
        render_table(
            f"Analogue suite (scale={bench_scale()})",
            ["Graph", "#V", "#arcs", "Directed"],
            rows,
        )
    )
    return 0


def _cmd_serve(args) -> int:
    import signal
    import threading

    from repro.cache.store import ContributionStore
    from repro.core.config import APGREConfig
    from repro.io.registry import load_graph
    from repro.serve.score_lru import ScoreLRU
    from repro.serve.server import make_server

    graph = load_graph(args.graph, directed=args.directed)
    store = None
    if args.no_cache:
        if args.cache_dir is not None:
            print(
                "repro-bc: error: --no-cache and --cache-dir are "
                "mutually exclusive",
                file=sys.stderr,
            )
            return 2
    else:
        store = ContributionStore(cache_dir=args.cache_dir)
    cfg_kwargs = {
        "workers": args.workers,
        "steal": args.steal,
        "max_retries": args.max_retries,
        "fallback": not args.no_fallback,
        "cache": store,
    }
    if args.threshold is not None:
        cfg_kwargs["threshold"] = args.threshold
    if args.backend is not None:
        cfg_kwargs["backend"] = args.backend
    if args.kernel is not None:
        cfg_kwargs["kernel"] = args.kernel
    if args.batch_size is not None:
        cfg_kwargs["batch_size"] = args.batch_size
    if args.timeout is not None:
        cfg_kwargs["timeout"] = args.timeout
    base = APGREConfig(**cfg_kwargs)
    lru = ScoreLRU(max_entries=args.lru_entries, max_bytes=args.lru_bytes)
    server = make_server(
        graph,
        host=args.host,
        port=args.port,
        unix_socket=args.unix_socket,
        base_config=base,
        store=store,
        lru=lru,
        name=os.path.basename(args.graph),
        source=args.graph,
        verbose=args.verbose,
    )
    state = server.state
    if args.unix_socket is not None:
        address = f"unix:{args.unix_socket}"
    else:
        address = f"http://{server.server_address[0]}:{server.server_address[1]}"
    print(
        f"repro-bc serve: {args.graph} resident "
        f"(n={graph.n}, arcs={graph.num_arcs}), version 1",
        flush=True,
    )
    print(f"repro-bc serve: listening on {address}", flush=True)

    def _drain(signum, frame):  # pragma: no cover - signal path
        state.draining = True
        # shutdown() blocks until the accept loop notices; it must not
        # run on the thread that is *inside* serve_forever
        threading.Thread(target=server.shutdown, daemon=True).start()

    if threading.current_thread() is threading.main_thread():
        try:
            signal.signal(signal.SIGTERM, _drain)
            signal.signal(signal.SIGINT, _drain)
        except (ValueError, OSError):  # pragma: no cover - platforms
            pass
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    served = sum(state.requests.values())
    print(
        f"repro-bc serve: drained cleanly ({served} request(s) served, "
        f"final version {state.manager.version})",
        flush=True,
    )
    return 0


def _cmd_query(args) -> int:
    import json

    from repro.serve.client import ServeClient

    if args.unix_socket is not None:
        client = ServeClient(
            unix_socket=args.unix_socket, timeout=args.timeout
        )
    else:
        client = ServeClient(
            host=args.host, port=args.port, timeout=args.timeout
        )
    params = {}
    for item in args.param:
        if "=" not in item:
            print(
                f"repro-bc: error: --param expects KEY=VALUE, got "
                f"{item!r}",
                file=sys.stderr,
            )
            return 2
        key, value = item.split("=", 1)
        params[key] = value
    if args.top is not None:
        params["top"] = args.top
    if args.full:
        params["full"] = True
    if args.what == "health":
        payload = client.healthz()
    elif args.what == "stats":
        payload = client.stats()
    elif args.what == "bc":
        payload = client.bc(**params)
    elif args.what == "vertex":
        if args.vertex is None:
            print(
                "repro-bc: error: query vertex needs --vertex ID",
                file=sys.stderr,
            )
            return 2
        payload = client.vertex(args.vertex, **params)
    else:  # delta
        if args.delta_file is None:
            print(
                "repro-bc: error: query delta needs --delta-file FILE",
                file=sys.stderr,
            )
            return 2
        from pathlib import Path

        payload = client.delta(text=Path(args.delta_file).read_text())
    print(json.dumps(payload, indent=2))
    return 0


def _sigterm_to_interrupt(signum, frame):  # pragma: no cover - signal
    raise KeyboardInterrupt


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Deliberate failures (:class:`repro.errors.ReproError` — bad graph
    files, unknown algorithms, unhealthy execution with fallback
    disabled, a journal that cannot honour ``--resume``) and
    file-system errors exit with code 2 and a one-line message on
    stderr instead of a traceback.  SIGTERM is remapped to
    :class:`KeyboardInterrupt` for the whole invocation, so both
    Ctrl-C and ``kill`` drain gracefully — in-flight work finishes,
    journals finalise as resumable, shared memory is unlinked — and
    exit with the conventional code 130.
    """
    args = build_parser().parse_args(argv)
    handlers = {
        "compute": _cmd_compute,
        "partition": _cmd_partition,
        "info": _cmd_info,
        "convert": _cmd_convert,
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "suite": _cmd_suite,
        "selftest": _cmd_selftest,
        "serve": _cmd_serve,
        "query": _cmd_query,
        "gc": _cmd_gc,
    }
    from repro.errors import ReproError

    import signal
    import threading

    previous_term = None
    if threading.current_thread() is threading.main_thread():
        try:
            previous_term = signal.signal(
                signal.SIGTERM, _sigterm_to_interrupt
            )
        except (ValueError, OSError):  # pragma: no cover - platforms
            previous_term = None
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"repro-bc: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("repro-bc: interrupted (work journaled so far is "
              "resumable with --resume)", file=sys.stderr)
        return 130
    finally:
        if previous_term is not None:
            signal.signal(signal.SIGTERM, previous_term)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
