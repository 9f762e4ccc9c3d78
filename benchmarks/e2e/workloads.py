"""The benchmark's workloads: seeded inputs, timed runs, traced layers.

Every workload makes its inputs from ``seed`` alone: an analogue graph
written as an edge-list file (the only thing the program reads) and,
for the served workloads, a pre-encoded request stream.  Batch
workloads time ``apgre_bc_detailed(g, APGREConfig())``, the call
``repro-bc compute FILE`` makes; served workloads drive a
``repro-bc serve FILE`` subprocess over a unix socket.  Every output is
checked against Brandes, untimed.

The traced pass (``trace=True``) records spans in this file around
calls into the program's public functions, one layer each: ``repro.io``,
``repro.decompose``, ``bc_subgraph`` (the kernel), ``apgre_bc_detailed``
(the driver), the batched engines, ``repro.cache`` and the daemon.
"""

from __future__ import annotations

import bisect
import gc
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import harness
import loadgen
from repro.baselines.brandes import brandes_bc
from repro.baselines.common import WorkCounter
from repro.cache.fingerprint import subgraph_key
from repro.cache.incremental import apply_edge_delta
from repro.cache.store import ContributionStore
from repro.core.apgre import apgre_bc_detailed
from repro.core.bc_subgraph import bc_subgraph
from repro.core.config import APGREConfig
from repro.decompose.alphabeta import compute_alpha_beta
from repro.decompose.partition import graph_partition
from repro.generators.suite import SUITE_SPECS, analogue_graph
from repro.graph.csr import CSRGraph
from repro.io.registry import load_graph

#: request streams are generated for this long whatever ``--seconds``
#: asks, so their digest does not depend on the run length
STREAM_SECONDS = 60
#: salt separating the stream's random numbers from the graph's
STREAM_SALT = 0xE2E
SETUP_REPEATS = 3
#: agreement with Brandes, per score: |x - ref| <= ATOL + RTOL * |ref|
RTOL = ATOL = 1e-9
#: the memory pass runs each sub-graph's first roots only: the
#: kernel's working set is per source (per batch), not per root set
MEMORY_ROOTS = 64
#: smoke runs shrink every graph by this factor
SMOKE_SHARE = 0.5
REQUEST_TIMEOUT = 60.0
GRAPH_FILE = "graph.txt"
SOCKET = "bc.sock"

#: a fresh ``python`` that stops the setup clock once the graph loaded
_COLD_LOAD = (
    "import sys\n"
    "import repro\n"
    "from repro.io.registry import load_graph\n"
    "g = load_graph(sys.argv[1], directed=sys.argv[2] == '1')\n"
    "print('ready', g.n, flush=True)\n"
)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    graph: CSRGraph
    edge_list: bytes
    stream: List[loadgen.Op]
    digests: Dict[str, str]

    def schedule(self, seconds: float) -> List[loadgen.Op]:
        return [op for op in self.stream if op.due < seconds]


def _absent_pairs(graph: CSRGraph, k: int, among: int, rng) -> List[tuple]:
    """``k`` distinct uniform pairs of vertices below ``among`` that
    are not edges."""
    src, dst = graph.arcs()
    existing = set(zip(src.tolist(), dst.tolist()))
    chosen: List[tuple] = []
    while len(chosen) < k:
        a, b = (int(x) for x in rng.integers(0, among, 2))
        pair = (min(a, b), max(a, b))
        if a != b and pair not in existing and pair not in chosen:
            chosen.append(pair)
    return chosen


def _stream(graph: CSRGraph, spec: Dict, seed: int,
            core: int) -> List[loadgen.Op]:
    """Reads alternate ``/bc?top=10`` and ``/vertex/<v>`` at
    ``read_rate``; deltas add one absent edge every ``delta_interval``
    seconds, the first half an interval in.

    Delta edges join two vertices of the analogue's core, its dominant
    biconnected component (ids below ``core``).  A pair drawn from the
    whole graph often merges satellites into that component, so the
    cost of a delta drifted up by as much as 2x along a stream and the
    per-seed median spread 13-19%; inside the core every delta dirties
    the same component.
    """
    rng = np.random.default_rng([seed, STREAM_SALT])
    rate = spec["read_rate"]
    count = rate * STREAM_SECONDS
    vertices = rng.integers(0, graph.n, count).tolist()
    ops = []
    for i, v in enumerate(vertices):
        if i % 2:
            ops.append(loadgen.Op(i / rate, "vertex",
                                  loadgen.get(f"/vertex/{v}"), v))
        else:
            ops.append(loadgen.Op(i / rate, "top", loadgen.get("/bc?top=10")))
    interval = spec.get("delta_interval")
    if interval:
        pairs = _absent_pairs(graph, int(STREAM_SECONDS / interval), core,
                              rng)
        for j, (u, v) in enumerate(pairs):
            ops.append(loadgen.Op(
                interval / 2 + j * interval, "delta",
                loadgen.post("/delta", f"+ {u} {v}\n".encode()), (u, v),
            ))
    ops.sort(key=lambda op: op.due)
    return ops


def _core_size(name: str, scale: float) -> int:
    """Vertices in an analogue's core, as ``analogue_graph`` sizes it."""
    kind, size = SUITE_SPECS[name].core[:2]
    if kind != "powerlaw":
        raise ValueError(f"{name}: only power-law cores are sized here")
    return max(int(round(size * scale)), 1)


def make_inputs(spec: Dict, seed: int, *, smoke: bool = False) -> Inputs:
    scale = spec["scale"] * (SMOKE_SHARE if smoke else 1.0)
    graph = analogue_graph(spec["graph"], scale=scale, seed=seed)
    src, dst = graph.arcs()
    used = np.unique(np.concatenate([src, dst]))
    if used.size < graph.n:
        # an isolated vertex cannot appear in an edge list; renumber
        # as the loader will, so the program and the checks agree
        graph = CSRGraph.from_arcs(
            used.size, np.searchsorted(used, src), np.searchsorted(used, dst),
            directed=graph.directed,
        )
        src, dst = graph.arcs()
    if not graph.directed:
        keep = src < dst
        src, dst = src[keep], dst[keep]
    edge_list = "".join(
        f"{u} {v}\n" for u, v in zip(src.tolist(), dst.tolist())
    ).encode()
    stream = []
    if spec["kind"] == "serve":
        # analogue_graph numbers its core first; renumbering keeps order
        core = int(np.searchsorted(used, _core_size(spec["graph"], scale)))
        stream = _stream(graph, spec, seed, core)
    digests = {"edge_list": harness.digest(edge_list)}
    if stream:
        digests["stream"] = harness.digest(
            *(f"{op.due:.6f} ".encode() + op.request for op in stream)
        )
    return Inputs(graph, edge_list, stream, digests)


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """Metrics, sample counts and the correctness tally of one run.

    ``raw`` holds every timing and memory figure measured, the
    unbounded read p99 included; ``metrics`` the ones the run reports.
    """

    metrics: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    raw: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    spans: List[Dict] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
        return ok

    def timing(self, name: str, samples: List[float], q: float,
               scale: float = 1.0) -> None:
        self.raw[name] = harness.percentile(samples, q) * scale
        self.counts[name] = len(samples)


def _close(scores, ref) -> bool:
    try:
        scores = np.asarray(scores, dtype=np.float64)
    except (TypeError, ValueError):  # a malformed response body
        return False
    return scores.shape == ref.shape and bool(
        np.allclose(scores, ref, rtol=RTOL, atol=ATOL)
    )


def _fresh(graph: CSRGraph) -> CSRGraph:
    """A new ``CSRGraph`` with the same arcs: no per-graph memo survives."""
    src, dst = graph.arcs()
    return CSRGraph.from_arcs(graph.n, src, dst, directed=graph.directed)


def _reference(graph: CSRGraph, counter=None) -> np.ndarray:
    return brandes_bc(graph, batch_size="auto", counter=counter)


def _warm_up(graph: CSRGraph) -> None:
    """One untimed full run: lazy imports and the first pass's
    allocator growth (~10% of a run) stay out of the timed ones."""
    apgre_bc_detailed(_fresh(graph), APGREConfig())


def _max_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _cold_load(path: str, directed: bool, n: int, env: Dict):
    """Seconds from spawning ``python`` to ``load_graph`` done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", _COLD_LOAD, path, "1" if directed else "0"],
        stdout=subprocess.PIPE, env=env,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.wait(timeout=120)
    return elapsed, line.split() == [b"ready", str(n).encode()]


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_batch(inputs: Inputs, seconds: float, out: Outcome, env: Dict,
              setup_repeats: int) -> None:
    g0 = inputs.graph
    setups = []
    for _ in range(setup_repeats):
        elapsed, ok = _cold_load(GRAPH_FILE, g0.directed, g0.n, env)
        out.check(ok, "cold load did not report the graph")
        setups.append(elapsed)
    out.timing("setup_s", setups, 50)

    loaded = load_graph(GRAPH_FILE, directed=g0.directed)
    out.check(loaded.num_arcs == g0.num_arcs and loaded.n == g0.n,
              "edge list does not load back to the generated graph")
    _warm_up(loaded)

    times, results = [], []
    begin = time.perf_counter()
    while True:
        graph = _fresh(loaded)
        t0 = time.perf_counter()
        scores = apgre_bc_detailed(graph, APGREConfig()).scores
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        results.append(scores)
        # stop before a run that would end past the budget
        if time.perf_counter() - begin + elapsed > seconds:
            break
    out.raw["peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_SELF)
    out.counts["peak_rss_mb"] = 1
    out.timing("p50_ms", times, 50, 1e3)
    out.timing("p99_ms", times, 99, 1e3)
    out.samples["bc_s"] = times
    out.samples["setup_s"] = setups

    ref = _reference(loaded)
    for i, scores in enumerate(results):
        out.check(_close(scores, ref), f"full BC run {i} differs from Brandes")


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
class _Versions:
    """Graph and Brandes scores at each committed daemon version."""

    def __init__(self, base: CSRGraph):
        self.base = base
        self.edges: Dict[int, tuple] = {}  # version -> edge it added
        self._refs: Dict[int, np.ndarray] = {}

    def graph(self, version: int) -> CSRGraph:
        src, dst = self.base.arcs()
        added = [self.edges[v] for v in sorted(self.edges) if v <= version]
        if added:
            extra = np.asarray(added, dtype=np.int64)
            src = np.concatenate([src, extra[:, 0]])
            dst = np.concatenate([dst, extra[:, 1]])
        return CSRGraph.from_arcs(self.base.n, src, dst,
                                  directed=self.base.directed)

    def valid(self, version) -> bool:
        return isinstance(version, int) and (
            version == 1 or version in self.edges
        )

    def ref(self, version: int) -> np.ndarray:
        if version not in self._refs:
            self._refs[version] = _reference(self.graph(version))
        return self._refs[version]


def _check_read(rec: loadgen.Record, body, versions: _Versions) -> bool:
    if body is None or not versions.valid(body.get("version")):
        return False
    ref = versions.ref(body["version"])
    if rec.op.kind == "vertex":
        v = rec.op.arg
        return body.get("vertex") == v and _close([body.get("score")], ref[v:v + 1])
    top = body.get("top")
    if not isinstance(top, list) or len(top) != min(10, ref.size):
        return False
    try:
        ids = [int(v) for v, _ in top]
        got = [float(s) for _, s in top]
    except (TypeError, ValueError):
        return False
    if min(ids) < 0 or max(ids) >= ref.size:
        return False
    best = np.sort(ref)[::-1][:len(top)]
    return _close(got, ref[ids]) and _close(sorted(got, reverse=True), best)


def _check_stream(records, versions: _Versions, out: Outcome) -> None:
    """Status, body, score and version checks for every request."""
    decoded = []
    for rec in records:
        status, body = loadgen.parse_response(rec.raw)
        ok = rec.error is None and status == 200 and body is not None
        if rec.op.kind == "delta":
            ok = ok and body.get("edges_added") == 1 and isinstance(
                body.get("version"), int)
            if out.check(ok, f"delta {rec.op.arg} did not commit "
                             f"({rec.error or status})"):
                versions.edges[body["version"]] = rec.op.arg
        decoded.append((rec, body if ok else None, ok))
    committed = sorted(versions.edges)
    if committed:
        out.check(committed == list(range(2, 2 + len(committed))),
                  f"committed versions are not consecutive: {committed}")

    # a response may not be older than one already received before
    # its request was sent
    finished = sorted((rec.done, body["version"]) for rec, body, ok in decoded
                      if ok)
    done_at = [d for d, _ in finished]
    floor, high = [], 0
    for _, version in finished:
        high = max(high, version)
        floor.append(high)
    for rec, body, ok in decoded:
        if rec.op.kind == "delta":
            continue
        if ok:
            seen = bisect.bisect_left(done_at, rec.sent)
            ok = _check_read(rec, body, versions) and (
                seen == 0 or body["version"] >= floor[seen - 1]
            )
        out.check(ok, f"{rec.op.kind} read failed or wrong "
                      f"({rec.error or 'bad body, score or version'})")


def _serve_extras(records, stats, out: Outcome) -> None:
    """Client-side and ``/stats`` numbers of the serve layer."""
    reads = [r for r in records if r.op.kind != "delta"]
    deltas = [r for r in records if r.op.kind == "delta"]
    bodies = [loadgen.parse_response(r.raw)[1] for r in reads]
    cached = [bool(b and b.get("cached")) for b in bodies]
    out.extra["serve.read_cached_frac"] = sum(cached) / max(len(cached), 1)
    lru = (stats or {}).get("score_lru") or {}
    lookups = lru.get("hits", 0) + lru.get("misses", 0)
    out.extra["serve.lru_hit_ratio"] = lru.get("hits", 0) / max(lookups, 1)
    late = [r.late for r in records if r.sent is not None]
    out.extra["serve.gen_late_p99_ms"] = harness.percentile(late, 99) * 1e3
    out.extra["serve.reads_sent"] = len(reads)
    if deltas:
        out.extra["serve.deltas_sent"] = len(deltas)
        out.extra["serve.read_p50_ms"] = harness.percentile(
            [r.latency for r in reads], 50) * 1e3
        server, wait = [], []
        for r in deltas:
            body = loadgen.parse_response(r.raw)[1] or {}
            if "elapsed_seconds" in body:
                server.append(body["elapsed_seconds"])
                wait.append(r.latency - body["elapsed_seconds"])
        if server:
            out.extra["serve.delta_server_s"] = statistics.median(server)
            out.extra["serve.delta_wait_s"] = statistics.median(wait)


def run_serve(inputs: Inputs, seconds: float, out: Outcome, env: Dict,
              setup_repeats: int, tracer: Optional[harness.Tracer]) -> None:
    base = load_graph(GRAPH_FILE, directed=inputs.graph.directed)
    out.check(base.num_arcs == inputs.graph.num_arcs,
              "edge list does not load back to the generated graph")
    versions = _Versions(base)
    argv = [sys.executable, "-m", "repro.cli", "serve", GRAPH_FILE,
            "--unix-socket", SOCKET]
    if base.directed:
        argv.append("--directed")
    full = loadgen.get("/bc?full=1")
    setups, daemon, stats = [], None, None
    try:
        for k in range(setup_repeats):
            daemon = loadgen.Daemon(argv, cwd=".", env=env, socket_path=SOCKET,
                                    log_path=f"daemon-{k}.log")
            t0 = daemon.start()
            status, body = loadgen.parse_response(daemon.first_response(full))
            setups.append(time.perf_counter() - t0)
            out.check(status == 200 and body is not None
                      and body.get("version") == 1
                      and _close(body.get("scores"), versions.ref(1)),
                      "first /bc?full=1 differs from Brandes")
            if k < setup_repeats - 1:
                out.check(daemon.stop(), "daemon did not drain cleanly")

        transport = loadgen.UnixHTTP(SOCKET)
        gc.disable()  # keep collector pauses out of the generator
        try:
            records = loadgen.OpenLoop(
                transport, timeout=REQUEST_TIMEOUT).run(inputs.schedule(seconds))
        finally:
            gc.enable()
            transport.close()
        stats = loadgen.parse_response(daemon.request(loadgen.get("/stats")))[1]
        final = loadgen.parse_response(daemon.request(full))
        out.check(daemon.stop(), "daemon did not drain cleanly")
    finally:
        if daemon is not None:
            daemon.kill()
    out.raw["peak_rss_mb"] = _max_rss_mb(resource.RUSAGE_CHILDREN)
    out.counts["peak_rss_mb"] = 1
    out.timing("setup_s", setups, 50)
    out.samples["setup_s"] = setups

    _check_stream(records, versions, out)
    status, body = final
    last = max([1, *versions.edges])
    out.check(status == 200 and body is not None and body.get("version") == last
              and _close(body.get("scores"), versions.ref(last)),
              "final /bc?full=1 differs from Brandes on the final graph")

    reads = [r.latency for r in records if r.op.kind != "delta"]
    deltas = [r.latency for r in records if r.op.kind == "delta"]
    if deltas:
        out.samples["delta_s"] = deltas
        out.timing("p50_ms", deltas, 50, 1e3)
    else:
        out.timing("p50_ms", reads, 50, 1e3)
    out.timing("p99_ms", reads, 99, 1e3)
    _serve_extras(records, stats, out)
    if tracer is not None:
        for r in records:
            if r.done is not None:
                tracer.record(f"serve.{r.op.kind}", r.due, r.done, sent=r.sent)
        replay_deltas(base, [versions.edges[v] for v in sorted(versions.edges)],
                      versions, out, tracer)


# ----------------------------------------------------------------------
# traced layers
# ----------------------------------------------------------------------
def _span_seconds(tracer: harness.Tracer, name: str) -> float:
    return sum(harness.duration(s) for s in tracer.named(name))


def _peak_mb(tracer: harness.Tracer, *names: str) -> float:
    return max(s["peak_mb"] for n in names for s in tracer.named(n))


def run_layers(directed: bool, out: Outcome, timed: harness.Tracer,
               memory: harness.Tracer) -> None:
    """Per-layer numbers of one default APGRE run on the workload graph.

    Spans time the layers with ``tracemalloc`` off; a second, memory
    pass repeats the decomposition and each sub-graph's first
    ``MEMORY_ROOTS`` roots with it on.  The same calls are then timed
    without spans for ``trace.overhead_frac``.
    """
    cfg = APGREConfig()
    kernel_args = dict(eliminate_pendants=cfg.eliminate_pendants,
                       batch_size=cfg.batch_size, compress=cfg.compress,
                       kernel=cfg.kernel)
    with timed.span("io.load"):
        graph = load_graph(GRAPH_FILE, directed=directed)
    with timed.span("decompose.partition"):
        part = graph_partition(graph, threshold=cfg.threshold)
    with timed.span("decompose.alpha_beta"):
        compute_alpha_beta(graph, part, method=cfg.alpha_beta_method)
    counter = WorkCounter()
    scores = np.zeros(graph.n)
    with timed.span("kernel.pass"):
        for sg in part.subgraphs:
            with timed.span("kernel.subgraph", index=sg.index,
                            vertices=sg.num_vertices, roots=int(sg.roots.size)):
                local = bc_subgraph(sg, counter=counter, **kernel_args)
            scores[sg.vertices] += local
    ref_counter = WorkCounter()
    ref = _reference(graph, ref_counter)
    out.check(_close(scores, ref), "traced kernel pass differs from Brandes")

    fresh = _fresh(graph)
    t0 = time.perf_counter()
    plain = graph_partition(fresh, threshold=cfg.threshold)
    compute_alpha_beta(fresh, plain, method=cfg.alpha_beta_method)
    decompose_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    result = apgre_bc_detailed(fresh, cfg, partition=plain)
    bc_phase_s = time.perf_counter() - t0
    out.check(_close(result.scores, ref), "driver run differs from Brandes")
    engines = {}
    for label, engine_cfg in (
        ("serial_batched", APGREConfig(batch_size="auto")),
        ("threads2", APGREConfig(backend="threads", workers=2)),
    ):
        t0 = time.perf_counter()
        result = apgre_bc_detailed(fresh, engine_cfg, partition=plain)
        engines[label] = time.perf_counter() - t0
        out.check(_close(result.scores, ref), f"engine {label} differs from Brandes")

    tracemalloc.start()
    try:
        again = _fresh(graph)
        with memory.span("decompose.partition"):
            mpart = graph_partition(again, threshold=cfg.threshold)
        with memory.span("decompose.alpha_beta"):
            compute_alpha_beta(again, mpart, method=cfg.alpha_beta_method)
        for sg in mpart.subgraphs:
            with memory.span("kernel.subgraph", index=sg.index):
                bc_subgraph(sg, roots=sg.roots[:MEMORY_ROOTS], **kernel_args)
    finally:
        tracemalloc.stop()

    kernel = timed.named("kernel.subgraph")
    top = sum(harness.duration(s) for s in kernel if s["index"] == 0)
    rest = sum(harness.duration(s) for s in kernel if s["index"] != 0)
    edges = counter.examined
    traced_bc = sum(_span_seconds(timed, n) for n in (
        "decompose.partition", "decompose.alpha_beta", "kernel.pass"))
    out.metrics.update({
        "io.load_s": _span_seconds(timed, "io.load"),
        "decompose.partition_s": _span_seconds(timed, "decompose.partition"),
        "decompose.alpha_beta_s": _span_seconds(timed, "decompose.alpha_beta"),
        "decompose.subgraphs": len(part.subgraphs),
        "decompose.top_subgraph_frac": part.top.num_vertices / graph.n,
        "decompose.sources_frac":
            sum(int(sg.roots.size) for sg in part.subgraphs) / graph.n,
        "decompose.peak_mb": _peak_mb(memory, "decompose.partition",
                                      "decompose.alpha_beta"),
        "kernel.top_s": top,
        "kernel.rest_s": rest,
        "kernel.edges": edges,
        "kernel.teps": edges / (top + rest),
        "kernel.edges_saved_frac": 1.0 - edges / ref_counter.examined,
        "kernel.peak_mb": _peak_mb(memory, "kernel.subgraph"),
        "driver.bc_phase_s": bc_phase_s,
        "driver.overhead_s": bc_phase_s - (top + rest),
        "engine.serial_batched_s": engines["serial_batched"],
        "engine.threads2_s": engines["threads2"],
        "engine.threads2_speedup":
            engines["serial_batched"] / engines["threads2"],
        "trace.overhead_frac": traced_bc / (decompose_s + bc_phase_s) - 1.0,
    })


def replay_deltas(base: CSRGraph, edges: List[tuple], versions: _Versions,
                  out: Outcome, tracer: harness.Tracer) -> None:
    """The daemon's delta path, in process and layer by layer.

    Mirrors ``apgre_bc_delta`` on the committed edge stream: apply the
    edge, re-decompose, fingerprint every sub-graph, then let the
    cached driver replay the clean ones.
    """
    if not edges:
        return
    store = ContributionStore()
    cfg = APGREConfig(cache=store)
    graph = _fresh(base)
    with tracer.span("cache.warm"):
        apgre_bc_detailed(graph, cfg)
    hits = misses = replayed = traversed = recomputed = 0
    for i, edge in enumerate(edges):
        with tracer.span("delta", index=i, edge=list(edge)):
            with tracer.span("delta.apply"):
                graph = apply_edge_delta(graph, edges_added=[edge])
            with tracer.span("delta.partition"):
                part = graph_partition(graph, threshold=cfg.threshold)
            with tracer.span("delta.alpha_beta"):
                compute_alpha_beta(graph, part, method=cfg.alpha_beta_method)
            with tracer.span("cache.fingerprint"):
                for sg in part.subgraphs:
                    subgraph_key(sg, eliminate_pendants=cfg.eliminate_pendants)
            before = store.stats()
            with tracer.span("delta.recompute"):
                result = apgre_bc_detailed(graph, cfg, partition=part)
            after = store.stats()
        hits += after["hits"] - before["hits"]
        misses += after["misses"] - before["misses"]
        replayed += result.stats.edges_replayed
        traversed += result.stats.edges_traversed
        recomputed += result.stats.subgraphs_recomputed
    out.check(_close(result.scores, versions.ref(1 + len(edges))),
              "in-process delta replay differs from Brandes")

    def median_of(name):
        return statistics.median(harness.duration(s) for s in tracer.named(name))

    out.extra.update({
        "delta.apply_s": median_of("delta.apply"),
        "delta.partition_s": median_of("delta.partition"),
        "delta.alpha_beta_s": median_of("delta.alpha_beta"),
        "cache.fingerprint_s": median_of("cache.fingerprint"),
        "delta.recompute_s": median_of("delta.recompute"),
        "delta.subgraphs_recomputed": recomputed / len(edges),
        "cache.hit_ratio": hits / max(hits + misses, 1),
        "cache.replay_edge_frac": replayed / max(replayed + traversed, 1),
    })


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def run(spec: Dict, inputs: Inputs, *, seconds: float, trace: bool,
        smoke: bool, env: Dict) -> Outcome:
    """Run one workload in the current directory (its working directory).

    Untraced runs leave their timings in ``raw``; the caller picks the
    end-to-end metrics from them.
    """
    with open(GRAPH_FILE, "wb") as fh:
        fh.write(inputs.edge_list)
    out = Outcome()
    repeats = 1 if smoke or trace else SETUP_REPEATS
    if not trace:
        if spec["kind"] == "batch":
            run_batch(inputs, seconds, out, env, repeats)
        else:
            run_serve(inputs, seconds, out, env, repeats, None)
        return out
    timed = harness.Tracer("layers")
    memory = harness.Tracer("memory", memory=True)
    _warm_up(inputs.graph)
    run_layers(inputs.graph.directed, out, timed, memory)
    spans = timed.spans + memory.spans
    if spec["kind"] == "serve":
        serve = harness.Tracer("serve")
        run_serve(inputs, seconds, out, env, repeats, serve)
        spans += serve.spans
    out.spans = spans
    return out
