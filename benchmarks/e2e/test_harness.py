"""Self-tests of the end-to-end benchmark: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import harness
import loadgen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((HERE / "spec.json").read_text())


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank_percentiles():
    hundred = list(range(1, 101))
    assert harness.percentile(hundred, 50) == 50
    assert harness.percentile(hundred, 99) == 99
    assert harness.percentile(hundred, 100) == 100
    assert harness.percentile([3, 1, 2], 50) == 2
    # nearest rank never interpolates: the lower middle of an even count
    assert harness.percentile([1, 2, 3, 4], 50) == 2
    assert harness.percentile([7.5], 99) == 7.5
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_a_tail_needs_ten_samples_beyond_it():
    assert harness.beyond(1000, 99) == 10
    assert harness.beyond(999, 99) == 9
    assert harness.supported_tail(10_000) == 99.9
    assert harness.supported_tail(1000) == 99.0
    assert harness.supported_tail(999) == 90.0
    assert harness.supported_tail(100) == 90.0
    assert harness.supported_tail(99) is None
    assert harness.supported_tail(3) is None


def test_relative_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9]
    q1, q3 = harness.quartiles(values)
    assert harness.relative_spread(values) == pytest.approx((q3 - q1) / 10.0)


# ----------------------------------------------------------------------
# open-loop timing, with a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FifoServer:
    """One server answering in arrival order, ``service[token]`` each;
    ``poll`` advances the fake clock instead of sleeping."""

    def __init__(self, clock, service):
        self.clock = clock
        self.service = service
        self.free_at = 0.0
        self.pending = {}

    @property
    def in_flight(self):
        return len(self.pending)

    def send(self, token, request):
        start = max(self.clock.now, self.free_at)
        self.free_at = start + self.service[token]
        self.pending[token] = self.free_at

    def poll(self, timeout):
        if self.pending:
            token = min(self.pending, key=self.pending.get)
            if self.pending[token] <= self.clock.now + timeout:
                self.clock.now = max(self.clock.now, self.pending.pop(token))
                return [(token, b"HTTP/1.1 200 OK\r\n\r\n{}", None)]
        self.clock.now += timeout
        return []

    def abort(self, token):
        del self.pending[token]


def test_open_loop_charges_a_stall_to_every_request_it_delays():
    clock = FakeClock()
    server = FifoServer(clock, [0.100, 0.001, 0.001, 0.001, 0.001])
    schedule = [loadgen.Op(i * 0.010, "top", b"") for i in range(5)]
    records = loadgen.OpenLoop(server, clock=clock).run(schedule)
    # the generator kept its schedule through the stall
    assert [r.late for r in records] == pytest.approx([0.0] * 5)
    # request i is due at 10i ms and finishes at (100 + i) ms; a clock
    # started when the server picked it up would read 1 ms for each
    assert [r.latency for r in records] == pytest.approx(
        [0.100 + i * 0.001 - i * 0.010 for i in range(5)]
    )
    assert all(r.error is None for r in records)


def test_open_loop_times_out_an_unanswered_request():
    clock = FakeClock()
    server = FifoServer(clock, [30.0, 0.001])
    schedule = [loadgen.Op(0.0, "top", b""), loadgen.Op(0.5, "top", b"")]
    records = loadgen.OpenLoop(server, clock=clock, timeout=2.0).run(schedule)
    assert records[0].error == "timeout"
    assert 2.0 <= records[0].latency <= 2.1


def test_parse_response():
    status, body = loadgen.parse_response(
        b'HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n{"version": 3}'
    )
    assert (status, body) == (200, {"version": 3})
    assert loadgen.parse_response(b"HTTP/1.0 500 Oops\r\n\r\nnot json") == (500, None)
    assert loadgen.parse_response(b"") == (0, None)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.5, 10.0])
    tracer = harness.Tracer("t", clock=lambda: next(ticks))
    with tracer.span("parent"):
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    selfs = harness.self_times(tracer.spans)
    assert [s["parent"] for s in tracer.spans] == [None, "t/0", "t/0"]
    assert selfs == pytest.approx({"t/0": 10.0 - 1.0 - 1.5, "t/1": 1.0,
                                   "t/2": 1.5})


def test_self_time_counts_overlapping_children_once():
    spans = [
        {"id": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "start": 1.0, "end": 5.0},
        {"id": 2, "parent": 0, "start": 3.0, "end": 12.0},  # overruns
        {"id": 3, "parent": 2, "start": 4.0, "end": 6.0},
    ]
    selfs = harness.self_times(spans)
    assert selfs[0] == pytest.approx(1.0)  # only [0, 1) is uncovered
    assert selfs[2] == pytest.approx(7.0)
    for s in spans:
        assert 0.0 <= selfs[s["id"]] <= s["end"] - s["start"]


def test_memory_spans_fold_child_peaks_into_the_parent():
    tracemalloc.start()
    try:
        tracer = harness.Tracer("m", memory=True)
        with tracer.span("parent"):
            with tracer.span("child"):
                block = bytearray(4 * 2**20)
                del block
    finally:
        tracemalloc.stop()
    parent, child = tracer.spans
    assert child["peak_mb"] >= 4.0
    assert parent["peak_mb"] >= child["peak_mb"]


# ----------------------------------------------------------------------
# parent-vs-change verdicts
# ----------------------------------------------------------------------
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]


@pytest.mark.parametrize("change, status", [
    ([v * 0.8 for v in PARENT], "gain"),
    (PARENT[::-1], "ok"),
    ([v * 1.05 for v in PARENT], "ok"),
    ([v * 1.3 for v in PARENT], "regress"),
])
def test_verdicts(change, status):
    assert harness.verdict(PARENT, change, 0.1, "lower")["status"] == status


def test_higher_is_better_flips_the_direction():
    assert harness.verdict(PARENT, [v * 1.3 for v in PARENT], 0.1,
                           "higher")["status"] == "gain"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0, 60.0, 130.0, 80.0, 110.0, 100.0]
    slightly_worse = [v * 1.15 for v in noisy[::-1]]
    assert harness.verdict(noisy, slightly_worse, 0.1, "lower")["status"] == "unresolved"
    assert harness.row_status(["ok", "gain", "unresolved"]) == "unresolved"
    assert harness.row_status(["ok", "regress", "gain"]) == "regress"
    assert harness.row_status(["ok", "gain"]) == "gain"


def test_compare_needs_ten_pairs(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", "a.json", "b.json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "10 alternating" in proc.stderr


def _result_file(path, seed=1, seconds=20, trace=False, smoke=False):
    metrics = {m: 1.0 for m in SPEC["end_to_end"]}
    path.write_text(json.dumps({
        "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "workloads": {"road-cold": {"metrics": metrics}},
    }))
    return str(path)


@pytest.mark.parametrize("odd, message", [
    ({}, None),
    ({"seconds": 10}, "differ in seconds"),
    ({"trace": True}, "differ in trace"),
    ({"seed": 2}, "mixes seeds"),
])
def test_compare_refuses_files_from_other_settings(tmp_path, odd, message):
    files = [_result_file(tmp_path / f"{i}.json", seed=1 + i // 2)
             for i in range(2 * harness.MIN_PAIRS)]
    _result_file(tmp_path / "1.json", **{"seed": 1, **odd})
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", *files],
        capture_output=True, text=True, timeout=60,
    )
    if message is None:  # pairs on different seeds compare fine
        assert proc.returncode == 0, proc.stderr
        assert "road-cold" in proc.stdout
    else:
        assert proc.returncode == 2
        assert message in proc.stderr


def test_compare_refuses_traced_files(tmp_path):
    traced = [_result_file(tmp_path / f"{i}.json", trace=True)
              for i in range(2 * harness.MIN_PAIRS)]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "compare", *traced],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and "untraced" in proc.stderr


# ----------------------------------------------------------------------
# the benchmark definition
# ----------------------------------------------------------------------
def test_benchmark_json_mirrors_the_spec():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["benchmarks/e2e"]
    assert bench["run_seconds"] == SPEC["run_seconds"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: w["why"] for name, w in SPEC["workloads"].items()
    }
    for metric in bench["end_to_end"]:
        meta = SPEC["end_to_end"][metric["name"]]
        assert (metric["unit"], metric["better"]) == (meta["unit"], meta["better"])
        assert metric["bound"] == max(meta["bounds"].values())
    assert [m["name"] for m in bench["end_to_end"]] == list(SPEC["end_to_end"])
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert list(layer) == [n for n, m in SPEC["per_layer"].items()
                           if m["workloads"] == "all"]
    for name, metric in layer.items():
        meta = SPEC["per_layer"][name]
        assert (metric["unit"], metric["better"]) == (meta["unit"], meta["better"])


# ----------------------------------------------------------------------
# inputs and the whole command (need the repro sources)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as module

    return module


def test_same_seed_same_digest_other_seed_differs(workloads):
    spec = SPEC["workloads"]["serve-delta"]
    first = workloads.make_inputs(spec, 7, smoke=True).digests
    assert workloads.make_inputs(spec, 7, smoke=True).digests == first
    other = workloads.make_inputs(spec, 8, smoke=True).digests
    assert other["edge_list"] != first["edge_list"]
    assert other["stream"] != first["stream"]


def test_default_seed_inputs_match_the_recorded_digests(workloads):
    for name, spec in SPEC["workloads"].items():
        digests = workloads.make_inputs(spec, SPEC["default_seed"]).digests
        assert digests == SPEC["digests"][name], name


def test_smoke_finishes_in_a_minute_with_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 60.0
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    result = json.loads(out.read_text())["workloads"]
    layer_all = {n for n, m in SPEC["per_layer"].items() if m["workloads"] == "all"}
    for name in SPEC["workloads"]:
        assert set(result[f"{name}.trace0"]["metrics"]) == set(SPEC["end_to_end"])
        traced = result[f"{name}.trace1"]
        assert set(traced["metrics"]) == layer_all
        own = {n for n, m in SPEC["per_layer"].items()
               if m["workloads"] != "all" and name in m["workloads"]}
        assert own <= set(traced["extra"]), own - set(traced["extra"])
        spans = json.loads((ROOT / traced["spans_file"]).read_text())
        by_id = {s["id"]: s for s in spans["spans"] if s["run"] == "layers"}
        for s in by_id.values():
            self_s = spans["self_seconds"][s["id"]]
            assert 0.0 <= self_s <= harness.duration(s) + 1e-9
            if s["parent"] is not None:
                assert self_s <= harness.duration(by_id[s["parent"]]) + 1e-9
