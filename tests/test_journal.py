"""The crash-safe run journal and its resume contract.

Three layers of coverage:

* the record format (checksummed framing, torn-tail detection);
* :class:`repro.journal.RunJournal` (fingerprint pinning, replay,
  payload digest verification, write-failure degradation);
* the end-to-end resume contract: a run killed at *any* injected
  fault point — SIGKILL mid-commit included — followed by
  ``resume=True`` reproduces Brandes to 1e-9 while recomputing
  strictly fewer sub-graphs, with exact edge-tally identity
  (``edges_resumed + edges_replayed + edges_traversed`` equals the
  from-scratch tally), across every execution path.

The kill/interrupt tests spawn real subprocesses (SIGKILL runs no
Python cleanup, which is the whole point); they build the same graph
from the same edge list as the in-process fixtures so parent and
child agree on the journal fingerprint.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.brandes import brandes_bc
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.errors import AlgorithmError, JournalError
from repro.graph.build import from_edges
from repro.journal import (
    JOURNAL_VERSION,
    RunJournal,
    decode_line,
    encode_record,
    payload_digest,
    run_fingerprint,
    scan_log,
)
from repro.parallel.faults import FaultSpec, injected_faults

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The shared test graph: a K7 and a K5 joined through a degree-2
# bridge vertex, plus a pendant 2-path — several BCCs, so threshold=2
# yields a handful of independently journalable sub-graphs.  The edge
# list is also inlined into subprocess scripts, so parent and child
# build fingerprint-identical graphs.
EDGES_SRC = (
    "edges = ("
    "[(i, j) for i in range(7) for j in range(i + 1, 7)]"
    " + [(8 + i, 8 + j) for i in range(5) for j in range(i + 1, 5)]"
    " + [(6, 7), (7, 8), (8, 13), (13, 14)])"
)
_ns: dict = {}
exec(EDGES_SRC, _ns)
EDGES = _ns["edges"]


def make_graph():
    return from_edges(EDGES, n=15, directed=False)


@pytest.fixture(scope="module")
def graph():
    return make_graph()


@pytest.fixture(scope="module")
def reference(graph):
    return brandes_bc(graph)


def config_for(journal_dir, resume=False, **kw):
    return APGREConfig(
        threshold=2, journal_dir=str(journal_dir), resume=resume, **kw
    )


def contribution_lines(journal_dir):
    """The raw log lines holding valid contribution records."""
    log = Path(journal_dir) / "journal.log"
    out = []
    for line in log.read_bytes().splitlines(keepends=True):
        body = decode_line(line)
        if body is not None and body.get("type") == "contribution":
            out.append(line)
    return out


def truncate_to(journal_dir, keep):
    """Rewrite the log as header + the first ``keep`` contributions.

    This is the deterministic stand-in for "the process died after
    ``keep`` commits": the bytes on disk are exactly what a crash at
    that point leaves behind (no final record, later payloads stale).
    """
    log = Path(journal_dir) / "journal.log"
    kept, contribs = [], 0
    for line in log.read_bytes().splitlines(keepends=True):
        body = decode_line(line)
        if body is None:
            break
        if body.get("type") == "header":
            kept.append(line)
        elif body.get("type") == "contribution" and contribs < keep:
            kept.append(line)
            contribs += 1
    log.write_bytes(b"".join(kept))
    return contribs


# ----------------------------------------------------------------------
# record format
# ----------------------------------------------------------------------
class TestRecordFormat:
    def test_roundtrip(self):
        body = {"type": "contribution", "subgraph": 3, "edges": 42}
        assert decode_line(encode_record(body)) == body

    def test_torn_line_without_newline_is_dead(self):
        line = encode_record({"type": "final", "status": "complete"})
        assert decode_line(line[:-1]) is None
        assert decode_line(line[: len(line) // 2]) is None

    def test_wrong_magic_is_dead(self):
        line = encode_record({"type": "final"})
        assert decode_line(b"J9" + line[2:]) is None

    def test_flipped_byte_fails_checksum(self):
        line = bytearray(encode_record({"type": "final", "x": 1000}))
        line[-3] ^= 0x01  # corrupt one payload byte
        assert decode_line(bytes(line)) is None

    def test_scan_stops_at_first_invalid_line(self, tmp_path):
        good1 = encode_record({"type": "header", "version": 1})
        good2 = encode_record({"type": "contribution", "subgraph": 0})
        torn = encode_record({"type": "contribution", "subgraph": 1})[:-9]
        log = tmp_path / "journal.log"
        log.write_bytes(good1 + good2 + torn)
        records, valid = scan_log(log)
        assert [r["type"] for r in records] == ["header", "contribution"]
        assert valid == len(good1) + len(good2)

    def test_scan_missing_file_is_empty(self, tmp_path):
        assert scan_log(tmp_path / "absent.log") == ([], 0)

    def test_payload_digest_is_content_addressed(self):
        assert payload_digest(b"abc") == payload_digest(b"abc")
        assert payload_digest(b"abc") != payload_digest(b"abd")


# ----------------------------------------------------------------------
# RunJournal unit behaviour
# ----------------------------------------------------------------------
class TestRunJournal:
    def fingerprint(self, graph):
        return run_fingerprint(graph, APGREConfig(threshold=2))

    def test_fresh_begin_writes_header(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        assert journal.begin(self.fingerprint(graph)) == {}
        journal.record_contribution(0, np.ones(4), 7)
        journal.finalize("complete")
        records, _ = scan_log(tmp_path / "journal.log")
        assert [r["type"] for r in records] == [
            "header", "contribution", "final",
        ]
        assert records[0]["version"] == JOURNAL_VERSION
        assert records[0]["fingerprint"] == self.fingerprint(graph)
        assert records[2]["status"] == "complete"

    def test_resume_replays_records(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.record_contribution(2, np.arange(5, dtype=float), 11)
        journal.finalize("complete")
        entries = RunJournal(tmp_path).begin(
            self.fingerprint(graph), resume=True
        )
        assert set(entries) == {2}
        np.testing.assert_array_equal(
            entries[2].scores, np.arange(5, dtype=float)
        )
        assert entries[2].edges == 11

    def test_resume_without_journal_raises(self, tmp_path, graph):
        with pytest.raises(JournalError, match="does not exist"):
            RunJournal(tmp_path).begin(
                self.fingerprint(graph), resume=True
            )

    def test_resume_graph_mismatch_raises(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.finalize("complete")
        other = from_edges([(0, 1), (1, 2)], n=3, directed=False)
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            RunJournal(tmp_path).begin(
                self.fingerprint(other), resume=True
            )

    def test_resume_config_mismatch_raises(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.finalize("complete")
        changed = run_fingerprint(graph, APGREConfig(threshold=9))
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            RunJournal(tmp_path).begin(changed, resume=True)

    def test_execution_strategy_does_not_change_fingerprint(self, graph):
        import hashlib

        from repro.journal.journal import _config_digest

        base = run_fingerprint(graph, APGREConfig(threshold=2))
        pooled = run_fingerprint(
            graph,
            APGREConfig(threshold=2, backend="processes", workers=4),
        )
        assert base == pooled
        # the digest text is pinned: journals written by earlier
        # releases must keep resuming
        legacy = hashlib.blake2b(
            b"threshold=2;alpha_beta_method=auto;eliminate_pendants=True",
            digest_size=16,
        ).hexdigest()
        assert _config_digest(APGREConfig(threshold=2)) == legacy
        assert base["config"] == legacy

    def test_newer_version_raises(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.finalize("complete")
        records, _ = scan_log(tmp_path / "journal.log")
        records[0]["version"] = JOURNAL_VERSION + 1
        (tmp_path / "journal.log").write_bytes(
            b"".join(encode_record(r) for r in records)
        )
        with pytest.raises(JournalError, match="version"):
            RunJournal(tmp_path).begin(
                self.fingerprint(graph), resume=True
            )

    def test_corrupt_payload_degrades_to_recompute(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.record_contribution(0, np.ones(4), 1)
        journal.record_contribution(1, np.ones(4), 1)
        journal.finalize("complete")
        payload = tmp_path / "sg-000001.npy"
        payload.write_bytes(payload.read_bytes()[:10])  # torn rename
        entries = RunJournal(tmp_path).begin(
            self.fingerprint(graph), resume=True
        )
        assert set(entries) == {0}  # bad digest: never trusted

    def test_fresh_begin_discards_previous_run(self, tmp_path, graph):
        journal = RunJournal(tmp_path)
        journal.begin(self.fingerprint(graph))
        journal.record_contribution(0, np.ones(4), 1)
        journal.finalize("complete")
        journal = RunJournal(tmp_path)
        assert journal.begin(self.fingerprint(graph)) == {}
        journal.finalize("complete")
        assert not list(tmp_path.glob("sg-*.npy"))
        records, _ = scan_log(tmp_path / "journal.log")
        assert [r["type"] for r in records] == ["header", "final"]

    def test_unwritable_dir_raises_journal_error(self, tmp_path, graph):
        blocked = tmp_path / "file"
        blocked.write_text("not a directory")
        with pytest.raises(JournalError, match="journal"):
            RunJournal(blocked / "sub").begin(self.fingerprint(graph))


# ----------------------------------------------------------------------
# the resume contract, across execution paths
# ----------------------------------------------------------------------
PATHS = {
    "serial": {},
    "batched": {"batch_size": 4},
    "threads": {"backend": "threads", "workers": 2},
    "pooled": {"backend": "processes", "workers": 2},
    "pooled-batched": {
        "backend": "processes", "workers": 2, "batch_size": 4,
    },
}


class TestResumeContract:
    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_cold_then_partial_resume(
        self, tmp_path, graph, reference, path
    ):
        kw = PATHS[path]
        cold = apgre_bc_detailed(graph, config_for(tmp_path, **kw))
        np.testing.assert_allclose(cold.scores, reference, atol=1e-9)
        total = cold.stats.num_subgraphs
        assert cold.health.journal_records == total
        assert cold.health.journal_resumable is False

        kept = truncate_to(tmp_path, keep=2)
        assert kept == 2
        resumed = apgre_bc_detailed(
            graph, config_for(tmp_path, resume=True, **kw)
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        assert 0 < resumed.stats.subgraphs_recomputed < total
        assert (
            resumed.stats.subgraphs_resumed
            + resumed.stats.subgraphs_recomputed
            == total
        )
        # exact edge-tally identity: journaled + recomputed edges are
        # precisely the from-scratch tally, so TEPS stays honest
        assert (
            resumed.stats.edges_resumed + resumed.stats.edges_traversed
            == cold.stats.edges_traversed
        )
        assert resumed.health.journal_resumable is True

    def test_full_resume_recomputes_nothing(self, tmp_path, graph,
                                            reference):
        apgre_bc_detailed(graph, config_for(tmp_path))
        again = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(again.scores, reference, atol=1e-9)
        assert again.stats.subgraphs_recomputed == 0
        assert again.stats.edges_traversed == 0
        assert (
            again.stats.subgraphs_resumed == again.stats.num_subgraphs
        )

    def test_resume_under_different_strategy(self, tmp_path, graph,
                                             reference):
        """A serially journaled run resumes on the pooled path, and a
        per-source journal resumes under the default bundled run."""
        apgre_bc_detailed(graph, config_for(tmp_path))
        truncate_to(tmp_path, keep=2)
        resumed = apgre_bc_detailed(
            graph,
            config_for(
                tmp_path, resume=True, backend="processes", workers=2,
            ),
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2

        per_source = tmp_path / "per-source"
        cold = apgre_bc_detailed(
            graph, config_for(per_source, batch_size=None)
        )
        truncate_to(per_source, keep=2)
        resumed = apgre_bc_detailed(graph, config_for(per_source, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        assert resumed.stats.bundles >= 1
        assert (
            resumed.stats.edges_resumed + resumed.stats.edges_traversed
            == cold.stats.edges_traversed
        )

    def test_torn_log_tail_is_dropped(self, tmp_path, graph, reference):
        cold = apgre_bc_detailed(graph, config_for(tmp_path))
        log = tmp_path / "journal.log"
        lines = contribution_lines(tmp_path)
        # keep everything up to a *half* third contribution record
        head = log.read_bytes().split(lines[2])[0]
        log.write_bytes(head + lines[2][: len(lines[2]) // 2])
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        assert (
            resumed.stats.subgraphs_recomputed
            == cold.stats.num_subgraphs - 2
        )

    def test_cache_composition(self, tmp_path, graph, reference):
        """Cache hits are journaled too, so resume never needs the
        store; replay/resume/traverse tallies stay disjoint."""
        from repro.cache.store import ContributionStore

        store = ContributionStore()
        jdir = tmp_path / "journal"
        cold = apgre_bc_detailed(
            graph, config_for(jdir, cache=store)
        )
        total = cold.stats.num_subgraphs
        # second journal dir, warm store: everything replays from the
        # cache and every replay still lands in the journal
        jdir2 = tmp_path / "journal2"
        warm = apgre_bc_detailed(graph, config_for(jdir2, cache=store))
        np.testing.assert_allclose(warm.scores, reference, atol=1e-9)
        assert warm.stats.subgraphs_replayed == total
        assert warm.health.journal_records == total
        # resume from that journal *without* the store
        truncate_to(jdir2, keep=2)
        resumed = apgre_bc_detailed(graph, config_for(jdir2, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2
        # and with the store: the rest replays, nothing recomputes,
        # yet the identity over all three tallies still holds
        truncate_to(jdir2, keep=2)
        mixed = apgre_bc_detailed(
            graph, config_for(jdir2, resume=True, cache=store)
        )
        np.testing.assert_allclose(mixed.scores, reference, atol=1e-9)
        assert mixed.stats.subgraphs_resumed == 2
        assert mixed.stats.subgraphs_replayed == total - 2
        assert mixed.stats.subgraphs_recomputed == 0
        assert (
            mixed.stats.edges_resumed
            + mixed.stats.edges_replayed
            + mixed.stats.edges_traversed
            == cold.stats.edges_traversed
        )

    def test_resume_requires_journal_dir(self):
        with pytest.raises(AlgorithmError, match="resume"):
            APGREConfig(resume=True)

    def test_resume_against_wrong_graph_raises(self, tmp_path, graph):
        apgre_bc_detailed(graph, config_for(tmp_path))
        other = from_edges(
            [(0, 1), (1, 2), (2, 3)], n=15, directed=False
        )
        with pytest.raises(JournalError, match="fingerprint mismatch"):
            apgre_bc_detailed(other, config_for(tmp_path, resume=True))


# ----------------------------------------------------------------------
# disk-fault injection (torn writes, ENOSPC) — never a crash, never
# silent corruption
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestDiskFaults:
    def test_enospc_mid_journal_degrades_and_stays_resumable(
        self, tmp_path, graph, reference
    ):
        # append op 0 is the header; op 2 is the second contribution
        with injected_faults(
            FaultSpec("enospc", task=2, target="journal.append")
        ):
            with pytest.warns(UserWarning, match="journal disabled"):
                run = apgre_bc_detailed(graph, config_for(tmp_path))
        np.testing.assert_allclose(run.scores, reference, atol=1e-9)
        records, _ = scan_log(tmp_path / "journal.log")
        kinds = [r["type"] for r in records]
        assert kinds == ["header", "contribution"]
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 1

    def test_torn_journal_append_degrades_to_clean_resume_point(
        self, tmp_path, graph, reference
    ):
        with injected_faults(
            FaultSpec("torn_write", task=2, target="journal.append")
        ):
            with pytest.warns(UserWarning, match="journal disabled"):
                run = apgre_bc_detailed(graph, config_for(tmp_path))
        np.testing.assert_allclose(run.scores, reference, atol=1e-9)
        # the half-written line was truncated away: the log scans clean
        records, valid = scan_log(tmp_path / "journal.log")
        assert (tmp_path / "journal.log").stat().st_size == valid
        assert [r["type"] for r in records] == ["header", "contribution"]
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)

    def test_torn_payload_is_rejected_by_digest(
        self, tmp_path, graph, reference
    ):
        with injected_faults(
            FaultSpec("torn_write", task=1, target="journal.payload")
        ):
            run = apgre_bc_detailed(graph, config_for(tmp_path))
        np.testing.assert_allclose(run.scores, reference, atol=1e-9)
        total = run.stats.num_subgraphs
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        # exactly one payload fails its digest and recomputes
        assert resumed.stats.subgraphs_resumed == total - 1
        assert resumed.stats.subgraphs_recomputed == 1

    def test_cache_enospc_degrades_to_memory_only(self, tmp_path, graph,
                                                  reference):
        cache_dir = tmp_path / "cache"
        with injected_faults(
            FaultSpec("enospc", task=0, target="cache.disk",
                      attempts=range(99)),
            FaultSpec("enospc", task=1, target="cache.disk"),
            FaultSpec("enospc", task=2, target="cache.disk"),
            FaultSpec("enospc", task=3, target="cache.disk"),
            FaultSpec("enospc", task=4, target="cache.disk"),
        ):
            with pytest.warns(UserWarning, match="memory-only"):
                run = apgre_bc_detailed(
                    graph,
                    APGREConfig(threshold=2, cache_dir=str(cache_dir)),
                )
        np.testing.assert_allclose(run.scores, reference, atol=1e-9)
        assert not list(cache_dir.glob("*.npz"))

    def test_cache_torn_write_degrades_to_miss(self, tmp_path, graph,
                                               reference):
        from repro.cache.store import ContributionStore

        cache_dir = tmp_path / "cache"
        with injected_faults(
            FaultSpec("torn_write", task=0, target="cache.disk")
        ):
            run = apgre_bc_detailed(
                graph, APGREConfig(threshold=2, cache_dir=str(cache_dir))
            )
        np.testing.assert_allclose(run.scores, reference, atol=1e-9)
        # a fresh store sees the torn entry, rejects it, recomputes
        fresh = ContributionStore(cache_dir=cache_dir)
        rerun = apgre_bc_detailed(
            graph, APGREConfig(threshold=2, cache=fresh)
        )
        np.testing.assert_allclose(rerun.scores, reference, atol=1e-9)
        assert fresh.counters.disk_errors >= 1
        assert rerun.stats.subgraphs_recomputed >= 1


# ----------------------------------------------------------------------
# process-death tests: SIGKILL mid-commit, graceful SIGINT/SIGTERM
# ----------------------------------------------------------------------
def run_child(script, timeout=90):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd=str(ROOT),
    )


def spawn_child(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.Popen(
        [sys.executable, "-c", script],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT),
    )


def child_script(journal_dir, fault="", prologue="", epilogue="",
                 config_kw=""):
    return f"""
import sys
from repro.graph.build import from_edges
from repro.core.apgre import apgre_bc_detailed
from repro.core.config import APGREConfig
from repro.parallel.faults import FaultSpec, FaultPlan, install_faults
{EDGES_SRC}
g = from_edges(edges, n=15, directed=False)
{fault}
{prologue}
result = apgre_bc_detailed(
    g, APGREConfig(threshold=2, journal_dir={str(journal_dir)!r}{config_kw})
)
print("FINISHED", result.stats.subgraphs_recomputed)
{epilogue}
"""


@pytest.mark.faults
class TestKillAndResume:
    @pytest.mark.parametrize(
        "path",
        ["serial", "batched", "pooled", "pooled-batched"],
    )
    def test_sigkill_mid_commit_then_resume(
        self, tmp_path, graph, reference, path
    ):
        """SIGKILL at the commit point (power-loss semantics: no
        cleanup runs) leaves a journal that resumes exactly."""
        kw = PATHS[path]
        config_kw = "".join(f", {k}={v!r}" for k, v in kw.items())
        fault = (
            "install_faults(FaultPlan([FaultSpec("
            "'kill', task=1, target='journal.committed')]))"
        )
        proc = run_child(
            child_script(tmp_path, fault=fault, config_kw=config_kw)
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        assert "FINISHED" not in proc.stdout

        # exactly two commits became durable before the kill
        records, _ = scan_log(tmp_path / "journal.log")
        kinds = [r["type"] for r in records]
        assert kinds == ["header", "contribution", "contribution"]

        # from-scratch edge baseline measured serially with the same
        # batch size: the plain pooled pass does not report parent-side
        # edge counts
        kernel_kw = {k: v for k, v in kw.items() if k == "batch_size"}
        cold = apgre_bc_detailed(
            graph, APGREConfig(threshold=2, **kernel_kw)
        )
        resumed = apgre_bc_detailed(
            graph, config_for(tmp_path, resume=True, **kw)
        )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        total = resumed.stats.num_subgraphs
        assert resumed.stats.subgraphs_resumed == 2
        assert 0 < resumed.stats.subgraphs_recomputed < total
        assert (
            resumed.stats.edges_resumed + resumed.stats.edges_traversed
            == cold.stats.edges_traversed
        )

    def test_sigkill_before_record_loses_only_that_record(
        self, tmp_path, graph, reference
    ):
        """Death between payload write and log append: the payload file
        is garbage-on-disk, the log never references it, resume
        recomputes that sub-graph."""
        fault = (
            "install_faults(FaultPlan([FaultSpec("
            "'kill', task=2, target='journal.payload')]))"
        )
        proc = run_child(child_script(tmp_path, fault=fault))
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        records, _ = scan_log(tmp_path / "journal.log")
        assert [r["type"] for r in records] == [
            "header", "contribution", "contribution",
        ]
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2

    def _wait_for_records(self, journal_dir, count, timeout=60.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            records, _ = scan_log(Path(journal_dir) / "journal.log")
            if sum(r["type"] == "contribution" for r in records) >= count:
                return
            time.sleep(0.05)
        raise AssertionError(
            f"journal never reached {count} contribution record(s)"
        )

    def test_sigint_finalizes_interrupted_and_resumes(
        self, tmp_path, graph, reference
    ):
        """Graceful SIGINT: the journal gains a final/interrupted
        record (unlike SIGKILL) and the run exits 130."""
        fault = (
            "install_faults(FaultPlan([FaultSpec("
            "'delay', task=1, seconds=120,"
            " target='journal.committed')]))"
        )
        epilogue = "print('NOT-REACHED')"
        script = child_script(tmp_path, fault=fault, epilogue=epilogue)
        script = (
            "import sys\n"
            "try:\n"
            + "".join(
                "    " + line + "\n" for line in script.splitlines()
            )
            + "except KeyboardInterrupt:\n"
            "    print('INTERRUPTED')\n"
            "    sys.exit(130)\n"
        )
        proc = spawn_child(script)
        try:
            self._wait_for_records(tmp_path, 2)
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hang guard
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "INTERRUPTED" in out
        assert "NOT-REACHED" not in out
        records, _ = scan_log(tmp_path / "journal.log")
        assert records[-1]["type"] == "final"
        assert records[-1]["status"] == "interrupted"
        resumed = apgre_bc_detailed(graph, config_for(tmp_path, resume=True))
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
        assert resumed.stats.subgraphs_resumed == 2

    def test_fallback_disabled_failure_reports_resumable(
        self, tmp_path, graph
    ):
        """Ladder exhaustion with fallback=False finalises the journal
        as a resumable partial result and says so in the error."""
        fault = (
            "install_faults(FaultPlan([FaultSpec("
            "'kill', task=0, attempts=tuple(range(99)))]))"
        )
        config_kw = (
            ", backend='processes', workers=2, fallback=False"
            ", max_retries=0"
        )
        script = child_script(
            tmp_path, fault=fault, config_kw=config_kw,
            epilogue="print('NOT-REACHED')",
        )
        script = (
            "import sys\n"
            "from repro.errors import ExecutionError\n"
            "try:\n"
            + "".join(
                "    " + line + "\n" for line in script.splitlines()
            )
            + "except ExecutionError as exc:\n"
            "    print('EXECERROR:', exc)\n"
            "    sys.exit(3)\n"
        )
        proc = run_child(script)
        assert proc.returncode == 3, proc.stderr
        assert "resume" in proc.stdout
        records, _ = scan_log(tmp_path / "journal.log")
        assert records[-1]["type"] == "final"
        assert records[-1]["status"] == "partial"


# ----------------------------------------------------------------------
# CLI: --journal-dir/--resume, SIGTERM -> 130, repro-bc gc
# ----------------------------------------------------------------------
class TestCLI:
    def write_graph(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in EDGES))
        return path

    def test_compute_journal_and_resume(self, tmp_path, capsys):
        from repro.cli import main

        gpath = self.write_graph(tmp_path)
        jdir = tmp_path / "journal"
        assert main(
            ["compute", str(gpath), "--journal-dir", str(jdir)]
        ) == 0
        out = capsys.readouterr().out
        assert "journal:" in out and "0 sub-graph(s) resumed" in out
        truncate_to(jdir, keep=2)
        assert main(
            ["compute", str(gpath), "--journal-dir", str(jdir),
             "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "2 sub-graph(s) resumed" in out

    def test_resume_requires_journal_dir(self, tmp_path, capsys):
        from repro.cli import main

        gpath = self.write_graph(tmp_path)
        assert main(["compute", str(gpath), "--resume"]) == 2
        assert "--journal-dir" in capsys.readouterr().err

    def test_journal_is_apgre_only(self, tmp_path, capsys):
        from repro.cli import main

        gpath = self.write_graph(tmp_path)
        assert main(
            ["compute", str(gpath), "--algorithm", "serial",
             "--journal-dir", str(tmp_path / "j")]
        ) == 2
        assert "APGRE" in capsys.readouterr().err

    def test_fingerprint_mismatch_exits_2(self, tmp_path, capsys):
        from repro.cli import main

        gpath = self.write_graph(tmp_path)
        jdir = tmp_path / "journal"
        assert main(
            ["compute", str(gpath), "--journal-dir", str(jdir)]
        ) == 0
        other = tmp_path / "other.txt"
        other.write_text("0 1\n1 2\n2 3\n")
        capsys.readouterr()
        assert main(
            ["compute", str(other), "--journal-dir", str(jdir),
             "--resume"]
        ) == 2
        assert "fingerprint mismatch" in capsys.readouterr().err

    @pytest.mark.faults
    def test_sigterm_drains_to_exit_130(self, tmp_path):
        """CLI remaps SIGTERM to the graceful-interrupt path: exit
        130, journal finalised as interrupted, resume works."""
        gpath = self.write_graph(tmp_path)
        jdir = tmp_path / "journal"
        script = f"""
import sys
from repro.parallel.faults import FaultSpec, FaultPlan, install_faults
install_faults(FaultPlan([FaultSpec(
    'delay', task=1, seconds=120, target='journal.committed')]))
from repro.cli import main
sys.exit(main([
    "compute", {str(gpath)!r}, "--journal-dir", {str(jdir)!r},
]))
"""
        proc = spawn_child(script)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                records, _ = scan_log(jdir / "journal.log")
                if sum(
                    r["type"] == "contribution" for r in records
                ) >= 2:
                    break
                time.sleep(0.05)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:  # pragma: no cover - hang guard
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, err
        assert "interrupted" in err
        records, _ = scan_log(jdir / "journal.log")
        assert records[-1]["type"] == "final"
        assert records[-1]["status"] == "interrupted"
        # the CLI journaled under its default config, so resume with
        # the defaults too (threshold differs from config_for's)
        resumed = apgre_bc_detailed(
            make_graph(),
            APGREConfig(journal_dir=str(jdir), resume=True),
        )
        assert resumed.stats.subgraphs_resumed >= 2

    def test_gc_lists_and_removes_orphans(self, tmp_path, capsys):
        from repro.cli import main

        # a dead-pid orphan, a live-pid segment, and foreign memory
        orphan = tmp_path / "repro-bc-999999999-deadbeef"
        orphan.write_bytes(b"\x00" * 64)
        live = tmp_path / f"repro-bc-{os.getpid()}-cafecafe"
        live.write_bytes(b"\x00" * 64)
        foreign = tmp_path / "psm_something"
        foreign.write_bytes(b"\x00" * 64)

        assert main(["gc", "--shm-dir", str(tmp_path), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned segment(s)" in out
        assert orphan.exists()  # dry run never removes

        assert main(["gc", "--shm-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 orphaned segment(s) removed" in out
        assert not orphan.exists()
        assert live.exists()
        assert foreign.exists()


@pytest.mark.faults
class TestOrphanReclamation:
    def test_sigkilled_pool_segments_are_reclaimable(self):
        """A creator SIGKILLed along with its resource tracker (group
        kill, OOM sweep, power loss) leaks its named segment — no
        finalizer and no tracker cleanup run; list_orphans identifies
        it by the dead pid in the name and collect_orphans unlinks
        it."""
        from repro.parallel.sharedmem import collect_orphans, list_orphans

        script = """
import os, signal, sys
from multiprocessing import resource_tracker
from repro.parallel.sharedmem import SharedArray
import numpy as np
seg = SharedArray.create((64,), np.float64)
print(seg.name, flush=True)
# take the resource tracker down first: a lone SIGKILL leaves the
# tracker alive to clean up, which is exactly what a group kill or
# power loss does not do
os.kill(resource_tracker._resource_tracker._pid, signal.SIGKILL)
os.kill(os.getpid(), signal.SIGKILL)
"""
        proc = run_child(script)
        assert proc.returncode == -signal.SIGKILL
        name = proc.stdout.strip().split()[-1].lstrip("/")
        assert name.startswith("repro-bc-")
        orphans = list_orphans()
        assert name in {seg.name for seg in orphans}
        removed = collect_orphans()
        assert name in {seg.name for seg in removed}
        assert name not in {seg.name for seg in list_orphans()}

    def test_live_segments_are_never_collected(self):
        from repro.parallel.sharedmem import SharedArray, list_orphans

        with SharedArray.create((16,), np.float64) as seg:
            name = seg.name.lstrip("/")
            assert name not in {s.name for s in list_orphans()}


class TestEnvironmentDriftWarning:
    def test_resume_warns_on_toolchain_drift(self, tmp_path, graph,
                                             reference):
        apgre_bc_detailed(graph, config_for(tmp_path))
        records, valid = scan_log(tmp_path / "journal.log")
        records[0]["environment"]["numpy"] = "0.0.1"
        log = tmp_path / "journal.log"
        tail = log.read_bytes()[valid:]
        log.write_bytes(
            b"".join(encode_record(r) for r in records) + tail
        )
        with pytest.warns(UserWarning, match="toolchain"):
            resumed = apgre_bc_detailed(
                graph, config_for(tmp_path, resume=True)
            )
        np.testing.assert_allclose(resumed.scores, reference, atol=1e-9)
