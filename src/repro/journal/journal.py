"""Crash-safe run journal: checkpoint/resume for long BC runs.

APGRE's decomposition makes each sub-graph contribution an
independently recomputable unit; the journal makes each one *durable*
the moment it is complete.  A :class:`RunJournal` writes an
append-only, checksummed log (:mod:`repro.journal.format`) under a
``journal_dir``:

* a **header** pinning the run fingerprint — graph hash and the
  score-relevant :class:`~repro.core.config.APGREConfig` fields — plus
  environment provenance
  (:func:`repro.bench.persistence.environment_provenance`);
* one **contribution** record per completed sub-graph, referencing an
  atomically-written local-coordinate ``.npy`` payload (the same
  write-then-rename discipline as :mod:`repro.cache.store`; the edge
  tally and vector length live in the checksummed log record, so the
  payload is just the raw score array — the cheapest thing
  :func:`numpy.save` can produce, which keeps per-record overhead
  negligible even on graphs that decompose into many small
  sub-graphs).

The APGRE driver commits records parent-side only, after the batched
pool's poisoned-slot recovery, so a killed worker can never journal a
partial delta.  On ``resume=True`` the journal verifies the header
fingerprint (mismatch raises :class:`~repro.errors.JournalError`),
replays every valid record — torn or corrupt tails are detected by
checksum and dropped, never trusted — and the driver recomputes only
the sub-graphs with no surviving record.

Write failures (``ENOSPC``, I/O errors, a yanked disk) **disable** the
journal instead of crashing the run: the log is truncated back to its
last committed record, a single warning is emitted, and the run
continues unjournaled — what is already on disk stays a clean resume
point.  See docs/ROBUSTNESS.md for the crash-recovery matrix.
"""

from __future__ import annotations

import hashlib
import io
import os
import time
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import JournalError
from repro.journal.format import (
    encode_record,
    payload_digest,
    scan_log,
)
from repro.parallel import faults as _faults
from repro.types import SCORE_DTYPE

__all__ = [
    "JOURNAL_VERSION",
    "ResumedContribution",
    "RunJournal",
    "run_fingerprint",
]

#: Journal layout version (header field; a reader refuses newer).
JOURNAL_VERSION = 1

#: Name of the append-only log inside ``journal_dir``.
LOG_NAME = "journal.log"

#: Environment keys whose drift across a resume is worth a warning
#: (never an error: version drift cannot corrupt scores, only change
#: performance or float rounding within the 1e-9 band).
_ENV_WARN_KEYS = ("python", "numpy", "scipy")


def _config_digest(config) -> str:
    """Digest of the APGREConfig fields that determine contributions.

    Only fields that change the partition or the per-sub-graph score
    vectors participate: ``threshold`` (changes the decomposition),
    ``alpha_beta_method`` (as configured) and ``eliminate_pendants``
    (changes the source sets).  Execution strategy — workers, batch
    size, pooling, caching — is deliberately excluded, so a run
    journaled under one strategy can resume under another (e.g. a
    pooled run killed by an OOM resumes serially).
    """
    text = (
        f"threshold={int(config.threshold)};"
        f"alpha_beta_method={config.alpha_beta_method};"
        f"eliminate_pendants={bool(config.eliminate_pendants)}"
    )
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def run_fingerprint(graph, config) -> Dict:
    """The identity a journal pins and a resume must match."""
    from repro.cache.fingerprint import graph_fingerprint

    return {
        "graph": graph_fingerprint(graph),
        "config": _config_digest(config),
        "n": int(graph.n),
    }


@dataclass
class ResumedContribution:
    """One replayed record: local scores + the exact edge tally."""

    scores: np.ndarray
    edges: int


#: Default group-commit interval (seconds): at most one fsync pair
#: per interval instead of per record.  See ``RunJournal(fsync=...)``.
DEFAULT_FSYNC_INTERVAL = 0.05


class RunJournal:
    """Append-only, checksummed journal of completed contributions.

    Parameters
    ----------
    journal_dir:
        Directory holding the log and the payload files (one journal
        per directory).  Created on :meth:`begin`.
    fsync:
        Flush-to-platter discipline.  ``True`` fsyncs every record
        (each commit survives power loss); ``False`` never fsyncs (the
        OS decides); a float is a **group-commit interval** in seconds
        — the default, ``DEFAULT_FSYNC_INTERVAL`` — fsyncing at most
        once per interval plus once at finalisation.  Every record is
        *flushed* regardless, so process death (``SIGKILL``, OOM,
        segfault — the common crashes) never loses a committed record
        under any setting; the interval only bounds how much a true
        power loss can roll back, and the checksummed log plus payload
        digests make any rollback point a clean resume (out-of-order
        durability is safe: a log record whose payload never reached
        the platter fails its digest and is recomputed).
    """

    def __init__(
        self,
        journal_dir: Union[str, Path],
        *,
        fsync: Union[bool, float] = DEFAULT_FSYNC_INTERVAL,
    ) -> None:
        self.dir = Path(journal_dir)
        self.log_path = self.dir / LOG_NAME
        self._fsync = fsync
        self._last_sync = float("-inf")
        self._fh = None
        self._good_offset = 0
        self.failed: Optional[BaseException] = None
        self.records_written = 0
        self.resumed_records = 0
        self.finalized = ""

    def _durability_point(self) -> bool:
        """Whether the write happening now should reach the platter."""
        if self._fsync is True:
            return True
        if self._fsync is False:
            return False
        now = time.monotonic()
        if now - self._last_sync >= float(self._fsync):
            self._last_sync = now
            return True
        return False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(
        self, fingerprint: Dict, *, resume: bool = False
    ) -> Dict[int, ResumedContribution]:
        """Open the journal for a run; returns replayed contributions.

        ``resume=False`` starts fresh: any previous journal in the
        directory is discarded (resume is the explicit opt-in).
        ``resume=True`` requires a valid journal whose header
        fingerprint matches; returns ``{subgraph_index: contribution}``
        for every record that survives checksum and payload-digest
        verification, and truncates the log to that valid prefix so
        new records append at a clean boundary.
        """
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise JournalError(
                f"cannot create journal directory {self.dir}: {exc}"
            ) from exc
        self._drop_stale_tmp()
        if not resume:
            for stale in self.dir.glob("sg-*.npy"):
                try:
                    stale.unlink()
                except OSError:  # pragma: no cover - races are fine
                    pass
            self._open_log(truncate_to=None)
            self._append(self._header_body(fingerprint))
            return {}

        if not self.log_path.exists():
            raise JournalError(
                f"resume requested but {self.log_path} does not exist "
                f"(run once with journal_dir set, without resume)"
            )
        records, valid_bytes = scan_log(self.log_path)
        if not records or records[0].get("type") != "header":
            raise JournalError(
                f"{self.log_path} holds no valid header record — the "
                f"journal is unreadable and cannot anchor a resume"
            )
        header = records[0]
        self._check_header(header, fingerprint)
        entries: Dict[int, ResumedContribution] = {}
        for body in records[1:]:
            if body.get("type") != "contribution":
                continue
            loaded = self._load_payload(body)
            if loaded is not None:
                entries[int(body["subgraph"])] = loaded
        self.resumed_records = len(entries)
        self._open_log(truncate_to=valid_bytes)
        return entries

    def record_contribution(
        self, index: int, scores: np.ndarray, edges: int
    ) -> bool:
        """Durably commit one completed sub-graph contribution.

        Payload first (atomic tmp + rename), log record second — a
        crash between the two leaves an unreferenced payload that the
        next resume simply overwrites.  Returns ``False`` (and
        disables the journal) on any write error; the run proceeds.
        """
        if self.failed is not None or self._fh is None:
            return False
        index = int(index)
        name = f"sg-{index:06d}.npy"
        durable = self._durability_point()
        try:
            digest = self._write_payload(name, scores, durable)
            self._append(
                {
                    "type": "contribution",
                    "subgraph": index,
                    "payload": name,
                    "digest": digest,
                    "n": int(np.asarray(scores).size),
                    "edges": int(edges),
                },
                durable,
            )
        except OSError as exc:
            self._disable(exc)
            return False
        self.records_written += 1
        _faults.fire_disk_faults("journal.committed")
        return True

    def finalize(self, status: str) -> None:
        """Append the terminal marker and close the journal.

        ``status`` is informational (``complete`` / ``partial`` /
        ``interrupted``); a journal without a final record — the crash
        case — resumes identically.  Never raises: finalisation runs
        on error paths where the original failure must win.
        """
        if self.finalized:
            return
        self.finalized = status
        if self._fh is not None and self.failed is None:
            try:
                self._append(
                    {
                        "type": "final",
                        "status": status,
                        "journaled": self.records_written,
                    }
                )
            except OSError as exc:
                self._disable(exc)
        self.close()

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close-on-full-disk
                pass
            self._fh = None

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _header_body(self, fingerprint: Dict) -> Dict:
        from repro.bench.persistence import environment_provenance

        return {
            "type": "header",
            "version": JOURNAL_VERSION,
            "fingerprint": dict(fingerprint),
            "environment": environment_provenance(),
            "created": time.time(),
        }

    def _check_header(self, header: Dict, fingerprint: Dict) -> None:
        version = header.get("version")
        if not isinstance(version, int) or version > JOURNAL_VERSION:
            raise JournalError(
                f"journal {self.log_path} has version {version!r}; this "
                f"build reads <= {JOURNAL_VERSION}"
            )
        found = header.get("fingerprint") or {}
        for key in ("graph", "config", "n"):
            if found.get(key) != fingerprint.get(key):
                raise JournalError(
                    f"journal fingerprint mismatch on {key!r}: the "
                    f"journal was written for a different "
                    f"{'graph' if key != 'config' else 'configuration'} "
                    f"(journal {found.get(key)!r} != run "
                    f"{fingerprint.get(key)!r})"
                )
        env = header.get("environment") or {}
        from repro.bench.persistence import environment_provenance

        current = environment_provenance()
        drifted = [
            f"{k} {env.get(k)} -> {current.get(k)}"
            for k in _ENV_WARN_KEYS
            if env.get(k) is not None and env.get(k) != current.get(k)
        ]
        if drifted:
            warnings.warn(
                f"resuming a journal recorded under a different "
                f"toolchain ({', '.join(drifted)}); scores stay exact "
                f"but replayed/recomputed float rounding may differ "
                f"within 1e-9",
                stacklevel=3,
            )

    def _load_payload(self, body: Dict) -> Optional[ResumedContribution]:
        """Load one record's payload; ``None`` degrades to recompute."""
        path = self.dir / str(body.get("payload", ""))
        try:
            data = path.read_bytes()
        except OSError:
            return None
        if payload_digest(data) != body.get("digest"):
            return None  # torn/corrupt payload: never trusted
        try:
            loaded = np.load(io.BytesIO(data), allow_pickle=False)
            scores = np.asarray(loaded, dtype=SCORE_DTYPE)
        except ValueError:
            return None  # pragma: no cover - digest already vetted
        if scores.ndim != 1 or scores.size != int(body.get("n", -1)):
            return None
        scores.flags.writeable = False
        return ResumedContribution(
            scores=scores, edges=int(body.get("edges", 0))
        )

    def _write_payload(
        self, name: str, scores: np.ndarray, durable: bool
    ) -> str:
        # serialise in memory first: the digest is computed over the
        # intended bytes without a read-back, and the tmp file gets one
        # single write.  A raw uncompressed ``.npy`` on purpose —
        # the edge tally and length already live in the checksummed
        # log record, integrity comes from the digest, and payloads
        # are transient (discarded on the next fresh begin), so a zip
        # container would buy only per-record CPU.
        buf = io.BytesIO()
        np.save(buf, np.asarray(scores, dtype=SCORE_DTYPE))
        data = buf.getvalue()
        digest = payload_digest(data)
        spec = _faults.fire_disk_faults("journal.payload")
        if spec is not None and spec.kind == "torn_write":
            # simulate a payload torn mid-write whose rename survived:
            # the digest above describes the intended bytes, so replay
            # must reject this file
            data = data[: max(len(data) // 2, 1)]
        tmp = self.dir / f".{name}.{os.getpid()}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(data)
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, self.dir / name)
        return digest

    def _append(self, body: Dict, durable: bool = True) -> None:
        line = encode_record(body)
        spec = _faults.fire_disk_faults("journal.append")
        if spec is not None and spec.kind == "torn_write":
            self._fh.write(line[: max(len(line) // 2, 1)])
            self._fh.flush()
            raise OSError(5, "injected torn write (journal.append)")
        self._fh.write(line)
        self._fh.flush()
        if durable:
            os.fsync(self._fh.fileno())
        self._good_offset += len(line)

    def _open_log(self, *, truncate_to: Optional[int]) -> None:
        try:
            if truncate_to is None:
                self._fh = open(self.log_path, "wb")
                self._good_offset = 0
            else:
                self._fh = open(self.log_path, "r+b")
                self._fh.truncate(truncate_to)
                self._fh.seek(truncate_to)
                self._good_offset = truncate_to
        except OSError as exc:
            raise JournalError(
                f"cannot open journal log {self.log_path}: {exc}"
            ) from exc

    def _disable(self, exc: BaseException) -> None:
        """A write failed: stop journaling, keep the valid prefix."""
        self.failed = exc
        warnings.warn(
            f"run journal disabled after a write error ({exc}); the "
            f"run continues unjournaled and {self.log_path} remains "
            f"resumable up to its last committed record",
            stacklevel=3,
        )
        if self._fh is not None:
            try:
                self._fh.truncate(self._good_offset)
            except OSError:  # pragma: no cover - disk fully gone
                pass
        self.close()

    def _drop_stale_tmp(self) -> None:
        for stale in self.dir.glob(".*.tmp"):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - races are fine
                pass

    # ------------------------------------------------------------------
    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
