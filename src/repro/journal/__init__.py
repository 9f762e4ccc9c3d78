"""Crash-safe run journal: checkpoint/resume for long BC runs.

See :mod:`repro.journal.journal` for the engine and
docs/ROBUSTNESS.md for the crash-recovery matrix.
"""

from repro import _lazy_exports

__all__ = _lazy_exports(__name__, {
    "JOURNAL_VERSION": ".journal",
    "RECORD_MAGIC": ".format",
    "ResumedContribution": ".journal",
    "RunJournal": ".journal",
    "decode_line": ".format",
    "encode_record": ".format",
    "payload_digest": ".format",
    "run_fingerprint": ".journal",
    "scan_log": ".format",
})
