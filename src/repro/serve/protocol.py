"""Request protocol for the serving daemon: query-parameter parsing,
per-request config construction, and config fingerprints.

The daemon speaks plain HTTP with query-string parameters, so every
client — ``repro-bc query``, ``curl``, a load generator — composes the
same execution matrix the CLI exposes: backend and kernel from their
registries, batching, caching, and supervisor budgets (timeout /
retries / fallback) per request.

:func:`config_fingerprint` is the score-LRU half of the key: a
BLAKE2b-128 digest over exactly the config fields that can change the
served *bytes* — anything affecting either the mathematical scores
(threshold, pendant elimination) or the floating-point summation
order (batching, execution layout).  Two requests with the same
fingerprint against the same graph version are guaranteed
byte-identical answers, which is what makes serving a cached vector
indistinguishable from recomputing it.  Operational knobs that cannot
change a healthy run's output — ``timeout``, ``max_retries``,
``fallback`` — stay out of the key so retuning them keeps the cache
warm.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.errors import GraphFormatError, GraphValidationError, ServeError

__all__ = [
    "RequestParams",
    "build_config",
    "config_fingerprint",
    "parse_delta_body",
]

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}

_BACKENDS = ("auto", "serial", "threads", "processes")
_KERNELS = ("auto", "arcs", "spmm")


def _one(query: Dict, key: str) -> Optional[str]:
    """The single value of a query parameter (repeats are an error)."""
    values = query.get(key)
    if not values:
        return None
    if len(values) > 1:
        raise ServeError(f"parameter {key!r} given {len(values)} times")
    return values[0]


def _as_bool(key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in _BOOL_TRUE:
        return True
    if low in _BOOL_FALSE:
        return False
    raise ServeError(
        f"parameter {key!r} must be a boolean (1/0/true/false), got {raw!r}"
    )


def _as_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ServeError(
            f"parameter {key!r} must be an integer, got {raw!r}"
        ) from None


def _as_float(key: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ServeError(
            f"parameter {key!r} must be a number, got {raw!r}"
        ) from None


@dataclass
class RequestParams:
    """One request's parsed execution and presentation parameters.

    Execution fields override the daemon's base config (``None`` means
    "inherit"); presentation fields shape the response.  ``fresh``
    bypasses the score-LRU *read* (the result is still admitted) so
    callers can force the ContributionStore replay path; ``isolate``
    runs the compute in a fork via
    :func:`repro.parallel.supervisor.call_with_timeout` for per-request
    crash isolation.  ``version`` pins the request to a still-resident
    older snapshot (409 when it has retired).
    """

    backend: Optional[str] = None
    kernel: Optional[str] = None
    batch_size: Optional[Union[int, str]] = None
    workers: Optional[int] = None
    steal: Optional[bool] = None
    threshold: Optional[int] = None
    cache: Optional[bool] = None
    timeout: Optional[float] = None
    max_retries: Optional[int] = None
    fallback: Optional[bool] = None
    isolate: bool = False
    fresh: bool = False
    top: int = 10
    full: bool = False
    version: Optional[int] = None

    _KNOWN = frozenset(
        (
            "backend", "kernel", "batch_size", "workers", "steal",
            "threshold", "cache", "timeout", "max_retries", "fallback",
            "isolate", "fresh", "top", "full", "version",
        )
    )

    @classmethod
    def from_query(cls, query: Dict) -> "RequestParams":
        """Parse a ``urllib.parse.parse_qs`` dict; 400 on bad input."""
        unknown = sorted(set(query) - cls._KNOWN)
        if unknown:
            raise ServeError(
                f"unknown parameter(s) {', '.join(unknown)} (known: "
                f"{', '.join(sorted(cls._KNOWN))})"
            )
        params = cls()
        raw = _one(query, "backend")
        if raw is not None:
            if raw not in _BACKENDS:
                raise ServeError(
                    f"backend must be one of {_BACKENDS}, got {raw!r}"
                )
            params.backend = raw
        raw = _one(query, "kernel")
        if raw is not None:
            if raw not in _KERNELS:
                raise ServeError(
                    f"kernel must be one of {_KERNELS}, got {raw!r}"
                )
            params.kernel = raw
        raw = _one(query, "batch_size")
        if raw is not None:
            if raw == "auto":
                params.batch_size = "auto"
            else:
                value = _as_int("batch_size", raw)
                if value < 1:
                    raise ServeError(
                        f"batch_size must be 'auto' or >= 1, got {value}"
                    )
                params.batch_size = value
        for key in ("workers", "threshold", "max_retries", "version"):
            raw = _one(query, key)
            if raw is not None:
                setattr(params, key, _as_int(key, raw))
        for key in ("steal", "cache", "fallback"):
            raw = _one(query, key)
            if raw is not None:
                setattr(params, key, _as_bool(key, raw))
        for key in ("isolate", "fresh", "full"):
            raw = _one(query, key)
            if raw is not None:
                setattr(params, key, _as_bool(key, raw))
        raw = _one(query, "timeout")
        if raw is not None:
            params.timeout = _as_float("timeout", raw)
        raw = _one(query, "top")
        if raw is not None:
            params.top = _as_int("top", raw)
            if params.top < 1:
                raise ServeError(f"top must be >= 1, got {params.top}")
        return params


def build_config(params: RequestParams, base, store):
    """The request's :class:`~repro.core.config.APGREConfig`.

    Starts from the daemon's base config and applies the request's
    overrides; validation failures surface as 400s.  Journaling is
    forced off — per-request journals would fight over one directory
    and the daemon's durability story is the delta log of its caller.
    ``cache`` routes the daemon's shared ContributionStore in (the
    default) or drops it for a store-free run.
    """
    from repro.errors import AlgorithmError

    overrides: Dict = {"journal_dir": None, "resume": False}
    if params.backend is not None:
        overrides["backend"] = params.backend
    if params.kernel is not None:
        overrides["kernel"] = params.kernel
    if params.batch_size is not None:
        overrides["batch_size"] = params.batch_size
    if params.workers is not None:
        overrides["workers"] = params.workers
    if params.steal is not None:
        overrides["steal"] = params.steal
    if params.threshold is not None:
        overrides["threshold"] = params.threshold
    if params.timeout is not None:
        overrides["timeout"] = params.timeout
    if params.max_retries is not None:
        overrides["max_retries"] = params.max_retries
    if params.fallback is not None:
        overrides["fallback"] = params.fallback
    use_store = params.cache if params.cache is not None else (
        base.cache is not None or store is not None
    )
    overrides["cache"] = store if (use_store and store is not None) else None
    overrides["cache_dir"] = None
    try:
        return replace(base, **overrides)
    except AlgorithmError as exc:
        raise ServeError(str(exc)) from exc


def config_fingerprint(config) -> str:
    """BLAKE2b-128 hex digest of a config's score-affecting fields.

    Everything that can change the served bytes participates:
    mathematical knobs (threshold, α/β method, pendant elimination)
    and floating-point-order knobs (batching, backend/kernel/worker
    layout, stealing).  The cache is keyed as a
    bool — *which* store replays a contribution cannot change its
    bytes (entries are content-addressed).  Supervisor budgets stay
    out (a healthy run's output does not depend on them).
    """
    fields = (
        ("threshold", int(config.threshold)),
        ("alpha_beta_method", str(config.alpha_beta_method)),
        ("eliminate_pendants", bool(config.eliminate_pendants)),
        ("backend", config.backend),
        ("workers", int(config.workers)),
        ("batch_size", config.batch_size),
        ("steal", bool(config.steal)),
        ("kernel", config.kernel),
        ("cache", config.cache is not None),
    )
    h = hashlib.blake2b(digest_size=16)
    h.update(b"apgre-config-v4")
    for name, value in fields:
        h.update(f"|{name}={value!r}".encode())
    return h.hexdigest()


def parse_delta_body(
    body: bytes, content_type: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse a ``POST /delta`` body into ``(added, removed)`` arrays.

    Two encodings: ``application/json`` with ``{"add": [[u, v], ...],
    "remove": [[u, v], ...]}``, or the delta-file text format
    (``+ u v`` / ``- u v`` per line — the exact on-disk format
    ``repro-bc compute --delta`` reads) for anything else.  Malformed
    payloads raise :class:`~repro.errors.ServeError` (400).
    """
    from repro.cache.incremental import parse_delta_lines

    kind = (content_type or "").split(";", 1)[0].strip().lower()
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ServeError(f"delta body is not UTF-8: {exc}") from exc
    if kind == "application/json":
        try:
            payload = json.loads(text or "{}")
        except json.JSONDecodeError as exc:
            raise ServeError(f"delta body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError(
                f"delta JSON must be an object with 'add'/'remove' "
                f"lists, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"add", "remove"})
        if unknown:
            raise ServeError(
                f"unknown delta key(s) {', '.join(unknown)} "
                f"(expected 'add'/'remove')"
            )

        def _pairs(key: str) -> np.ndarray:
            rows = payload.get(key) or []
            try:
                arr = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
            except (TypeError, ValueError) as exc:
                raise ServeError(
                    f"delta {key!r} must be a list of [u, v] integer "
                    f"pairs: {exc}"
                ) from exc
            return arr

        return _pairs("add"), _pairs("remove")
    try:
        return parse_delta_lines(text, name="<delta body>")
    except (GraphFormatError, GraphValidationError) as exc:
        raise ServeError(str(exc)) from exc
