"""Open-loop raw-HTTP load over a unix socket, and the daemon process.

One generator thread sends every request at its due time whether or
not earlier ones have answered (an open loop: a stalled daemon builds
a queue instead of slowing the load).  Requests are pre-encoded bytes;
a request's clock runs from its due time to the end of its response,
so a stall is charged to every request it delays, and the JSON body
is decoded only after the run.  How late the generator itself started
each request is recorded separately.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


def get(path: str) -> bytes:
    return (
        f"GET {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()


def post(path: str, body: bytes, content_type: str = "text/plain") -> bytes:
    return (
        f"POST {path} HTTP/1.1\r\nHost: localhost\r\n"
        f"Content-Type: {content_type}\r\nContent-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode() + body


def parse_response(raw: bytes) -> Tuple[int, Optional[Dict]]:
    """``(status, decoded JSON body)``; the body is ``None`` when it is
    not a JSON object."""
    head, sep, body = raw.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        return 0, None
    if not sep:
        return status, None
    try:
        payload = json.loads(body)
    except ValueError:
        return status, None
    return status, payload if isinstance(payload, dict) else None


@dataclass
class Op:
    """One scheduled request: due ``due`` seconds after the loop starts."""

    due: float
    kind: str
    request: bytes
    arg: object = None


@dataclass
class Record:
    """What happened to one :class:`Op` (times on the loop's clock)."""

    op: Op
    due: float
    sent: Optional[float] = None
    done: Optional[float] = None
    raw: bytes = b""
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.sent - self.due


class UnixHTTP:
    """Non-blocking one-request-per-connection transport.

    ``send`` connects and writes the whole request; ``poll`` reads
    whatever arrived and returns ``(token, raw, error)`` for every
    response that reached end of file.
    """

    def __init__(self, path: str):
        self.path = path
        self._sel = selectors.DefaultSelector()
        self._pending: Dict[int, Tuple[socket.socket, List[bytes]]] = {}

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def send(self, token: int, request: bytes) -> None:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(self.path)
            sock.sendall(request)
            sock.setblocking(False)
        except OSError:
            sock.close()
            raise
        self._sel.register(sock, selectors.EVENT_READ, token)
        self._pending[token] = (sock, [])

    def _finish(self, token: int) -> bytes:
        sock, chunks = self._pending.pop(token)
        self._sel.unregister(sock)
        sock.close()
        return b"".join(chunks)

    def poll(self, timeout: float):
        finished = []
        if not self._pending:
            time.sleep(timeout)
            return finished
        for key, _ in self._sel.select(timeout):
            token = key.data
            try:
                data = key.fileobj.recv(1 << 16)
            except BlockingIOError:
                continue
            except OSError as exc:
                self._finish(token)
                finished.append((token, b"", f"recv: {exc}"))
                continue
            if data:
                self._pending[token][1].append(data)
            else:
                finished.append((token, self._finish(token), None))
        return finished

    def abort(self, token: int) -> None:
        self._finish(token)

    def close(self) -> None:
        for token in list(self._pending):
            self._finish(token)
        self._sel.close()


class OpenLoop:
    """Drive a schedule of :class:`Op` through a transport.

    ``clock`` is injectable so the timing rules can be tested with a
    fake transport; ``timeout`` bounds how long any request may stay
    unanswered before it is recorded as failed.
    """

    def __init__(self, transport, *, clock=time.perf_counter, timeout=60.0,
                 idle=0.05):
        self.transport = transport
        self.clock = clock
        self.timeout = timeout
        self.idle = idle

    def run(self, schedule: Sequence[Op]) -> List[Record]:
        start = self.clock()
        records = [Record(op=op, due=start + op.due) for op in schedule]
        live: Dict[int, Record] = {}
        nxt = 0
        while nxt < len(records) or live:
            now = self.clock()
            while nxt < len(records) and records[nxt].due <= now:
                rec = records[nxt]
                rec.sent = self.clock()
                try:
                    self.transport.send(nxt, rec.op.request)
                except OSError as exc:
                    rec.done, rec.error = self.clock(), f"send: {exc}"
                else:
                    live[nxt] = rec
                nxt += 1
            now = self.clock()
            for token, rec in list(live.items()):
                if now - rec.sent > self.timeout:
                    self.transport.abort(token)
                    rec.done, rec.error = now, "timeout"
                    del live[token]
            wait = self.idle
            if nxt < len(records):
                wait = min(wait, records[nxt].due - now)
            for token, raw, error in self.transport.poll(max(wait, 0.0)):
                rec = live.pop(token)
                rec.done, rec.raw, rec.error = self.clock(), raw, error
        return records


class Daemon:
    """A ``repro-bc serve`` subprocess on a unix socket in ``cwd``.

    The socket path is relative to ``cwd`` (the caller works there
    too), which keeps it under the unix-socket path-length limit
    however deep the checkout lies.
    """

    def __init__(self, argv: Sequence[str], *, cwd: str, env: Dict,
                 socket_path: str, log_path: str):
        self.argv = list(argv)
        self.cwd = cwd
        self.env = env
        self.socket_path = socket_path
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None

    def start(self) -> float:
        """Spawn the daemon; returns the spawn instant (perf_counter)."""
        t0 = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                self.argv, cwd=self.cwd, env=self.env,
                stdout=log, stderr=subprocess.STDOUT,
            )
        return t0

    def request(self, raw: bytes, timeout: float = 120.0) -> bytes:
        """One blocking request; raises ``OSError`` while not listening."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(timeout)
            sock.connect(self.socket_path)
            sock.sendall(raw)
            chunks = []
            while True:
                data = sock.recv(1 << 16)
                if not data:
                    return b"".join(chunks)
                chunks.append(data)

    def first_response(self, raw: bytes, deadline: float = 120.0) -> bytes:
        """Retry ``raw`` until the daemon answers it (or dies)."""
        limit = time.perf_counter() + deadline
        while True:
            try:
                return self.request(raw)
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"daemon exited with {self.proc.returncode} "
                        f"before answering; see {self.log_path}"
                    ) from None
                if time.perf_counter() > limit:
                    raise
                time.sleep(0.005)

    def stop(self, timeout: float = 60.0) -> bool:
        """SIGTERM drain; ``True`` when it exited 0 and said so."""
        if self.proc is None:
            return False
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return False
        with open(self.log_path, "rb") as log:
            drained = b"drained cleanly" in log.read()
        return code == 0 and drained and not os.path.exists(
            os.path.join(self.cwd, self.socket_path)
        )

    def kill(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
