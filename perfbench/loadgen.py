"""The load generator: one thread, a few TCP connections, one selector.

Each :class:`Client` owns a connection and an endless, seeded stream of
request lines.  ``depth`` is how many requests it keeps in flight: 1 is a
closed loop (the next line goes out only when the previous reply is in),
more is a pipelined client.  Every request is timed from the moment its
line is queued for sending to the moment its reply line arrives.

Failures are counted, never hidden: an ``err`` reply, a connection reset
and a request older than the per-request timeout all fail.  A reset or a
timeout fails every request still in flight on that connection, and the
connection stops.
"""

from __future__ import annotations

import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Record:
    """One request as the client saw it."""

    line: str
    kind: str
    sent: float
    done: float = -1.0
    reply: str | None = None
    failure: str | None = None  # "err" | "reset" | "timeout"

    @property
    def ok(self) -> bool:
        return self.failure is None and self.reply is not None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.sent) * 1e3


@dataclass
class Client:
    """One connection with its request stream and transcript."""

    name: str
    lines: Iterator[str]
    depth: int = 1
    records: list[Record] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.sock: socket.socket | None = None
        self.inflight: deque[Record] = deque()
        self.inbuf = b""
        self.outbuf = b""
        self.dead = False


def connect(port: int, host: str = "127.0.0.1") -> socket.socket:
    sock = socket.create_connection((host, port), timeout=10.0)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    return sock


def drive(
    clients: list[Client], port: int, seconds: float, timeout_s: float = 10.0
) -> tuple[float, float]:
    """Run every client for ``seconds``, then drain what is in flight.

    Returns ``(start, end)`` on the ``perf_counter`` clock; ``end`` is
    the time of the last reply (or failure) seen.
    """
    sel = selectors.DefaultSelector()
    for c in clients:
        c.sock = connect(port)
        sel.register(c.sock, selectors.EVENT_READ, c)
    start = time.perf_counter()
    stop_at = start + seconds
    end = start

    def fail(c: Client, why: str, now: float) -> None:
        while c.inflight:
            r = c.inflight.popleft()
            r.failure, r.done = why, now
        c.dead = True
        sel.unregister(c.sock)
        c.sock.close()

    def fill(c: Client, now: float) -> None:
        while not c.dead and now < stop_at and len(c.inflight) < c.depth:
            line = next(c.lines)
            r = Record(line, line.split(None, 1)[0], now)
            c.records.append(r)
            c.inflight.append(r)
            c.outbuf += (line + "\n").encode()
        flush(c, now)

    def flush(c: Client, now: float) -> None:
        if c.dead or not c.outbuf:
            return
        try:
            sent = c.sock.send(c.outbuf)
        except BlockingIOError:
            sent = 0
        except OSError:
            fail(c, "reset", now)
            return
        c.outbuf = c.outbuf[sent:]
        sel.modify(
            c.sock,
            selectors.EVENT_READ | (selectors.EVENT_WRITE if c.outbuf else 0),
            c,
        )

    now = time.perf_counter()
    for c in clients:
        fill(c, now)
    while any(not c.dead and c.inflight for c in clients):
        for key, mask in sel.select(timeout=0.05):
            c = key.data
            now = time.perf_counter()
            if mask & selectors.EVENT_WRITE:
                flush(c, now)
            if c.dead or not mask & selectors.EVENT_READ:
                continue
            try:
                chunk = c.sock.recv(65536)
            except BlockingIOError:
                continue
            except OSError:
                fail(c, "reset", now)
                end = now
                continue
            if not chunk:
                fail(c, "reset", now)
                end = now
                continue
            c.inbuf += chunk
            *complete, c.inbuf = c.inbuf.split(b"\n")
            for raw in complete:
                if not c.inflight:
                    fail(c, "reset", now)  # a reply nobody asked for
                    break
                r = c.inflight.popleft()
                r.reply, r.done = raw.decode(), now
                if r.reply.startswith("err "):
                    r.failure = "err"
                end = now
            fill(c, now)
        now = time.perf_counter()
        for c in clients:
            if not c.dead and c.inflight and now - c.inflight[0].sent > timeout_s:
                fail(c, "timeout", now)
                end = now
    for c in clients:
        if not c.dead:
            sel.unregister(c.sock)
    sel.close()
    return start, end


def request(client: Client, line: str, timeout_s: float = 10.0) -> str:
    """One synchronous request on a client's (idle) connection."""
    sock = client.sock
    sock.setblocking(True)
    sock.settimeout(timeout_s)
    sock.sendall((line + "\n").encode())
    buf = client.inbuf
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"connection closed awaiting reply to {line!r}")
        buf += chunk
    reply, client.inbuf = buf.split(b"\n", 1)
    return reply.decode()


def close(clients: list[Client]) -> None:
    for c in clients:
        if c.sock is not None and not c.dead:
            try:
                c.sock.setblocking(True)
                c.sock.settimeout(2.0)
                c.sock.sendall(b"quit\n")
                c.sock.recv(64)
            except OSError:
                pass
            c.sock.close()
            c.dead = True
