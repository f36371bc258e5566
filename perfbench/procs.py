"""Child processes of the benchmark: the pinned environment, timed CLI runs,
and `repro serve` lifecycles.

Every program under test is started here, from the checkout's ``src/``
tree, with an environment that a developer's shell cannot change: the
``REPRO_*`` switches that select engines, backends, telemetry or ledger
paths are removed, and ``PYTHONPATH`` is replaced by ``src`` alone.
Peak RSS comes from ``os.wait4`` on the one child, not from the
process-wide ``RUSAGE_CHILDREN`` maximum.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Environment switches that would change what is measured.
STRIP_ENV = (
    "REPRO_BACKEND",
    "REPRO_FUSED",
    "REPRO_FUSED_BUILD",
    "REPRO_MSSP",
    "REPRO_DYN_FALLBACK",
    "REPRO_WORKER_STATS",
    "REPRO_POOL_POISON",
    "REPRO_LEDGER_PATH",
)

_SERVING = re.compile(r"^serving .* on ([0-9.]+):(\d+) ")


class BenchError(RuntimeError):
    """A child failed or misbehaved; the run cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in STRIP_ENV}
    env["PYTHONPATH"] = str(root / "src")
    return env


@dataclass
class Finished:
    """One completed child process."""

    wall_s: float
    rss_mb: float
    returncode: int
    output: str


def _reap(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Wait for ``proc`` (killing it at ``timeout``); returns (rc, peak RSS MB)."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Runner:
    """Starts `repro` subcommands from one checkout, traced or not.

    ``trace_dir`` set: each child runs under ``traced.py``, which wraps
    the layer entry points and writes its spans to a fresh JSON file in
    that directory when the child exits.
    """

    def __init__(self, root: Path, work: Path, trace_dir: Path | None = None):
        self.root = root
        self.work = work
        self.trace_dir = trace_dir
        self.env = child_env(root)
        self._count = 0

    def argv(self, args: list[str], role: str) -> list[str]:
        self._count += 1
        if self.trace_dir is None:
            return [sys.executable, "-m", "repro", *args]
        out = self.trace_dir / f"{self._count:03d}-{role}.json"
        return [sys.executable, str(HERE / "traced.py"), str(out), *args]

    def run(self, args: list[str], role: str, timeout: float = 170.0) -> Finished:
        """Run one CLI command to completion; raise when it fails."""
        argv = self.argv(args, role)
        log = self.work / f"{role}-{self._count:03d}.out"
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.work, env=self.env, stdout=fh,
                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
            rc, rss = _reap(proc, timeout)
            wall = time.perf_counter() - t0
        output = log.read_text()
        if rc != 0:
            raise BenchError(f"`repro {' '.join(args)}` exited {rc}:\n{output[-2000:]}")
        return Finished(wall, rss, rc, output)

    def start_server(self, args: list[str], role: str, timeout: float = 60.0):
        """Spawn `repro serve`; returns the live server and its boot time."""
        argv = self.argv(["serve", *args], role)
        log = self.work / f"{role}-{self._count:03d}.out"
        fh = open(log, "w")
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=self.work, env=self.env, stdout=fh,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        server = Server(proc, fh, log)
        try:
            while True:
                text = log.read_text()
                m = _SERVING.search(text.split("\n", 1)[0]) if "\n" in text else None
                if m:
                    boot = time.perf_counter() - t0
                    server.port = int(m.group(2))
                    return server, boot
                if proc.poll() is not None:
                    raise BenchError(f"`repro serve` exited before serving:\n{text[-2000:]}")
                if time.perf_counter() - t0 > timeout:
                    raise BenchError("`repro serve` did not report its port in time")
                time.sleep(0.0005)
        except BaseException:
            server.stop()
            raise


class Server:
    """A running `repro serve` child."""

    def __init__(self, proc: subprocess.Popen, fh, log: Path):
        self.proc = proc
        self.port = 0
        self._fh = fh
        self.log = log
        self.finished: Finished | None = None

    def _answered(self) -> None:
        """Wait until the server has answered one request.

        `repro serve` prints its port just before it enters its accept
        loop, and a SIGINT that lands in between leaves its shutdown
        waiting on a loop that never ran.  A served request proves the
        loop is running.
        """
        with socket.create_connection(("127.0.0.1", self.port), timeout=10) as sock:
            sock.sendall(b"stats\n")
            reply = b""
            while b"\n" not in reply:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                reply += chunk

    def stop(self, timeout: float = 30.0) -> Finished:
        """Interrupt the server (its normal stop) and reap it."""
        if self.finished is not None:
            return self.finished
        t0 = time.perf_counter()
        if self.proc.returncode is None:
            if self.port:
                try:
                    self._answered()
                except OSError:
                    pass  # the exit status below tells what happened
            try:
                self.proc.send_signal(signal.SIGINT)
            except ProcessLookupError:
                pass
            rc, rss = _reap(self.proc, timeout)
        else:
            rc, rss = self.proc.returncode, 0.0
        self._fh.close()
        self.finished = Finished(time.perf_counter() - t0, rss, rc, self.log.read_text())
        return self.finished
