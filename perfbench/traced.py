"""Run one `repro` CLI command with spans around the calls into each layer.

Usage: ``python traced.py OUT.json <repro subcommand and arguments>``

Before it hands ``argv`` to :func:`repro.cli.main`, this bootstrap wraps
the public functions each layer is entered through, at the attribute its
caller resolves (``repro.serve.server.parse_line``, ``repro.cli.load_graph``,
the :class:`~repro.pram.machine.PRAM` façade methods, …).  A wrapper
records one span — name, start, end, parent span, thread — in memory.
Builds also carry the repository's own :class:`repro.obs.SpanTracer`, so
the hopset phases (detect, ruling, supercluster, interconnect) come with
their charged work.  When the command returns (a server returns on
SIGINT), everything is written to ``OUT.json`` in one go.

The micro-batcher gets two extra probes: the time each request waits
from :meth:`MicroBatcher.submit` until its batch starts evaluating, and
its residence time from submit until its reply is ready.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import deque

_clock = time.perf_counter
_spans: list = []
_lock = threading.Lock()
_local = threading.local()
_submitted: deque = deque()
_submit_lock = threading.Lock()
_extra: dict = {"waits_ms": [], "residence_ms": [], "batch_sizes": [], "evicted": 0}
_tracers: list = []


def _wrap(owner, attr: str, name: str, label_default: str | None = None, post=None):
    fn = getattr(owner, attr)
    if getattr(fn, "__perfbench__", False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = name
        if label_default is not None:
            span = "pram." + str(kwargs.get("label", label_default))
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        with _lock:
            idx = len(_spans)
            _spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        t0 = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = _clock()
            stack.pop()
            _spans[idx] = (span, t0, t1, parent, threading.get_ident())
        if post is not None:
            post(result)
        return result

    wrapper.__perfbench__ = True
    setattr(owner, attr, wrapper)


def _count_evicted(result) -> None:
    _extra["evicted"] += len(result)


def _instrument() -> None:
    import repro.cli as cli
    import repro.serialize as serialize
    import repro.serve.server as server
    import repro.sssp.mssp as mssp
    from repro.dynamic.engine import DynamicOracle
    from repro.hopsets.store import HopsetStore
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.tracer import SpanTracer
    from repro.pram.machine import PRAM
    from repro.serve.batcher import MicroBatcher
    from repro.sssp.oracle import HopsetDistanceOracle

    # repro.serialize: the CLI's own imports, and the store's lazy lookups
    for owner in (cli, serialize):
        for attr in ("load_graph", "load_hopset", "save_hopset"):
            if hasattr(owner, attr):
                _wrap(owner, attr, f"serialize.{attr}")
    # repro.hopsets
    _wrap(cli, "build_hopset", "hopsets.build_hopset")
    _wrap(cli, "build_path_reporting_hopset", "hopsets.build_hopset")
    _wrap(HopsetStore, "load", "hopsets.store.load")
    # repro.pram: every façade primitive, named by its label
    for attr, fn in list(vars(PRAM).items()):
        if attr.startswith("_") or not callable(fn):
            continue
        if attr in ("charge", "snapshot", "phase", "subphase"):
            continue
        param = inspect.signature(fn).parameters.get("label")
        default = param.default if param is not None else attr
        _wrap(PRAM, attr, "", label_default=default)
    _wrap(mssp, "prelax_arcs_batch", "pram.relax_arcs_batch")
    # repro.serve
    _wrap(server, "parse_line", "serve.parse")
    _wrap(server.OracleServer, "serve_batch", "serve.serve_batch")
    orig_batch = server.OracleServer.serve_batch

    def serve_batch(self, items):
        start = _clock()
        with _submit_lock:
            stamps = [_submitted.popleft() for _ in items if _submitted]
        _extra["waits_ms"].extend((start - t) * 1e3 for t in stamps)
        _extra["batch_sizes"].append(len(items))
        return orig_batch(self, items)

    serve_batch.__perfbench__ = True
    server.OracleServer.serve_batch = serve_batch
    orig_submit = MicroBatcher.submit

    def submit(self, item):
        with _submit_lock:
            t = _clock()
            fut = orig_submit(self, item)
            _submitted.append(t)
        fut.add_done_callback(
            lambda _f, t=t: _extra["residence_ms"].append((_clock() - t) * 1e3)
        )
        return fut

    MicroBatcher.submit = submit
    # repro.sssp
    _wrap(HopsetDistanceOracle, "explore_many", "sssp.explore_many")
    _wrap(HopsetDistanceOracle, "invalidate_all", "sssp.invalidate", post=_count_evicted)
    _wrap(
        HopsetDistanceOracle, "invalidate_touching", "sssp.invalidate",
        post=_count_evicted,
    )
    # repro.dynamic
    _wrap(DynamicOracle, "__init__", "dynamic.init")
    _wrap(DynamicOracle, "apply", "dynamic.apply")
    _wrap(DynamicOracle, "maintain", "dynamic.maintain")
    # repro.obs
    _wrap(MetricsRegistry, "on_traffic", "obs.on_traffic")

    # builds started by the CLI carry the repository's phase tracer
    class TracedPRAM(PRAM):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            _tracers.append(SpanTracer.attach(self.cost))

    cli.PRAM = TracedPRAM


def _phases() -> dict:
    """Self wall and self work per hopset phase kind, plus scales built."""
    from repro.obs.profile import PHASE_KINDS

    kinds = {k: {"self_s": 0.0, "work": 0} for k in PHASE_KINDS}
    scales = set()
    for tracer in _tracers:
        root = tracer.finish()
        for span in root.walk():
            head = span.name.split("/", 1)[0]
            if span.level >= 1 and head.startswith("scale"):
                scales.add((id(tracer), head))
            kind = next((p for p in span.name.split("/") if p in kinds), None)
            if kind is None:
                continue
            kinds[kind]["self_s"] += span.wall - sum(c.wall for c in span.children)
            kinds[kind]["work"] += span.self_work
    return {"kinds": kinds, "scales_built": len(scales)}


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    _instrument()
    from repro.cli import main as repro_main

    try:
        rc = repro_main(argv)
    finally:
        with _lock:
            spans = list(_spans)  # None marks a span still open at exit
        payload = {"argv": argv, "spans": spans, "phases": _phases(), **_extra}
        with open(out, "w") as fh:
            json.dump(payload, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
