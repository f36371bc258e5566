"""The three workloads: what runs, what is timed, what is checked.

Each workload first prepares its inputs (untimed unless stated), then
makes one *pass*: the measured part.  A traced run makes two passes over
the same inputs, one plain and one under ``traced.py``, so the per-layer
numbers come with the tracing overhead beside them.  See README.md for
why each workload exists and what each metric means on it.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen
import verify
from procs import BenchError, Runner

_BUILT = re.compile(
    r"(?:built|warm store hit) hopset: (\d+) records / (\d+) pairs, "
    r"work=([\d,]+), depth=([\d,]+)"
)


@dataclass
class Sizes:
    er_n: int
    er_p: float
    road_n: int
    sources: int       # Zipf working set of query sources
    pipeline: int      # requests client B keeps in flight on serve-static
    boots: int         # server starts per pass (median = setup_s)
    gens: int          # `repro gen` runs (median = setup_s on build-er)
    rush_edges: int    # congested edges per rush-hour step
    bursts: int        # failure bursts per cycle, each deleting then restoring
    burst_size: int
    sample: int        # sources of the β-hop stretch check


FULL = Sizes(1200, 0.0116, 1024, 256, 32, 5, 5, 11, 4, 4, 64)
TINY = Sizes(80, 0.08, 64, 16, 8, 2, 2, 2, 2, 2, 8)

#: Every run of a workload measures the same graph and, on serve-dynamic,
#: the same mutation cycle; ``--seed`` draws the queries on it (sources,
#: targets, stretch sample).  With a graph per seed, the spread between
#: runs was partly graph-to-graph spread: charged build work alone moved
#: by 7 % between seeds.
GRAPH_SEED = 1
RUSH_PERIOD = 8       # rush-hour steps per mutation cycle
PATH_EVERY = 8        # every 8th query line is `path`
MUTATE_EVERY = 10     # every 10th line of serve-dynamic's client B mutates
REQUEST_TIMEOUT_S = 10.0
#: Serving passes are cut into this many equal windows; qps and median
#: latency are medians over the windows, so a few seconds of host noise
#: move them less than one pooled figure.
WINDOWS = 5


@dataclass
class Pass:
    """What one measured pass saw."""

    metrics: dict
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)
    server_stats: dict | None = None
    traces: dict[str, list[Path]] = field(default_factory=dict)
    client_lat_ms: list[float] = field(default_factory=list)
    violations: list[str] = field(default_factory=list)


def _built(output: str) -> dict:
    m = _BUILT.search(output)
    if m is None:
        raise BenchError(f"no build summary in output:\n{output[-1000:]}")
    records, pairs, work, depth = m.groups()
    return {
        "hopset_records": int(records),
        "pairs": int(pairs),
        "build_work": int(work.replace(",", "")),
        "build_depth": int(depth.replace(",", "")),
    }


def quantile(values, q: float) -> float:
    """The q-quantile (linear interpolation); 0 for no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q * 100))


# -- request streams ---------------------------------------------------------


def query_lines(seed, client: int, n: int, sources: np.ndarray, mutations=None):
    """An endless seeded request stream for one client.

    Sources are Zipf-distributed (exponent 1) over the seeded working
    set, targets uniform over the other vertices, and every
    ``PATH_EVERY``-th query is a ``path``.  With ``mutations`` given,
    every ``MUTATE_EVERY``-th line is the next mutation, in order.
    """
    rng = np.random.default_rng([seed, client])
    weights = 1.0 / np.arange(1, sources.size + 1)
    weights /= weights.sum()
    line_no = query_no = 0
    while True:
        us = sources[rng.choice(sources.size, size=4096, p=weights)]
        vs = rng.integers(0, n - 1, size=4096)
        for u, v in zip(us.tolist(), vs.tolist()):
            line_no += 1
            if mutations is not None and line_no % MUTATE_EVERY == 0:
                line_no += 1
                yield next(mutations)
            v = v + 1 if v >= u else v  # uniform over the other vertices
            query_no += 1
            kind = "path" if query_no % PATH_EVERY == 0 else "dist"
            yield f"{kind} {u} {v}"


def mutation_lines(graph_path: Path, seed, sizes: Sizes) -> list[str]:
    """One cycle of rush-hour reweights interleaved with failure bursts.

    The cycle is one rush-hour period, whose first step puts the
    congested edges back to their base weights, and every burst restores
    what it deleted, so the cycle can be repeated.
    """
    from repro.graphs.generators import failure_burst_schedule, periodic_weight_schedule
    from repro.serialize import load_graph

    g = load_graph(graph_path)
    m = g.edge_u.size
    frac = min(1.0, sizes.rush_edges / m)
    rush = periodic_weight_schedule(
        g, RUSH_PERIOD, frac=frac, period=RUSH_PERIOD, seed=[seed, 7]
    )
    fail = failure_burst_schedule(
        g, bursts=sizes.bursts, burst_size=sizes.burst_size, quiet=0, seed=[seed, 8]
    )
    ops = []
    for step in range(max(len(rush), len(fail))):
        for batch in (rush, fail):
            ops.extend(batch[step] if step < len(batch) else ())
    return [
        f"delete {u} {v}" if kind == "delete" else f"update {u} {v} {w!r}"
        for kind, u, v, w in ops
    ]


def _cycle(items):
    while True:
        yield from items


# -- build-er -----------------------------------------------------------------


class BuildER:
    """Cold `repro build` of an Erdős–Rényi graph, repeated."""

    name = "build-er"

    def __init__(self, root: Path, work: Path, seed: int, sizes: Sizes):
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes

    def prepare(self) -> None:
        gen = ["gen", "g.npz", "--family", "er", "--n", str(self.sizes.er_n),
               "--p", str(self.sizes.er_p), "--seed", str(GRAPH_SEED)]
        runner = Runner(self.root, self.work)
        self.gen_s = [runner.run(gen, "gen").wall_s for _ in range(self.sizes.gens)]

    def measure(self, seconds: float, trace_dir: Path | None) -> Pass:
        runner = Runner(self.root, self.work, trace_dir)
        builds = []
        t0 = time.perf_counter()
        while not builds or time.perf_counter() - t0 < seconds:
            out = f"h{len(builds)}.npz"
            done = runner.run(["build", "g.npz", out], "build")
            builds.append((done, _built(done.output), out))
        gate = verify.Gate()
        first = builds[0]
        reference = verify.load_npz(self.work / first[2])
        for done, summary, out in builds[1:]:
            if summary != first[1]:
                gate.fail(f"repeat build differs: {summary} vs {first[1]}")
            again = verify.load_npz(self.work / out)
            if any(not np.array_equal(reference[k], again[k]) for k in reference):
                gate.fail("repeat build wrote a different hopset")
        graph = verify.load_npz(self.work / "g.npz")
        n = int(graph["n"][0])
        sample = np.random.default_rng([self.seed, 99]).choice(
            n, size=min(self.sizes.sample, n), replace=False
        )
        stretch = verify.check_hopset(graph, reference, sample, gate)
        walls = [d.wall_s for d, _, _ in builds]
        ms = [w * 1e3 for w in walls]
        summary = first[1]
        metrics = {
            "setup_s": statistics.median(self.gen_s),
            "build_s": statistics.median(walls),
            "build_work": summary["build_work"],
            "build_depth": summary["build_depth"],
            "hopset_records": summary["hopset_records"],
            "stretch_max": stretch,
            "rss_mb": statistics.median(d.rss_mb for d, _, _ in builds),
            # the request of this workload is one cold build; a static
            # deployment absorbs a graph update by exactly such a rebuild
            "qps": len(builds) / sum(walls),
            "lat_p50_ms": statistics.median(ms),
            "lat_p95_ms": quantile(ms, 0.95),
            "update_mean_ms": statistics.mean(ms),
            "update_p90_ms": quantile(ms, 0.9),
            "ok_frac": 1.0,
        }
        return Pass(
            metrics, attempted=len(builds), failed=0,
            info={"builds": len(builds), "pairs": summary["pairs"],
                  "records_per_pair": summary["hopset_records"] / max(summary["pairs"], 1)},
            traces={"build": sorted(trace_dir.glob("*-build.json"))} if trace_dir else {},
            violations=gate.violations,
        )


# -- serve-static / serve-dynamic -------------------------------------------------


class _Serve:
    """Shared shape of the two serving workloads."""

    prep_builds = 1

    def __init__(self, root: Path, work: Path, seed: int, sizes: Sizes):
        self.root, self.work, self.seed, self.sizes = root, work, seed, sizes
        self._passes = 0

    def prepare(self) -> None:
        runner = Runner(self.root, self.work)
        runner.run(["gen", "g.npz", "--family", "road", "--n", str(self.sizes.road_n),
                    "--seed", str(GRAPH_SEED)], "gen")
        graph = verify.load_npz(self.work / "g.npz")
        self.n = int(graph["n"][0])
        rng = np.random.default_rng([self.seed, 1])
        self.sources = rng.choice(self.n, size=min(self.sizes.sources, self.n), replace=False)

    def build_args(self, tag: str) -> list[str]:
        raise NotImplementedError

    def serve_args(self, tag: str, log: str) -> list[str]:
        raise NotImplementedError

    def clients(self) -> list[loadgen.Client]:
        raise NotImplementedError

    def warm_up(self, port: int) -> list[loadgen.Client]:
        """Untimed traffic before the measured pass; its clients are checked."""
        return []

    def check(self, clients, log: Path, tag: str, gate: verify.Gate) -> float:
        raise NotImplementedError

    def measure(self, seconds: float, trace_dir: Path | None) -> Pass:
        self._passes += 1
        tag = f"p{self._passes}"
        runner = Runner(self.root, self.work, trace_dir)
        marks = [time.perf_counter()]
        builds = [runner.run(self.build_args(tag), "prep-build")]
        summary = _built(builds[0].output)
        boots = []
        server = None
        try:
            for i in range(self.sizes.boots):
                if server is not None:
                    _check_exit(server.stop())
                log = f"{tag}-boot{i}.log"
                server, boot_s = runner.start_server(self.serve_args(tag, log), "server")
                boots.append(boot_s)
            warm = self.warm_up(server.port)
            marks.append(time.perf_counter())
            clients = self.clients()
            start, end = loadgen.drive(clients, server.port, seconds, REQUEST_TIMEOUT_S)
            stats = None
            live = next((c for c in clients if not c.dead), None)
            if live is not None:
                reply = loadgen.request(live, "stats")
                if reply.startswith("ok stats "):
                    stats = json.loads(reply[len("ok stats "):])
            loadgen.close(clients)
        finally:
            if server is not None:
                finished = server.stop()
        _check_exit(finished)
        marks.append(time.perf_counter())
        gate = verify.Gate()
        # repeat builds after the traffic, so build_s samples the host at
        # both ends of the pass; they must agree with the one served
        for _ in range(self.prep_builds - 1 if trace_dir is None else 0):
            builds.append(runner.run(self.build_args(f"{tag}-again"), "rebuild"))
            if _built(builds[-1].output) != summary:
                gate.fail("repeat builds of the served hopset disagree")
        marks.append(time.perf_counter())
        stretch = self.check(warm + clients, self.work / log, tag, gate)
        marks.append(time.perf_counter())
        records = [r for c in warm + clients for r in c.records]
        failed = [r for r in records if not r.ok]
        completed = len(records) - len(failed)
        windows = [
            self.select(clients, start + i * seconds / WINDOWS, start + (i + 1) * seconds / WINDOWS)
            for i in range(WINDOWS)
        ]
        span = seconds / WINDOWS

        def per_window(fn):
            return statistics.median(fn(w) for w in windows)

        query_lat, update_lat, _ = self.select(clients, start, float("inf"))
        metrics = {
            "setup_s": statistics.median(boots),
            "build_s": statistics.median(b.wall_s for b in builds),
            "build_work": summary["build_work"],
            "build_depth": summary["build_depth"],
            "hopset_records": summary["hopset_records"],
            "stretch_max": stretch,
            "rss_mb": finished.rss_mb,
            "qps": per_window(lambda w: w[2] / span),
            "lat_p50_ms": per_window(lambda w: quantile(w[0], 0.5)),
            "lat_p95_ms": per_window(lambda w: quantile(w[0], 0.95)),
            "update_mean_ms": statistics.mean(update_lat) if update_lat else 0.0,
            "update_p90_ms": quantile(update_lat, 0.9),
            "ok_frac": completed / max(len(records), 1),
        }
        info = {
            "lat_samples": len(query_lat),
            # reported, not gated: the tail beyond p95 follows host stalls
            "lat_p99_ms": quantile(query_lat, 0.99),
            "update_p50_ms": quantile(update_lat, 0.5),
            "update_samples": len(update_lat),
            "failures": {
                why: sum(r.failure == why for r in records)
                for why in ("err", "reset", "timeout")
            },
            "requests": {c.name: len(c.records) for c in clients},
            "records_per_pair": summary["hopset_records"] / max(summary["pairs"], 1),
            "phase_s": dict(zip(
                ("build+boots+warm-up", "traffic", "rebuilds", "check"),
                (round(b - a, 2) for a, b in zip(marks, marks[1:])),
            )),
        }
        return Pass(
            metrics, attempted=len(records), failed=len(failed), info=info,
            server_stats=stats,
            traces=(
                {"server": [_last(trace_dir, "server")],
                 "build": [_last(trace_dir, "prep-build")]}
                if trace_dir else {}
            ),
            client_lat_ms=[r.latency_ms for r in records if r.ok],
            violations=gate.violations,
        )

    def select(self, clients, t0: float, t1: float) -> tuple[list, list, int]:
        """Query and update latencies of requests sent in [t0, t1), and
        the number of requests completed in that interval."""
        raise NotImplementedError


def _check_exit(finished) -> None:
    if finished.returncode != 0:
        raise BenchError(
            f"`repro serve` exited {finished.returncode} on SIGINT:\n{finished.output[-2000:]}"
        )


def _last(trace_dir: Path, role: str) -> Path:
    return sorted(trace_dir.glob(f"*-{role}.json"))[-1]


def _completed(clients, t0: float, t1: float) -> int:
    return sum(1 for c in clients for r in c.records if r.ok and t0 <= r.done < t1)


def _failed_ms(r: loadgen.Record) -> float:
    """A failed request misses every latency limit: count it at the timeout."""
    return r.latency_ms if r.ok else REQUEST_TIMEOUT_S * 1e3


class ServeStatic(_Serve):
    """Read-only TCP traffic against a server booted warm from the store."""

    name = "serve-static"
    prep_builds = 5  # cold builds of the served hopset (median = build_s)

    def build_args(self, tag: str) -> list[str]:
        return ["build", "g.npz", f"{tag}-h.npz", "--store", f"{tag}-store"]

    def serve_args(self, tag: str, log: str) -> list[str]:
        return ["g.npz", "--warm", "--store", f"{tag}-store", "--log", log]

    def clients(self):
        return [
            loadgen.Client("A", query_lines(self.seed, 0, self.n, self.sources), depth=1),
            loadgen.Client(
                "B", query_lines(self.seed, 1, self.n, self.sources),
                depth=self.sizes.pipeline,
            ),
        ]

    def check(self, clients, log: Path, tag: str, gate: verify.Gate) -> float:
        records = [r for c in clients for r in c.records]
        stretch = verify.check_static(
            records, self.work / "g.npz", self.work / f"{tag}-h.npz", gate
        )
        graph = verify.load_npz(self.work / "g.npz")
        hopset = verify.load_npz(self.work / f"{tag}-h.npz")
        verify.check_hopset(graph, hopset, self.sources[: self.sizes.sample], gate)
        return stretch

    def select(self, clients, t0, t1):
        # latency of the interactive client alone: B's includes its own queue
        query = [_failed_ms(r) for r in clients[0].records if t0 <= r.sent < t1]
        return query, [], _completed(clients, t0, t1)

    def measure(self, seconds, trace_dir):
        result = super().measure(seconds, trace_dir)
        # a static server absorbs a graph update by a rebuild and a restart
        update = (result.metrics["build_s"] + result.metrics["setup_s"]) * 1e3
        result.metrics["update_mean_ms"] = update
        result.metrics["update_p90_ms"] = update
        return result


class ServeDynamic(_Serve):
    """Two request-response clients; client B mixes in mutations."""

    name = "serve-dynamic"
    prep_builds = 2  # path-reporting builds take ~13 s each

    def prepare(self) -> None:
        super().prepare()
        self.mutations = mutation_lines(self.work / "g.npz", GRAPH_SEED, self.sizes)

    def warm_up(self, port: int) -> list[loadgen.Client]:
        """Send one mutation cycle before the timed traffic.

        With scale refreshes off, a record an update kills stays dead, so
        the first cycle thins the hopset and later cycles kill nothing
        new.  Measured from a fresh server, latency fell and throughput rose
        as the hopset thinned, by an amount that depended on how far a run
        got; after one cycle the served state is the same in every window.
        """
        client = loadgen.Client("W", iter(()))
        client.sock = loadgen.connect(port)
        try:
            for line in self.mutations:
                t0 = time.perf_counter()
                reply = loadgen.request(client, line, REQUEST_TIMEOUT_S)
                record = loadgen.Record(line, line.split()[0], t0, time.perf_counter(), reply)
                if reply.startswith("err "):
                    record.failure = "err"
                client.records.append(record)
        finally:
            loadgen.close([client])
        return [client]

    def build_args(self, tag: str) -> list[str]:
        return ["build", "g.npz", f"{tag}-hp.npz", "--paths"]

    def serve_args(self, tag: str, log: str) -> list[str]:
        # repair only: see README.md on why scale refreshes are disabled
        return ["g.npz", f"{tag}-hp.npz", "--dynamic", "--log", log,
                "--refresh-below", "0", "--rebuild-below", "0"]

    def clients(self):
        return [
            loadgen.Client("A", query_lines(self.seed, 0, self.n, self.sources), depth=1),
            loadgen.Client(
                "B",
                query_lines(self.seed, 1, self.n, self.sources, _cycle(self.mutations)),
                depth=1,
            ),
        ]

    def check(self, clients, log: Path, tag: str, gate: verify.Gate) -> float:
        return verify.check_dynamic(
            clients, log, self.work / "g.npz", self.work / f"{tag}-hp.npz", gate
        )

    def select(self, clients, t0, t1):
        records = [r for c in clients for r in c.records if t0 <= r.sent < t1]
        query = [_failed_ms(r) for r in records if r.kind in ("dist", "path")]
        update = [_failed_ms(r) for r in records if r.kind in ("update", "delete")]
        return query, update, _completed(clients, t0, t1)


WORKLOADS = {w.name: w for w in (BuildER, ServeStatic, ServeDynamic)}
