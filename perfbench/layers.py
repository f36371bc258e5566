"""Per-layer metrics of a traced run, from the spans ``traced.py`` wrote.

A span's self time is its duration minus the time its direct child
spans cover.  ``X.self_s`` is total self time in the measured process
(the median over processes on ``build-er``, which runs several builds);
``X.s`` and ``X_s`` are mean seconds per call.  Where a layer does not run
on a workload its metrics read 0.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from workloads import quantile

#: The PRAM façade primitives that run on these workloads, by label, in
#: order of self time on the seed tree: the first three in a build (entry
#: pruning of Algorithm 3, the cluster-graph gather, per-cluster
#: aggregation), the last in serving (the S×V exploration kernel).  No
#: other façade method is called on any workload.
PRIMITIVES = ("algo3_sort", "relax_gather", "aggregate", "relax_arcs_batch")
PHASES = ("detect", "ruling", "supercluster", "interconnect")


class ProcessTrace:
    """Spans and probes of one traced child process."""

    def __init__(self, path: Path):
        data = json.loads(Path(path).read_text())
        self.data = data
        spans = [s for s in enumerate(data["spans"]) if s[1] is not None]
        child_time = defaultdict(float)
        for _idx, (name, t0, t1, parent, _tid) in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _parent, _tid) in spans:
            self.calls[name] += 1
            self.total[name] += t1 - t0
            self.self_s[name] += (t1 - t0) - child_time.get(idx, 0.0)

    def mean(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.total[name] / calls if calls else 0.0


def _build_metrics(trace: ProcessTrace, records_per_pair: float) -> dict:
    phases = trace.data["phases"]
    out = {
        "serialize.save_hopset_s": trace.mean("serialize.save_hopset"),
        "hopsets.build_hopset_s": trace.mean("hopsets.build_hopset"),
        "hopsets.scales_built": phases["scales_built"],
        "hopsets.records_per_pair": records_per_pair,
    }
    for p in PHASES:
        out[f"hopsets.{p}.self_s"] = phases["kinds"][p]["self_s"]
        out[f"hopsets.{p}.work"] = phases["kinds"][p]["work"]
    for p in PRIMITIVES:
        out[f"pram.{p}.self_s"] = trace.self_s.get(f"pram.{p}", 0.0)
        out[f"pram.{p}.calls"] = trace.calls.get(f"pram.{p}", 0)
    return out


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def per_layer(names, plain, traced) -> dict:
    """The named per-layer metrics of a traced run (plain and traced passes)."""
    values = dict.fromkeys(names, 0.0)
    builds = [ProcessTrace(p) for p in traced.traces.get("build", [])]
    rpp = traced.info.get("records_per_pair", 0.0)
    if builds:
        values.update(_median_dicts([_build_metrics(t, rpp) for t in builds]))
        values["serialize.load_graph_s"] = statistics.median(
            t.mean("serialize.load_graph") for t in builds
        )
    for path in traced.traces.get("server", []):
        t = ProcessTrace(path)
        d = t.data
        values["serialize.load_graph_s"] = t.mean("serialize.load_graph")
        values["serialize.load_hopset_s"] = t.mean("serialize.load_hopset")
        values["hopsets.store.load_s"] = t.mean("hopsets.store.load")
        values["serve.batcher.wait_p50_ms"] = quantile(d["waits_ms"], 0.5)
        values["serve.batcher.wait_p99_ms"] = quantile(d["waits_ms"], 0.99)
        sizes = d["batch_sizes"]
        values["serve.batch.size_mean"] = sum(sizes) / len(sizes) if sizes else 0.0
        values["serve.serve_batch.self_s"] = t.self_s.get("serve.serve_batch", 0.0)
        values["serve.parse.self_s"] = t.self_s.get("serve.parse", 0.0)
        lat = traced.client_lat_ms
        res = d["residence_ms"]
        if lat and res:
            values["serve.transport_ms"] = sum(lat) / len(lat) - sum(res) / len(res)
        values["sssp.explore_many.s"] = t.mean("sssp.explore_many")
        values["dynamic.init_s"] = t.mean("dynamic.init")
        values["dynamic.apply.s"] = t.mean("dynamic.apply")
        values["dynamic.maintain.s"] = t.mean("dynamic.maintain")
        applies = t.calls.get("dynamic.apply", 0)
        values["sssp.evicted_per_update"] = d["evicted"] / applies if applies else 0.0
        values["obs.on_traffic.calls"] = t.calls.get("obs.on_traffic", 0)
        values["obs.on_traffic.self_s"] = t.self_s.get("obs.on_traffic", 0.0)
        for p in PRIMITIVES:  # on serve-*, primitives of the server itself
            values[f"pram.{p}.self_s"] = t.self_s.get(f"pram.{p}", 0.0)
            values[f"pram.{p}.calls"] = t.calls.get(f"pram.{p}", 0)
        values.update(stats_metrics(traced.server_stats or {}))
    values["loadgen.lat_samples"] = traced.info.get(
        "lat_samples", traced.info.get("builds", 0)
    )
    for name in ("build_s", "qps", "lat_p50_ms"):
        base = plain.metrics[name]
        values[f"trace.overhead.{name}"] = traced.metrics[name] / base - 1 if base else 0.0
    missing = set(values) - set(names)
    if missing:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(missing)}")
    return values


def stats_metrics(stats: dict) -> dict:
    """The server's own `stats` counters, as per-layer metrics."""
    if not stats:
        return {}
    pairs = stats["pair_cache"]
    src = stats["source_cache"]
    dyn = stats.get("dynamic") or {}
    hop = dyn.get("hopset") or {}
    looked = pairs["hits"] + pairs["misses"]
    tier1 = src["hits"] + src["misses"]
    passes = src["matrix_passes"]
    return {
        "serve.batches": stats["batches"],
        "serve.pair_cache.hits": pairs["hits"],
        "serve.pair_cache.misses": pairs["misses"],
        "serve.pair_cache.hit_rate": pairs["hits"] / looked if looked else 0.0,
        "sssp.tier1.hits": src["hits"],
        "sssp.tier1.misses": src["misses"],
        "sssp.tier1.hit_rate": src["hits"] / tier1 if tier1 else 0.0,
        "sssp.explorations": src["tier2_explorations"],
        "sssp.matrix_passes": passes,
        "sssp.sources_per_pass": src["tier2_explorations"] / passes if passes else 0.0,
        "dynamic.kills": hop.get("kills", 0),
        "dynamic.refreshes": hop.get("scale_refreshes", 0),
        "dynamic.rebuilds": hop.get("full_rebuilds", 0),
    }
