"""The benchmark's own tests: tiny smoke runs and the correctness gates.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import loadgen  # noqa: E402
import verify  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("build-er", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the gates reject wrong output -------------------------------------------


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    from repro.graphs.generators import road_network
    from repro.hopsets.path_reporting import build_path_reporting_hopset
    from repro.hopsets.params import HopsetParams
    from repro.pram.machine import PRAM
    from repro.serialize import save_graph, save_hopset

    d = tmp_path_factory.mktemp("tiny")
    g = road_network(6, 6, seed=5)
    h, _ = build_path_reporting_hopset(g, HopsetParams(), PRAM())
    save_graph(d / "g.npz", g)
    save_hopset(d / "h.npz", h)
    return d, g, h


def _served(d, g, h, lines):
    """Replies of an in-process server, as a client transcript."""
    from repro.serve.server import OracleServer

    server = OracleServer(g, h, dynamic=True, log_path=d / "q.log")
    try:
        replies = server.replay(lines)
    finally:
        server.close()
    client = loadgen.Client("A", iter(()))
    client.records = [
        loadgen.Record(line, line.split()[0], 0.0, 0.0, reply)
        for line, reply in zip(lines, replies)
    ]
    return client


def _perturb(reply: str) -> str:
    head, value = reply.rsplit(" ", 1)
    return f"{head} {float(value) * (1 + 1e-15) + 1e-12!r}"


def _violations(check, *args) -> list[str]:
    gate = verify.Gate()
    check(*args, gate)
    return gate.violations


def test_static_gate_rejects_a_perturbed_reply(tiny):
    d, g, h = tiny
    client = _served(d, g, h, ["dist 0 35", "path 3 20", "dist 7 1"])
    records = client.records
    assert _violations(verify.check_static, records, d / "g.npz", d / "h.npz") == []
    records[0].reply = _perturb(records[0].reply)
    assert _violations(verify.check_static, records, d / "g.npz", d / "h.npz")


def test_dynamic_gate_rejects_a_perturbed_reply(tiny):
    d, g, h = tiny
    u, v = int(g.edge_u[0]), int(g.edge_v[0])
    lines = ["dist 0 35", f"update {u} {v} 9.5", "dist 0 35", f"delete {u} {v}",
             "dist 2 30"]
    (d / "q.log").unlink(missing_ok=True)
    client = _served(d, g, h, lines)
    args = ([client], d / "q.log", d / "g.npz", d / "h.npz")
    assert _violations(verify.check_dynamic, *args) == []
    client.records[2].reply = _perturb(client.records[2].reply)
    assert _violations(verify.check_dynamic, *args)


def test_log_matching_accepts_any_consistent_interleaving():
    a = loadgen.Client("A", iter(()))
    b = loadgen.Client("B", iter(()))
    a.records = [loadgen.Record("dist 1 2", "dist", 0, 0, "ok dist 1 2 1.0")]
    b.records = [
        loadgen.Record("dist 1 2", "dist", 0, 0, "ok dist 1 2 2.0"),
        loadgen.Record("update 1 2 2.0", "update", 0, 0, "ok update 1 2 2.0"),
    ]
    log = ["dist 1 2", "update 1 2 2.0", "dist 1 2"]
    replies = ["ok dist 1 2 1.0", "ok update 1 2 2.0", "ok dist 1 2 2.0"]
    assert _violations(verify.match_log, [a, b], log, replies)
    b.records = [b.records[1], b.records[0]]
    assert _violations(verify.match_log, [a, b], log, replies) == []


def test_hopset_gate_rejects_an_underweight_edge(tiny):
    d, _, _ = tiny
    graph = verify.load_npz(d / "g.npz")
    hopset = verify.load_npz(d / "h.npz")
    sample = np.arange(4)
    assert _violations(verify.check_hopset, graph, hopset, sample) == []
    hopset["edge_w"] = hopset["edge_w"].copy()
    hopset["edge_w"][0] *= 0.5
    assert _violations(verify.check_hopset, graph, hopset, sample)


def test_dynamic_gate_rejects_a_reply_from_before_a_worsening(tiny):
    # the signature of a stale exact-hit pair cache entry
    d, g, h = tiny
    lines = ["dist 0 5", "update 4 5 50.0", "dist 0 5"]
    (d / "q.log").unlink(missing_ok=True)
    client = _served(d, g, h, lines)
    args = ([client], d / "q.log", d / "g.npz", d / "h.npz")
    assert client.records[2].reply != client.records[0].reply
    assert _violations(verify.check_dynamic, *args) == []
    client.records[2].reply = client.records[0].reply
    assert _violations(verify.check_dynamic, *args)


def test_stretch_is_measured_and_only_shortcuts_and_gaps_fail():
    exact = np.array([2.0, 4.0, 0.0])
    gate = verify.Gate()
    # above 1+ε at the practical β is allowed; it is what stretch_max reports
    assert verify.stretch_max(exact * 1.4, exact, gate) == pytest.approx(1.4)
    assert gate.violations == []
    assert _violations(verify.stretch_max, exact * 0.9, exact)
    assert _violations(verify.stretch_max, np.array([2.0, np.inf, 0.0]), exact)
