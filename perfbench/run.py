"""End-to-end benchmark of `repro build` and `repro serve`.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-static --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object: the correctness
verdict, requests attempted and failed, and the metrics (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).
The line before it records the host and what the run saw.  Exit status
is 0 for a complete run, whose outputs may still fail the gates
(``"correct": false``, violations on standard error).  README.md
describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent



def host_record() -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except OSError:
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": sha or "unknown",
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny graphs, for the benchmark's own smoke tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # servers stop on SIGINT, and a child inherits an ignored SIGINT (as
    # under a non-interactive shell's `&`); a handled one resets on exec
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import layers
    from workloads import FULL, TINY, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    # compile the tree once, so no run times bytecode compilation
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True, stdout=subprocess.DEVNULL,
    )
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](
            ROOT, work, args.seed, TINY if args.tiny else FULL
        )
        t0 = time.perf_counter()
        workload.prepare()
        passes = [workload.measure(args.seconds, None)]
        plain = passes[0]
        if args.trace:
            trace_dir = work / "spans"
            trace_dir.mkdir()
            passes.append(workload.measure(args.seconds, trace_dir))
            values = layers.per_layer([m["name"] for m in spec["per_layer"]], *passes)
            metrics = {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]
            }
        else:
            metrics = {
                m["name"]: {"value": plain.metrics[m["name"]], "unit": m["unit"]}
                for m in spec["end_to_end"]
            }
        violations = [v for p in passes for v in p.violations]
        note = {"workload": args.workload, "seed": args.seed,
                "wall_s": round(time.perf_counter() - t0, 3), **plain.info,
                "violations": len(violations), "server_stats": plain.server_stats}
    finally:
        if args.trace and (work / "spans").is_dir():  # the traced run's output
            spans = work.parent / f"spans-{work.name}"
            shutil.rmtree(spans, ignore_errors=True)
            (work / "spans").rename(spans)
        shutil.rmtree(work, ignore_errors=True)
    for message in violations[:20]:
        print(f"correctness gate: {message}", file=sys.stderr)
    print(json.dumps({"host": host_record(), "run": note}))
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
