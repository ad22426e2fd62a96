"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric of ``BENCHMARK.json``, its times scaled to a host of fixed speed
by the reference loops timed beside them (``workloads.HostClock``); ``--trace 1`` runs the workload half
untraced, half traced and prints every per-layer metric, writing the
spans to ``perfbench/out/``.  Human-readable lines come first; the last
stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any
correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Dict

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402  (needs the paths above)
from tracing import Tracer  # noqa: E402

#: iterations of the calibration loop timed before and after a workload
CALIBRATION_LOOPS = 1_000_000


def fingerprint() -> Dict[str, object]:
    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    tracer = Tracer() if args.trace else None
    machine = fingerprint()
    machine["calibration_s"] = {"before": workloads.reference(CALIBRATION_LOOPS)}
    outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    machine["calibration_s"]["after"] = workloads.reference(CALIBRATION_LOOPS)
    outcome.clock.settle()  # before any scaled time is read

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = (workloads.per_layer(outcome, tracer) if args.trace
              else workloads.end_to_end(outcome))
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        value = float(values.get(name, 0.0)) if args.trace else values[name]
        metrics[name] = {"value": value, "unit": metric["unit"]}

    refs = [took for _, took in outcome.clock.refs]
    machine["reference_s"] = {"median": statistics.median(refs),
                              "min": min(refs), "max": max(refs), "n": len(refs)}
    samples = {"ops": [p.ops for p in outcome.phases],
               "latency_samples": [len(p.latencies_ms) for p in outcome.phases],
               "setups": len(outcome.setup_s),
               "raw_ops_per_s": [p.ops / p.raw_elapsed for p in outcome.phases]}
    error_rate = outcome.failed / outcome.attempted
    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# machine " + json.dumps(machine))
    print("# samples " + json.dumps(samples))
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"{'error_rate':36s} {error_rate:14.6g} fraction")
    for message in outcome.errors:
        print("# error " + message)
    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(
            str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl"),
            {"workload": args.workload, "seed": args.seed,
             "machine": machine, "metrics": metrics})
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
