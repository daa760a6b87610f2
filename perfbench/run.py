"""narxident benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload heating-identify --seed 1 --seconds 20 --trace 0

Run from the repository root.  Prints every metric with its unit and
better-direction, records the environment, writes the full result (and,
with ``--trace 1``, the spans) to ``perfbench/out/``, and prints as its
last line one JSON object with the metrics ``BENCHMARK.json`` names:
its ``end_to_end`` list when untraced, its ``per_layer`` list when traced.
Exits 1 if a correctness check fails, 2 if the program cannot be loaded.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

# One BLAS thread: the solves are small or tall-and-skinny and gain nothing
# from a second thread, and a single thread keeps the timings steady on a
# shared two-CPU machine.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("heating-identify", "boucwen-identify", "simulate-validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "narxident" / "__init__.py").is_file():
        print(f"error: narxident sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import harness

    env = harness.environment(ROOT, args.seed)
    print(f"narxident benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    try:
        result = harness.run(args.workload, args.seed, args.seconds, args.trace, SRC)
    except checks.CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    print(f"{'metric':44s} {'value':>14s}  {'unit':12s} better")
    for name, (value, unit, better) in result.metrics.items():
        print(f"{name:44s} {value:14.6g}  {unit:12s} {better}")
    for reason in sorted(set(result.failures)):
        print(f"failed trial: {reason}")

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "attempted": result.attempted, "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u, "better": b}
                    for k, (v, u, b) in result.metrics.items()},
        "trials": result.trials, "spans": result.spans,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    for item in wanted:
        value, unit, _ = result.metrics[item["name"]]
        if unit != item["unit"]:
            raise SystemExit(f"metric {item['name']}: unit {unit} != {item['unit']} "
                             "in BENCHMARK.json")
        if not math.isfinite(value):
            print(f"metric {item['name']} is not finite: {value}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": result.attempted,
                              "failed": result.failed, "metrics": {}}))
            return 1
        metrics[item["name"]] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
