"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/collect.py --seeds 1-10 --output perfbench/baseline.json

Runs ``perfbench/run.py`` once per workload of ``BENCHMARK.json`` and
seed, untraced, for its ``run_seconds``, and once traced on the first
seed, right after the untraced run of that seed.  It writes, per
workload, the median and the quartiles of every metric over the seeds,
the spread of each end-to-end metric (interquartile range over median),
the traced per-layer metrics and the tracing overhead (traced over
untraced ``trial_p50_s`` on the first seed, minus one; a single pair, so
machine noise is in it).  Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, full


def summary(values):
    values = [v for v in values if v is not None]
    if len(values) < 2:
        return {"median": values[0] if values else None, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, traced = [], None
        for seed in args.seeds:
            last, full = run_once(workload, seed, seconds, 0)
            runs.append(full)
            gated = " ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items())
            print(f"{workload} seed={seed} attempted={last['attempted']} "
                  f"failed={last['failed']} {gated}", flush=True)
            if traced is None:
                _, traced = run_once(workload, seed, seconds, 1)
        names = sorted({k for r in runs for k in r["metrics"]})
        entry = {
            "environment": runs[0]["environment"],
            "metrics": {k: summary([r["metrics"].get(k, {}).get("value") for r in runs])
                        for k in names},
        }
        for name, bound in bounds.items():
            spread = entry["metrics"][name].get("spread")
            print(f"{workload} {name}: spread {spread:.4f} (bound {bound})", flush=True)
        entry["traced_seed"] = args.seeds[0]
        entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = runs[0]["metrics"]["trial_p50_s"]["value"]
        entry["tracing_overhead_frac"] = traced["metrics"]["trial_p50_s"]["value"] / untraced - 1
        report["workloads"][workload] = entry
        args.output.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
