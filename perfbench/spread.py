"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 10 [--trace 0|1] [--write FILE] [workload ...]

For every workload and metric: the median, the quartiles, and the
quartile spread (Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)``
gives them, next to the metric's bound from BENCHMARK.json. With
``--write`` the figures, the raw runs and the environment go to a JSON
file; perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[0][len("env "):])
    return env, json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / abs(median) if median else (0.0 if q3 == q1 else float("inf"))
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write", type=Path)
    args = p.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    summary, runs, env = {}, {}, None
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            env, result = run_once(workload, seed, bench["run_seconds"], args.trace)
            results.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        runs[workload] = results
        summary[workload] = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            s["unit"] = results[0]["metrics"][name]["unit"]
            summary[workload][name] = s
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound:<5} {'ok' if s['spread'] < bound / 3 else 'WIDE'}")
            print(f"  {name:38s} median {s['median']:<14.6g} q1 {s['q1']:<14.6g} "
                  f"q3 {s['q3']:<14.6g} spread {s['spread']:.4f} {verdict}", flush=True)
    if args.write:
        args.write.write_text(json.dumps({"run_seconds": bench["run_seconds"], "env": env,
                                          "summary": summary, "runs": runs},
                                         indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
