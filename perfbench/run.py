"""stirap benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload detuning-map --seed 12345 --seconds 30 --trace 0

Run from the root of a stirap checkout. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines above it print every metric by name and unit,
the environment, and the failures by kind. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 3  # an untraced run takes the median of at least this many passes
SETUP_PROBES = 9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("detuning-map", "split-map", "experiment-set"))
    p.add_argument("--seed", type=int, default=12345,
                   help="feeds the configs' seed; the tomography stage keeps its shipped one")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure as many passes as fill this time at the nominal pass wall")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(workers: int) -> dict:
    import numpy
    import scipy

    src = ROOT / "src" / "stirap"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "workers": workers,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def setup_probes(workload: str, seed: int) -> dict:
    """Median of fresh-process set-ups: import, config load+hash, build."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill ``seconds`` at the workload's nominal pass wall.

    The count depends only on the arguments, never on the clock, so two
    runs with the same arguments attempt the same operations.
    """
    import workloads

    return max(MIN_PASSES, int(seconds // workloads.PASS_S[workload]))


def _untraced(passes, plans, n_passes: int) -> dict:
    """End-to-end metrics: medians over ``n_passes`` passes."""
    walls = [passes().wall_s for _ in range(n_passes)]
    rss = peak_rss_mb()  # before the set-up probes start their own children
    cells = sum(p.cells for p in plans)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cells_per_s": (statistics.median(cells / w for w in walls), "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }


def _traced(passes, guard, tracer, n_pairs: int) -> dict:
    """Per-layer metrics: ``n_pairs`` untraced and traced passes at
    WORKERS, in alternating order, then one traced serial pass."""
    import tracing
    import workloads

    untraced, traced = [], []
    for k in range(n_pairs):
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                tracer.phase = f"traced-{k}"
                with tracer.installed():
                    traced.append(passes(span=tracer.span).wall_s)
            else:
                untraced.append(passes().wall_s)
    tracer.phase = "serial"
    before = guard.failures
    with tracer.installed():
        serial = passes(span=tracer.span, workers=1)
    runners = sorted({s.name for stages in workloads.WORKLOADS.values() for s in stages})
    return tracing.layer_metrics(tracer, runners, workloads.WORKERS, untraced, traced,
                                 guard.failures - before, serial.emit_bytes)


def measure(workload: str, seed: int, seconds: float, plans, ref, run_id: str, tracer=None):
    """Run one benchmark measurement; returns (metrics, verdicts, walls).

    ``metrics`` maps a name to (value, unit): the end-to-end metrics, or
    the per-layer ones when a ``tracer`` records the run.
    """
    import reference
    import workloads

    out_dir = OUT / f"emit-{run_id}"
    verdicts, walls = [], []

    def passes(**kw):
        outcome = workloads.run_pass(plans, out_dir, guard, **kw)
        verdicts.append(reference.check_pass(outcome, plans, ref))
        walls.append(outcome.wall_s)
        return outcome

    n_passes = pass_count(workload, seconds)
    with workloads.InversionGuard() as guard:
        if tracer:
            metrics = _traced(passes, guard, tracer, max(1, n_passes // 2))
        else:
            metrics = _untraced(passes, plans, n_passes)
    probes = setup_probes(workload, seed)
    if tracer:
        metrics["config.import_s"] = (probes["import_s"], "s")
        metrics["config.load_s"] = (probes["load_s"], "s")
    else:
        metrics["setup_s"] = (probes["setup_s"], "s")
        failed = sum(v.failed for v in verdicts)
        metrics["ok_frac"] = (1.0 - failed / sum(v.attempted for v in verdicts), "ratio")
    return metrics, verdicts, walls


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stirap" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: {ROOT} holds no stirap source tree (src/stirap, configs)",
              file=sys.stderr)
        return 2
    # Pinned before numpy loads; forked workers inherit it, so two workers
    # never oversubscribe two cores.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import reference
    import tracing
    import workloads

    plans = workloads.setup(args.workload, args.seed)
    run_id = f"{os.getpid()}-{time.time_ns()}"
    tracer = tracing.Tracer(run_id) if args.trace else None
    metrics, verdicts, walls = measure(args.workload, args.seed, args.seconds, plans,
                                       reference.load(args.workload), run_id, tracer)

    env = environment(workloads.WORKERS)
    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}-{run_id}.json",
                     {"workload": args.workload, "seed": args.seed, "env": env})
    failures = sum((v.failures for v in verdicts), collections.Counter())
    problems = sorted({p for v in verdicts for p in v.problems})
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} "
          f"pass walls {json.dumps([round(w, 4) for w in walls])} "
          f"failures {json.dumps(failures, sort_keys=True)}")
    for p in problems:
        print(f"problem {p}")
    for name in sorted(metrics):
        value, unit = metrics[name]
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {n: {"value": float(v), "unit": u} for n, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
