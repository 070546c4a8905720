"""Time one fresh set-up of a workload and print it as a JSON line.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a run pays before its first integration call: importing
stirap (with numpy and scipy), loading and hashing the configs, and
building the pulse sequences and time grids. run.py starts this script
several times per run and reports the median.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports stirap)


def main(workload: str, seed: int) -> dict:
    t1 = time.perf_counter()
    configs = [(stage, *workloads.load_config(stage, seed)) for stage in workloads.WORKLOADS[workload]]
    t2 = time.perf_counter()
    for stage, cfg, cfg_hash in configs:
        workloads.build_plan(stage, cfg, cfg_hash)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "load_s": t2 - t1, "build_s": t3 - t2, "setup_s": t3 - t0}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]))))
