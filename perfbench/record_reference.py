"""Record the correctness-gate reference values of every workload.

    python3 perfbench/record_reference.py [workload ...]

Runs one pass of each workload at the default seed and stores the checked
tables under perfbench/reference/. The committed files were recorded at
the seed commit; re-record only when a change of the physics model is
meant to change the numbers, and say so where the change is described.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(names) -> int:
    import run

    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE.parent / "src"))
    import reference
    import workloads

    for name in names or workloads.WORKLOADS:
        plans = workloads.setup(name, workloads.DEFAULT_SEED)
        with workloads.InversionGuard() as guard:
            outcome = workloads.run_pass(plans, run.OUT / "record", guard)
        env = run.environment(workloads.WORKERS)
        path = reference.save(name, reference.record(outcome),
                              {"commit": env["commit"], "src_sha256": env["src_sha256"],
                               "seed": workloads.DEFAULT_SEED})
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
