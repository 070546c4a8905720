"""Golden tables: the recorded answer of each subcommand on a coarse config.

    PYTHONPATH=src python3 tests/record_golden.py

runs the eight subcommands on DETERMINISM_CONFIGS (dt 0.5 ns, stride 50)
with --format json, prints each table's maximum deviation from the tables
recorded before, and writes the payload and manifest of each run to
tests/golden/<command>.json.gz.  tests/test_acceptance.py compares every
run against them.  Re-record only when a change is meant to move the
numbers, and state why in CHANGES.md with the deviations printed here.

Table columns compare at GOLDEN_TOL absolute, not by bytes: numpy's SIMD
paths can differ in the last bit between CPUs.  Axes, failures, the
manifest and config_hash compare exactly; a metadata value that is a
computed number compares at GOLDEN_TOL.
"""

import gzip
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_TOL = 1e-12

# One coarse config per subcommand.  The two planes hold 13 x 11 = 143 cells.
# The detuning plane is point-symmetric, so it integrates 72 of them as one
# chunk; the split plane's weights 0.8 / 0.6 do not mirror, so it runs all
# 143, and --workers 2 sends it over a pool as chunks of 72 and 71.
COARSE_PLANE = {"detuning_sum_mhz": {"start": -6.0, "stop": 6.0, "step": 1.0},
                "detuning_diff_mhz": {"start": -5.0, "stop": 5.0, "step": 1.0}}
DETERMINISM_CONFIGS = {
    "run": {},
    "sweep-separation": {"sweep": {"t_separation_ns": [-120.0, -90.0, -60.0]}},
    "sweep-detuning": {"sweep": COARSE_PLANE},
    "hybrid": {"sweep": {"theta_fast_rad": [0.0, 1.5, 3.0]}},
    "reversal": {},
    "split": {"transmon": {"split": {"delta_split_mhz": 15.0, "branch_weights": [0.8, 0.6]}},
              "sweep": COARSE_PLANE},
    "tomography": {"seed": 777, "grid": {"dt_ns": 0.5, "sample_stride": 100}},
    "berry": {},
}


def write_config(directory: Path, command: str) -> Path:
    path = directory / f"{command}.json"
    path.write_text(json.dumps({"grid": {"dt_ns": 0.5, "sample_stride": 50},
                                **DETERMINISM_CONFIGS[command]}))
    return path


def run_files(command: str, config: Path, out: Path, *extra: str) -> dict:
    """Run one subcommand through the CLI; {file name: bytes} of what it wrote."""
    from stirap.cli import EXIT_OK, main

    assert main([command, "--config", str(config), "--out", str(out), *extra]) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def record(files: dict) -> dict:
    """The payload and manifest of one --format json run."""
    manifest = next(name for name in files if name.endswith("_manifest.json"))
    payload = manifest.replace("_manifest.json", ".json")
    return {"payload": json.loads(files[payload]), "manifest": json.loads(files[manifest])}


def load(command: str) -> dict:
    return json.loads(gzip.decompress((GOLDEN / f"{command}.json.gz").read_bytes()))


def _rows(table: dict) -> np.ndarray:
    # a non-finite number may be stored as null, which float() cannot read
    return np.array([[np.nan if v is None else v for v in row] for row in table["rows"]],
                    dtype=float).reshape(len(table["rows"]), len(table["columns"]))


def _same(key: str, new: str, old: str) -> bool:
    if new == old or key == "config_hash":
        return new == old
    try:
        return abs(float(new) - float(old)) <= GOLDEN_TOL
    except ValueError:
        return False


def deviations(new: dict, golden: dict):
    """(problems, {table: max |deviation|}) of a run's record against the golden one."""
    problems, worst = [], {}
    if new["manifest"] != golden["manifest"]:
        problems.append(f"manifest {new['manifest']} != {golden['manifest']}")
    got, want = new["payload"], golden["payload"]
    for part in ("axes", "failures"):
        if got[part] != want[part]:
            problems.append(f"{part} {got[part]} != {want[part]}")
    meta, meta0 = got["metadata"], want["metadata"]
    if set(meta) != set(meta0) or not all(_same(k, meta[k], meta0[k]) for k in meta0):
        problems.append(f"metadata {meta} != {meta0}")
    if set(got["data"]) != set(want["data"]):
        problems.append(f"tables {sorted(got['data'])} != {sorted(want['data'])}")
    for name in sorted(set(got["data"]) & set(want["data"])):
        t, t0 = got["data"][name], want["data"][name]
        a, b = _rows(t), _rows(t0)
        if t["columns"] != t0["columns"] or a.shape != b.shape:
            problems.append(f"{name}: columns {t['columns']} rows {a.shape[0]} != "
                            f"columns {t0['columns']} rows {b.shape[0]}")
            continue
        if not np.array_equal(np.isnan(a), np.isnan(b)):
            problems.append(f"{name}: NaN cells moved")
            continue
        dev = np.abs(np.where(np.isnan(a), 0.0, a - b))
        worst[name] = float(dev.max(initial=0.0))
        for j, column in enumerate(t["columns"]):
            if not dev[:, j].max(initial=0.0) <= GOLDEN_TOL:
                problems.append(f"{name}.{column}: max |deviation| {dev[:, j].max():.3e} "
                                f"> {GOLDEN_TOL:g}")
    return problems, worst


def main() -> int:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for command in DETERMINISM_CONFIGS:
            new = record(run_files(command, write_config(Path(tmp), command),
                                   Path(tmp) / command, "--format", "json"))
            path = GOLDEN / f"{command}.json.gz"
            if path.exists():
                problems, worst = deviations(new, load(command))
                for name, dev in worst.items():
                    print(f"{command} {name}: max |deviation| {dev:.3e}")
                for problem in problems:
                    print(f"{command} {problem}")
            text = json.dumps(new, sort_keys=True, separators=(",", ":")) + "\n"
            path.write_bytes(gzip.compress(text.encode(), mtime=0))
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
