"""Checks of the installed `stirap` command, run before the Tier-1 suite; pytest does not collect them.

    python tests/ci_installed.py stirap                             # the console script
    PYTHONPATH=src python tests/ci_installed.py python -m stirap    # a checkout

The arguments are the command to run.  Each check writes its configs into one temporary directory,
every run must exit 0, and the script exits 1 at the first check that fails, naming it.
"""

import csv
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def expect(ok, what):
    if not ok:
        raise AssertionError(what)


def run(stirap, *args, timeout=None):
    subprocess.run([*stirap, *args], check=True, stdout=subprocess.DEVNULL, timeout=timeout)


def plane(tmp, name, axis, sums=None, experiment="detuning_map", **sections):
    """Write a (sum, difference) plane's config into tmp; returns its path."""
    sweep = {"detuning_sum_mhz": sums or axis, "detuning_diff_mhz": axis}
    (tmp / f"{name}.json").write_text(json.dumps({"experiment": experiment, **sections, "sweep": sweep}))
    return str(tmp / f"{name}.json")


def same_bytes(stirap, tmp, command, cfg, name, files, *flags):
    """Run cfg at --workers 1 and 8; fail unless each of files is byte-identical. Returns the serial out dir."""
    out = {w: tmp / f"{name}_w{w}" for w in (1, 8)}
    for w, path in out.items():
        run(stirap, command, "--workers", str(w), *flags, "--config", cfg, "--out", str(path))
    differ = [f for f in files if not filecmp.cmp(out[1] / f, out[8] / f, shallow=False)]
    expect(not differ, f"{name}: --workers 8 wrote other bytes than --workers 1 in {differ}")
    return out[1]


def validates(stirap, tmp):
    """Every shipped config, and within 10 s the largest plane a config may hold (10^6 cells)."""
    for path in sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")):
        run(stirap, "validate-config", "--config", str(path))
    run(stirap, "validate-config", "--config", plane(tmp, "plane1000", list(range(-500, 500))), timeout=10)


def peak_mb(argv, what):
    """Run argv, which must exit 0; returns its own peak RSS in MB (not its siblings')."""
    pid = os.posix_spawnp(argv[0], argv, os.environ,
                          file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    expect(os.waitstatus_to_exitcode(status) == 0, f"{what} exited {os.waitstatus_to_exitcode(status)}")
    return usage.ru_maxrss / 1024  # KiB on Linux


def plane151_under_100mb(stirap, tmp):
    """A serial 151 x 151 plane at every step of dt 0.5 ns, bounded by its own peak RSS."""
    cfg = plane(tmp, "plane151", list(range(-75, 76)), grid={"dt_ns": 0.5, "sample_stride": 1})
    peak = peak_mb([*stirap, "sweep-detuning", "--workers", "1", "--config", cfg, "--out", str(tmp / "plane151")],
                   "the plane")
    expect(peak < 100, f"the 151 x 151 plane peaked at {peak:.0f} MB, not under 100 MB")
    print(f"peak RSS {peak:.0f} MB")


def json_emit_like_csv(stirap, tmp):
    """Both formats are written a row at a time: a 100-cell separation sweep at every step of dt 0.1 ns
    (560 100 series rows) peaks in JSON at no more than 1.1 times its CSV run."""
    (tmp / "sweep100.json").write_text(json.dumps({
        "experiment": "separation_sweep", "grid": {"dt_ns": 0.1, "sample_stride": 1},
        "sweep": {"t_separation_ns": {"start": -200, "stop": 196, "step": 4}}}))
    peak = {fmt: peak_mb([*stirap, "sweep-separation", "--format", fmt, "--config", str(tmp / "sweep100.json"),
                          "--out", str(tmp / f"sweep100_{fmt}")], f"the {fmt} sweep") for fmt in ("csv", "json")}
    expect(peak["json"] <= 1.1 * peak["csv"],
           f"the sweep peaked at {peak['json']:.0f} MB in JSON, over 1.1 x its {peak['csv']:.0f} MB in CSV")
    print(f"peak RSS {peak['json']:.0f} MB in JSON, {peak['csv']:.0f} MB in CSV")


def plane41_pooled(stirap, tmp):
    """841 integrated cells make one chunk per usable CPU at --workers 8, as density matrices and as kets."""
    cfg = plane(tmp, "plane41", list(range(-20, 21)), grid={"dt_ns": 0.5})
    for flags in ((), ("--no-dissipation",)):
        same_bytes(stirap, tmp, "sweep-detuning", cfg, "plane41" + "".join(flags),
                   ["detuning_map.csv", "detuning_map_manifest.json"], *flags)


def split25_pooled(stirap, tmp):
    """The split mirror swaps the |1a> and |1b> columns: 313 integrated cells of 625 make two chunks."""
    cfg = plane(tmp, "split25", list(range(-12, 13)), experiment="split_map",
                transmon={"split": {"delta_split_mhz": 15}}, grid={"dt_ns": 0.5})
    same_bytes(stirap, tmp, "split", cfg, "split25",
               ["split_map.csv", "split_map_diagnostics.csv", "split_map_manifest.json"])


def failed43_pooled(stirap, tmp):
    """RK4 at dt 0.5 ns is unstable at a 1000 MHz detuning sum: exactly the 82 cells of the two outer rows
    fail, the first integrated and the last mirrored, and they and both FWHMs along the sum read nan."""
    axis = list(range(-20, 21))
    cfg = plane(tmp, "fail43", axis, [-1000, *axis, 1000], grid={"dt_ns": 0.5})
    out = same_bytes(stirap, tmp, "sweep-detuning", cfg, "fail43",
                     ["detuning_map.csv", "detuning_map_manifest.json"])
    cells = [f["cell"] for f in json.loads((out / "detuning_map_manifest.json").read_text())["failures"]]
    with open(out / "detuning_map.csv") as f:
        failed = [r for r in csv.DictReader(f) if abs(float(r["detuning_sum_mhz"])) == 1000]
    with open(out / "detuning_map_diagnostics.csv") as f:
        widths = [(d["fwhm_sum_mhz"], d["fwhm_ratio"]) for d in csv.DictReader(f)]
    expect(cells == [*range(41), *range(1722, 1763)], f"the manifest lists failed cells {cells}")
    expect(len(failed) == 82, f"{len(failed)} rows at a 1000 MHz sum, not 82")
    expect(all(v == "nan" for r in failed for k, v in r.items() if k.startswith(("final", "peak"))),
           "a failed row reads a number")
    expect(widths == [("nan", "nan")] * 2, f"the diagnostics' fwhm_sum_mhz and fwhm_ratio read {widths}")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        for check in (validates, plane151_under_100mb, json_emit_like_csv, plane41_pooled, split25_pooled,
                      failed43_pooled):
            start = time.perf_counter()
            try:
                check(sys.argv[1:], Path(tmp))
            except (AssertionError, subprocess.SubprocessError) as exc:
                sys.exit(f"FAILED {check.__name__}: {exc}")
            print(f"ok {check.__name__} ({time.perf_counter() - start:.1f} s)")
