"""Benchmark workloads: stirap experiment runners at fixed configs.

A workload is a tuple of stages. A stage is one call of
``stirap.experiments.run_experiment`` on a config built from a shipped
config file (or the defaults) plus fixed overrides, followed by
``stirap.experiments.emit``. One pass runs every stage of a workload once.

Only public stirap names are used, so the benchmark keeps running while
the package's internals change.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from stirap import config as sconfig
from stirap import experiments, tomography
from stirap.errors import MaxIterationsError
from stirap.holonomy import plateau_phase_sequence
from stirap.lindblad import TimeGrid
from stirap.pulses import SequenceKind, build_sequence, two_pulse_sequence
from stirap.units import mhz_to_rad_ns

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2  # = nproc of the reference machine; fixed so runs compare across machines
DEFAULT_SEED = 12345


@dataclasses.dataclass(frozen=True)
class Stage:
    name: str  # experiment kind, also the emit sub-directory
    config: Optional[str] = None  # shipped config, relative to the repo root
    overrides: Tuple[Tuple[str, dict], ...] = ()  # (section, values) merged into the JSON
    keep_seed: bool = False  # run at the shipped config's seed, whatever the workload seed


def _axis(start: float, stop: float, step: float) -> dict:
    return {"start": start, "stop": stop, "step": step}


# The maps keep the shipped grid (dt 0.1 ns, 4500 steps, stride 25) on a
# 15 x 17 sub-plane of the shipped detuning range: 255 cells fill two
# 128-cell chunks, one per worker, and a pass takes a few seconds, so a
# run holds several passes to take the median of.
WORKLOADS: Dict[str, Tuple[Stage, ...]] = {
    "detuning-map": (
        Stage("detuning_map", "configs/detuning_map.json", (
            ("sweep", {"detuning_sum_mhz": _axis(-21, 21, 3),
                       "detuning_diff_mhz": _axis(-20, 20, 2.5)}),)),
    ),
    "split-map": (
        Stage("split_map", "configs/split_map.json", (
            ("sweep", {"detuning_sum_mhz": _axis(-24.5, 24.5, 3.5),
                       "detuning_diff_mhz": _axis(-24, 24, 3)}),)),
    ),
    "experiment-set": (
        Stage("time_evolution", "configs/paper_defaults.json"),
        Stage("separation_sweep", "configs/separation_sweep.json"),
        Stage("hybrid"),
        Stage("reversal"),
        # At its shipped seed LM fails on samples 34, 51 and 52 (ROADMAP known
        # defect); keeping that seed shows the same 3 failures on every --seed.
        Stage("tomography_timeline", "configs/tomography.json", keep_seed=True),
        Stage("berry", "configs/berry.json"),
    ),
}

# Median pass wall in seconds at the seed commit on the reference machine
# (2 vCPUs). A run makes as many passes as fill its --seconds at these
# walls, so the work of a run depends on its arguments and not on the clock.
PASS_S: Dict[str, float] = {"detuning-map": 3.7, "split-map": 4.1, "experiment-set": 9.5}

# Small, coarse variants of every stage for the self-tests.
SMOKE: Dict[str, Tuple[Tuple[str, dict], ...]] = {
    "detuning_map": (("sweep", {"detuning_sum_mhz": [-10.0, 0.0, 10.0],
                                "detuning_diff_mhz": [-5.0, 5.0]}),),
    "split_map": (("sweep", {"detuning_sum_mhz": [-15.0, 0.0, 15.0],
                             "detuning_diff_mhz": [-5.0, 5.0]}),),
    "separation_sweep": (("sweep", {"t_separation_ns": [-100.0, 0.0, 100.0]}),),
    "hybrid": (("sweep", {"theta_fast_rad": [0.0, 1.5]}),),
}
SMOKE_GRID = {"dt_ns": 0.5}


@dataclasses.dataclass
class Plan:
    """A stage's config plus the operations one run of it attempts."""

    stage: Stage
    cfg: sconfig.ExperimentConfig
    config_hash: str
    cells: int  # integrated trajectories
    inversions: int = 0  # tomography inversions
    comparisons: int = 0  # Berry path integral vs propagation oracle

    @property
    def ops(self) -> int:
        return self.cells + self.inversions + self.comparisons


def load_config(stage: Stage, seed: int, smoke: bool = False) -> Tuple[sconfig.ExperimentConfig, str]:
    """Read, override, validate and hash a stage's config."""
    data = json.loads((ROOT / stage.config).read_text()) if stage.config else {"experiment": stage.name}
    overrides = list(stage.overrides)
    if smoke:
        overrides += list(SMOKE.get(stage.name, ())) + [("grid", SMOKE_GRID)]
    for section, values in overrides:
        data[section] = {**data.get(section, {}), **values}
    if not stage.keep_seed:
        data["seed"] = seed
    data["workers"] = WORKERS
    cfg = sconfig.config_from_dict(data)
    return cfg, sconfig.config_hash(cfg)


def _seq_kwargs(cfg) -> dict:
    p = cfg.pulses
    return dict(omega01=mhz_to_rad_ns(p.omega01_mhz), omega12=mhz_to_rad_ns(p.omega12_mhz),
                sigma=p.sigma_ns, t_s=p.t_separation_ns,
                delta01=mhz_to_rad_ns(p.delta01_mhz), delta12=mhz_to_rad_ns(p.delta12_mhz),
                phi01=p.phi01_rad, phi12=p.phi12_rad)


def _n_samples(grid: TimeGrid) -> int:
    return len(set(range(0, grid.n_steps + 1, grid.sample_stride)) | {grid.n_steps})


def build_plan(stage: Stage, cfg, cfg_hash: str) -> Plan:
    """Build the stage's pulse sequences and grids as its runner will, and
    count the operations it attempts."""
    kw = _seq_kwargs(cfg)
    g = cfg.grid
    name = stage.name
    if name in ("detuning_map", "split_map"):
        default = (experiments.DEFAULT_DETUNING_AXIS if name == "detuning_map"
                   else experiments.DEFAULT_SPLIT_AXIS)
        del kw["delta01"], kw["delta12"]
        seqs = [two_pulse_sequence(delta01=mhz_to_rad_ns((s + d) / 2.0),
                                   delta12=mhz_to_rad_ns((s - d) / 2.0), **kw)
                for s in cfg.axis("detuning_sum_mhz", default)
                for d in cfg.axis("detuning_diff_mhz", default)]
        span = abs(kw["t_s"]) / 2.0 + 4.0 * kw["sigma"]
        TimeGrid(-span, span, g.dt_ns, g.sample_stride)
        return Plan(stage, cfg, cfg_hash, cells=len(seqs))
    if name == "separation_sweep":
        axis = cfg.axis("t_separation_ns", experiments.DEFAULT_TS_AXIS)
        del kw["t_s"]
        seqs = [two_pulse_sequence(t_s=float(ts), **kw) for ts in axis]
        half = max(abs(float(ts)) for ts in axis) / 2.0 + 4.0 * kw["sigma"]
        TimeGrid(-half, half, g.dt_ns, g.sample_stride)
        return Plan(stage, cfg, cfg_hash, cells=len(seqs))
    if name == "hybrid":
        thetas = cfg.axis("theta_fast_rad", experiments.DEFAULT_THETA_AXIS)
        for theta in thetas:
            seq = build_sequence(SequenceKind.HYBRID, theta_fast=float(theta),
                                 fast_duration=cfg.pulses.fast_duration_ns, **kw)
            TimeGrid(seq.window[0], seq.window[1], g.dt_ns, g.sample_stride)
        return Plan(stage, cfg, cfg_hash, cells=len(thetas))
    if name == "reversal":
        seq = build_sequence(SequenceKind.REVERSAL,
                             reversal_spacing=cfg.pulses.reversal_spacing_ns, **kw)
        TimeGrid(seq.window[0], seq.window[1], g.dt_ns, g.sample_stride)
        return Plan(stage, cfg, cfg_hash, cells=1)
    if name in ("time_evolution", "tomography_timeline"):
        seq = build_sequence(SequenceKind.STIRAP, **kw)
        grid = TimeGrid(seq.window[0], seq.window[1], g.dt_ns, g.sample_stride)
        if name == "time_evolution":
            return Plan(stage, cfg, cfg_hash, cells=2)  # dissipative and unitary
        return Plan(stage, cfg, cfg_hash, cells=1, inversions=_n_samples(grid))
    if name == "berry":
        b = cfg.berry
        seq = plateau_phase_sequence(theta=b.theta_rad, phi_total=b.phi_total_rad,
                                     sigma=b.sigma_ns, omega_rms=mhz_to_rad_ns(b.omega_rms_mhz),
                                     ramp_span=b.ramp_span_ns)
        TimeGrid(seq.window[0], seq.window[1], min(g.dt_ns, 0.05), g.sample_stride)
        return Plan(stage, cfg, cfg_hash, cells=1, comparisons=1)
    raise ValueError(f"no plan for stage {name!r}")


def setup(workload: str, seed: int, smoke: bool = False) -> List[Plan]:
    """Load and hash every config of a workload and build its sequences."""
    plans = []
    for stage in WORKLOADS[workload]:
        cfg, cfg_hash = load_config(stage, seed, smoke)
        plans.append(build_plan(stage, cfg, cfg_hash))
    return plans


class InversionGuard:
    """Counts tomography inversions that hit the Levenberg-Marquardt cap.

    ``tomography_timeline`` lets the first MaxIterationsError end the whole
    timeline. While installed, the guard stands in for
    ``stirap.tomography.reconstruct_populations``: it records each such
    error and returns the best estimate the error carries, so every
    inversion is attempted and each failure is counted once.
    """

    def __init__(self):
        self.failures = 0
        self._orig = None

    def __call__(self, *args, **kwargs):
        try:
            return self._orig(*args, **kwargs)
        except MaxIterationsError as exc:
            if exc.result is None:
                raise
            self.failures += 1
            return exc.result

    def __enter__(self):
        self._orig = tomography.reconstruct_populations
        tomography.reconstruct_populations = self
        return self

    def __exit__(self, *exc_info):
        tomography.reconstruct_populations = self._orig
        return False


@dataclasses.dataclass
class StageOutcome:
    name: str
    result: Optional[experiments.SweepResult]
    error: Optional[str]  # exception type, when the runner raised
    emit_bytes: int
    inversion_failures: int


@dataclasses.dataclass
class PassOutcome:
    wall_s: float  # first runner call to last emitted file
    stages: List[StageOutcome]

    @property
    def emit_bytes(self) -> int:
        return sum(s.emit_bytes for s in self.stages)


Span = Callable[[str], object]


def run_pass(plans: List[Plan], out_dir: Path, guard: InversionGuard,
             span: Optional[Span] = None, workers: int = WORKERS) -> PassOutcome:
    """Run and emit every stage once. A runner that raises is recorded by
    exception type and the remaining stages still run."""
    span = span or (lambda name: nullcontext())
    outcomes = []
    t0 = time.perf_counter()
    for plan in plans:
        cfg = dataclasses.replace(plan.cfg, workers=workers)
        before = guard.failures
        result, error, nbytes = None, None, 0
        try:
            with span(f"experiments.{plan.stage.name}"):
                result = experiments.run_experiment(cfg)
            with span("experiments.emit"):
                written = experiments.emit(result, out_dir / plan.stage.name, cfg.output.format)
            nbytes = sum(p.stat().st_size for p in written)
        except Exception as exc:  # noqa: BLE001 - a failing runner is a measured outcome
            error = type(exc).__name__
        outcomes.append(StageOutcome(plan.stage.name, result, error, nbytes,
                                     guard.failures - before))
    wall = time.perf_counter() - t0
    shutil.rmtree(out_dir, ignore_errors=True)
    return PassOutcome(wall, outcomes)
