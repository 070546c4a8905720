"""Experiment configuration: JSON schema, validation, canonical hashing.

Config files are plain JSON with units spelled out in the key names
(sigma_ns, omega01_mhz, ...).  Unknown keys are rejected so typos fail
loudly at parse time.  Axes are either explicit value lists or
{"start", "stop", "step"} ranges.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import CavityParams, SplitSpec, TransmonParams


class Experiment(enum.Enum):
    TIME_EVOLUTION = "time_evolution"
    SEPARATION_SWEEP = "separation_sweep"
    DETUNING_MAP = "detuning_map"
    HYBRID = "hybrid"
    REVERSAL = "reversal"
    SPLIT_MAP = "split_map"
    TOMOGRAPHY_TIMELINE = "tomography_timeline"
    BERRY = "berry"


@dataclass(frozen=True)
class PulseConfig:
    omega01_mhz: float = 43.4
    omega12_mhz: float = 38.2
    sigma_ns: float = 45.0
    t_separation_ns: float = -90.0
    delta01_mhz: float = 0.0
    delta12_mhz: float = 0.0
    phi01_rad: float = 0.0
    phi12_rad: float = 0.0
    theta_fast_rad: float = math.pi / 2
    fast_duration_ns: float = 10.0
    reversal_spacing_ns: Optional[float] = None

    def __post_init__(self):
        if self.omega01_mhz < 0 or self.omega12_mhz < 0:
            raise ConfigurationError("pulse amplitudes must be nonnegative")
        if self.sigma_ns <= 0:
            raise ConfigurationError("sigma_ns must be positive")


@dataclass(frozen=True)
class GridConfig:
    dt_ns: float = 0.1
    sample_stride: int = 10

    def __post_init__(self):
        if self.dt_ns <= 0:
            raise ConfigurationError("dt_ns must be positive")
        if self.sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")


@dataclass(frozen=True)
class TomographyConfig:
    tau_max_ns: float = 1500.0
    dtau_ns: float = 5.0
    weight_ns: float = 700.0
    noise_std_rel: float = 0.01  # fraction of the reference trace scale
    decoherence_corrected_refs: bool = False

    def __post_init__(self):
        if self.tau_max_ns <= 0 or not 0 < self.dtau_ns <= self.tau_max_ns:
            raise ConfigurationError("tomography needs tau_max_ns > 0 and 0 < dtau_ns <= tau_max_ns")
        if self.weight_ns <= 0:
            raise ConfigurationError("tomography weight_ns must be positive")
        if self.noise_std_rel < 0:
            raise ConfigurationError("tomography noise_std_rel must be nonnegative")


@dataclass(frozen=True)
class BerryConfig:
    theta_rad: float = math.pi / 4
    phi_total_rad: float = math.pi
    omega_rms_mhz: float = 200.0
    ramp_span_ns: float = 90.0
    sigma_ns: float = 45.0
    metric_threshold: float = 10.0


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "."
    format: str = "csv"

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ConfigurationError(f"output format must be csv or json, got {self.format!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: Experiment = Experiment.TIME_EVOLUTION
    seed: int = 12345
    dissipative: bool = True
    workers: int = 1
    transmon: TransmonParams = field(default_factory=TransmonParams)
    pulses: PulseConfig = field(default_factory=PulseConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    sweep: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    cavity: CavityParams = field(default_factory=CavityParams)
    tomography: TomographyConfig = field(default_factory=TomographyConfig)
    berry: BerryConfig = field(default_factory=BerryConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def axis(self, name: str, default: Tuple[float, ...]) -> np.ndarray:
        values = self.sweep.get(name, default)
        if len(values) == 0:
            raise ConfigurationError(f"sweep axis {name!r} is empty")
        return np.asarray(values, dtype=float)


_SWEEP_AXES = {"t_separation_ns", "detuning_sum_mhz", "detuning_diff_mhz", "theta_fast_rad"}


def _resolve_axis(name: str, spec) -> Tuple[float, ...]:
    if isinstance(spec, (list, tuple)):
        values = tuple(float(v) for v in spec)
    elif isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "step"}
        if unknown:
            raise ConfigurationError(f"axis {name!r}: unknown keys {sorted(unknown)}")
        try:
            start, stop, step = float(spec["start"]), float(spec["stop"]), float(spec["step"])
        except KeyError as missing:
            raise ConfigurationError(f"axis {name!r}: missing {missing}") from None
        if step <= 0 or stop < start:
            raise ConfigurationError(f"axis {name!r}: need step > 0 and stop >= start")
        n = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = tuple(start + k * step for k in range(n))
    else:
        raise ConfigurationError(f"axis {name!r} must be a list or a start/stop/step object")
    if len(values) == 0:
        raise ConfigurationError(f"sweep axis {name!r} is empty")
    return values


def _build(section_cls, data: dict, context: str):
    import dataclasses

    names = {f.name for f in dataclasses.fields(section_cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigurationError(f"{context}: unknown keys {sorted(unknown)}")
    try:
        return section_cls(**data)
    except TypeError as exc:
        raise ConfigurationError(f"{context}: {exc}") from None


_TOP_KEYS = {
    "experiment", "seed", "dissipative", "workers", "transmon", "pulses",
    "grid", "sweep", "cavity", "tomography", "berry", "output",
}


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigurationError(f"config: unknown keys {sorted(unknown)}")

    kwargs = {}
    if "experiment" in data:
        try:
            kwargs["experiment"] = Experiment(data["experiment"])
        except ValueError:
            names = sorted(e.value for e in Experiment)
            raise ConfigurationError(
                f"unknown experiment {data['experiment']!r}; expected one of {names}"
            ) from None
    for key in ("seed", "workers"):
        if key in data:
            if not isinstance(data[key], int):
                raise ConfigurationError(f"{key} must be an integer")
            kwargs[key] = data[key]
    if "dissipative" in data:
        if not isinstance(data["dissipative"], bool):
            raise ConfigurationError("dissipative must be a boolean")
        kwargs["dissipative"] = data["dissipative"]

    if "transmon" in data:
        tdata = dict(data["transmon"])
        split = tdata.pop("split", None)
        if split is not None:
            sdata = dict(split)
            if "branch_weights" in sdata:
                sdata["branch_weights"] = tuple(float(w) for w in sdata["branch_weights"])
            split = _build(SplitSpec, sdata, "transmon.split")
        tdata["split"] = split
        kwargs["transmon"] = _build(TransmonParams, tdata, "transmon")
    if "pulses" in data:
        kwargs["pulses"] = _build(PulseConfig, dict(data["pulses"]), "pulses")
    if "grid" in data:
        kwargs["grid"] = _build(GridConfig, dict(data["grid"]), "grid")
    if "cavity" in data:
        cdata = dict(data["cavity"])
        if "g_mhz" in cdata:
            cdata["g_mhz"] = tuple(float(g) for g in cdata["g_mhz"])
        kwargs["cavity"] = _build(CavityParams, cdata, "cavity")
    if "tomography" in data:
        kwargs["tomography"] = _build(TomographyConfig, dict(data["tomography"]), "tomography")
    if "berry" in data:
        kwargs["berry"] = _build(BerryConfig, dict(data["berry"]), "berry")
    if "output" in data:
        kwargs["output"] = _build(OutputConfig, dict(data["output"]), "output")

    sweep = {}
    for name, spec in (data.get("sweep") or {}).items():
        if name not in _SWEEP_AXES:
            raise ConfigurationError(f"unknown sweep axis {name!r}; expected one of {sorted(_SWEEP_AXES)}")
        sweep[name] = _resolve_axis(name, spec)
    kwargs["sweep"] = sweep

    return ExperimentConfig(**kwargs)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Fully resolved, order-independent representation used for hashing."""
    t = cfg.transmon
    split = None
    if t.split is not None:
        split = {
            "delta_split_mhz": t.split.delta_split_mhz,
            "branch_weights": list(t.split.branch_weights),
        }
    return {
        "experiment": cfg.experiment.value,
        "seed": cfg.seed,
        "dissipative": cfg.dissipative,
        "transmon": {
            "f01_mhz": t.f01_mhz,
            "f12_mhz": t.f12_mhz,
            "gamma10_mhz": t.gamma10_mhz,
            "gamma21_mhz": t.gamma21_mhz,
            "gamma_phi10_mhz": t.gamma_phi10_mhz,
            "gamma_phi21_mhz": t.gamma_phi21_mhz,
            "split": split,
        },
        "pulses": {
            "omega01_mhz": cfg.pulses.omega01_mhz,
            "omega12_mhz": cfg.pulses.omega12_mhz,
            "sigma_ns": cfg.pulses.sigma_ns,
            "t_separation_ns": cfg.pulses.t_separation_ns,
            "delta01_mhz": cfg.pulses.delta01_mhz,
            "delta12_mhz": cfg.pulses.delta12_mhz,
            "phi01_rad": cfg.pulses.phi01_rad,
            "phi12_rad": cfg.pulses.phi12_rad,
            "theta_fast_rad": cfg.pulses.theta_fast_rad,
            "fast_duration_ns": cfg.pulses.fast_duration_ns,
            "reversal_spacing_ns": cfg.pulses.reversal_spacing_ns,
        },
        "grid": {"dt_ns": cfg.grid.dt_ns, "sample_stride": cfg.grid.sample_stride},
        "sweep": {name: list(vals) for name, vals in sorted(cfg.sweep.items())},
        "cavity": {
            "f_res_mhz": cfg.cavity.f_res_mhz,
            "kappa_mhz": cfg.cavity.kappa_mhz,
            "g_mhz": list(cfg.cavity.g_mhz),
            "epsilon_mhz": cfg.cavity.epsilon_mhz,
            "eta": cfg.cavity.eta,
            "f_meas_mhz": cfg.cavity.f_meas_mhz,
        },
        "tomography": {
            "tau_max_ns": cfg.tomography.tau_max_ns,
            "dtau_ns": cfg.tomography.dtau_ns,
            "weight_ns": cfg.tomography.weight_ns,
            "noise_std_rel": cfg.tomography.noise_std_rel,
            "decoherence_corrected_refs": cfg.tomography.decoherence_corrected_refs,
        },
        "berry": {
            "theta_rad": cfg.berry.theta_rad,
            "phi_total_rad": cfg.berry.phi_total_rad,
            "omega_rms_mhz": cfg.berry.omega_rms_mhz,
            "ramp_span_ns": cfg.berry.ramp_span_ns,
            "sigma_ns": cfg.berry.sigma_ns,
            "metric_threshold": cfg.berry.metric_threshold,
        },
    }


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
