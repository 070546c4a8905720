"""Experiment configuration: parsing, validation, canonical hashing.

The dataclasses below (with TransmonParams, SplitSpec and CavityParams)
are the only schema.  Config files are plain JSON with units spelled out
in the key names (sigma_ns, omega01_mhz, ...); config_from_dict walks
the dataclass fields and their type hints, so unknown keys are rejected,
value types are checked (a bool is not a number, an int field takes no
float) and each section then validates its own values.  Axes are either
explicit value lists or {"start", "stop", "step"} ranges;
experiments.plan checks which axes, and whether transmon.split, each
experiment reads.  The config hash covers every field but workers and
output.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import CavityParams, SplitSpec, TransmonParams, require_finite
from .lindblad import MAX_POINTS


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
    fast_duration_ns: float = 10.0
    reversal_spacing_ns: Optional[float] = None

    def __post_init__(self):
        require_finite(self, "pulses")
        if not (self.omega01_mhz >= 0 and self.omega12_mhz >= 0):
            raise ConfigurationError("pulse amplitudes must be nonnegative")
        if not self.sigma_ns > 0:
            raise ConfigurationError("sigma_ns must be positive")


@dataclass(frozen=True)
class GridConfig:
    dt_ns: float = 0.1
    sample_stride: int = 10

    def __post_init__(self):
        require_finite(self, "grid")
        if not self.dt_ns > 0:
            raise ConfigurationError("dt_ns must be positive")
        if not self.sample_stride >= 1:
            raise ConfigurationError("sample_stride must be >= 1")


@dataclass(frozen=True)
class TomographyConfig:
    tau_max_ns: float = 1500.0
    dtau_ns: float = 5.0
    weight_ns: float = 700.0
    noise_std_rel: float = 0.01  # fraction of the reference trace scale
    decoherence_corrected_refs: bool = False

    def __post_init__(self):
        require_finite(self, "tomography")
        if not (self.tau_max_ns > 0 and 0 < self.dtau_ns <= self.tau_max_ns):
            raise ConfigurationError("tomography needs tau_max_ns > 0 and 0 < dtau_ns <= tau_max_ns")
        if not self.weight_ns > 0:
            raise ConfigurationError("tomography weight_ns must be positive")
        if not self.noise_std_rel >= 0:
            raise ConfigurationError("tomography noise_std_rel must be nonnegative")


@dataclass(frozen=True)
class BerryConfig:
    theta_rad: float = math.pi / 4
    phi_total_rad: float = math.pi
    omega_rms_mhz: float = 200.0
    ramp_span_ns: float = 90.0
    sigma_ns: float = 45.0
    metric_threshold: float = 10.0

    def __post_init__(self):
        require_finite(self, "berry")
        if not self.metric_threshold > 0:
            raise ConfigurationError("berry metric_threshold must be positive")
        if not all(v > 0 for v in (self.sigma_ns, self.ramp_span_ns, self.omega_rms_mhz)):
            raise ConfigurationError("berry sigma_ns, ramp_span_ns and omega_rms_mhz must be positive")


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

    def __post_init__(self):
        if not self.workers >= 1:
            raise ConfigurationError("workers must be >= 1")
        if not self.seed >= 0:  # numpy seeds are nonnegative
            raise ConfigurationError("seed must be >= 0")
        for name, values in self.sweep.items():
            if len(values) == 0:
                raise ConfigurationError(f"sweep axis {name!r} is empty")
            if not all(math.isfinite(v) for v in values):
                raise ConfigurationError(f"sweep axis {name!r} holds a non-finite value")
            if not all(a < b for a, b in zip(values, values[1:])):  # the analyses read ascending axes
                raise ConfigurationError(f"sweep axis {name!r} is not strictly increasing")

    def axis(self, name: str, default: Tuple[float, ...]) -> np.ndarray:
        return np.asarray(self.sweep.get(name, default), dtype=float)


def _number(value, key: str):
    # JSON parsers accept NaN, +-Infinity, overflowing literals such as 1e400
    # and integers too large for a float, on which math.isfinite overflows
    try:
        finite = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigurationError(f"{key} must be a finite number, got {value!r}")
    return value


def _resolve_axis(name: str, spec) -> Tuple[float, ...]:
    key = f"sweep.{name}"
    if isinstance(spec, (list, tuple)):
        values = tuple(float(_number(v, key)) for v in spec)
    elif isinstance(spec, dict):
        unknown = set(spec) - {"start", "stop", "step"}
        if unknown:
            raise ConfigurationError(f"axis {name!r}: unknown keys {sorted(unknown)}")
        try:
            start, stop, step = (float(_number(spec[k], f"{key}.{k}")) for k in ("start", "stop", "step"))
        except KeyError as missing:
            raise ConfigurationError(f"axis {name!r}: missing {missing}") from None
        if not (step > 0 and stop >= start):
            raise ConfigurationError(f"axis {name!r}: need step > 0 and stop >= start")
        ratio = (stop - start) / step  # inf when the range overflows
        if not ratio + 1e-9 < MAX_POINTS:
            raise ConfigurationError(f"axis {name!r}: step {step!r} gives {ratio + 1:.10g} values "
                                     f"from {start!r} to {stop!r}, more than {MAX_POINTS}")
        n = int(math.floor(ratio + 1e-9)) + 1
        values = tuple(start + k * step for k in range(n))
    else:
        raise ConfigurationError(f"axis {name!r} must be a list or a start/stop/step object")
    return values


def _parse(tp, value, key: str):
    """Check one JSON value against a field's type hint and convert it.

    Ints stay ints in float fields, so a config's hash keeps its bytes.
    """
    if is_dataclass(tp):
        return _build(tp, value, key)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:  # Optional[X]
        return None if value is None else _parse(args[0], value, key)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{key} must be a list of numbers, got {value!r}")
        if args[-1] is not Ellipsis and len(value) != len(args):
            raise ConfigurationError(f"{key} must hold {len(args)} numbers, got {len(value)}")
        return tuple(float(_number(v, key)) for v in value)
    if origin is dict:  # the sweep axes
        if not isinstance(value, dict):
            raise ConfigurationError(f"{key} must be an object of axes, got {value!r}")
        return {name: _resolve_axis(name, spec) for name, spec in value.items()}
    if isinstance(tp, type) and issubclass(tp, enum.Enum):
        try:
            return tp(value)
        except ValueError:
            names = sorted(e.value for e in tp)
            raise ConfigurationError(f"unknown {key} {value!r}; expected one of {names}") from None
    if tp is float:
        return _number(value, key)
    if not isinstance(value, tp) or (tp is int and isinstance(value, bool)):
        raise ConfigurationError(f"{key} must be {tp.__name__}, got {value!r}")
    return value


def _build(cls, data, key: str = ""):
    """Build dataclass cls from a JSON object, walking its fields' type hints."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{key or 'config root'} must be a JSON object, got {data!r}")
    hints = get_type_hints(cls)
    unknown = data.keys() - hints.keys()
    if unknown:
        raise ConfigurationError(f"{key or 'config'}: unknown keys {sorted(unknown)}")
    kwargs = {name: _parse(hints[name], value, f"{key}.{name}" if key else name)
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:  # a required field is missing
        raise ConfigurationError(f"{key}: {exc}") from None


def config_from_dict(data: dict) -> ExperimentConfig:
    return _build(ExperimentConfig, data)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from None
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int_max_str_digits
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from None
    return config_from_dict(data)


def canonical_dict(cfg: ExperimentConfig) -> dict:
    """Every field but workers and output: what the run computes from."""
    d = asdict(cfg)
    del d["workers"], d["output"]
    d["experiment"] = cfg.experiment.value
    return d


def config_hash(cfg: ExperimentConfig) -> str:
    # default=list: tuple fields built through the Python API may hold numpy arrays
    blob = json.dumps(canonical_dict(cfg), sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(blob.encode()).hexdigest()
