"""Seeded config fuzz: every config either runs or fails typed.

A fixed-seed stdlib random draws DRAWS configs over every experiment.  Each
starts from a coarse grid (dt 0.9 ns, stride 20) with small explicit sweep
axes and sets a few fields, drawn from every numeric field, to a value in its
valid range or to an edge value: 0, a negative, 1e-12, +-1e300, +- the
largest float or a subnormal (0, -1 or 10**300 for an int field).  Then
config_from_dict and plan raise only ConfigurationError or NumericalError, a
config plan accepts never raises ConfigurationError when run, a run returns
or raises NumericalError with no warning, and json emit succeeds.
"""

import copy
import math
import random
import sys
import warnings
from dataclasses import is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

from stirap.config import Experiment, ExperimentConfig, config_from_dict
from stirap.errors import ConfigurationError, NumericalError
from stirap.experiments import _EXPERIMENTS, emit, plan, run_experiment
from stirap.hamiltonian import SplitSpec

SEED = 0
DRAWS = 200

EXPERIMENTS = [e.value for e in Experiment]
# every numeric field, (section, name), with a valid range: a float field's
# (low, high), an int field's ints, or a tuple field's (low, high, length)
FIELDS = {
    (None, "seed"): (0, 2**32 - 1),
    (None, "workers"): (1, 2),
    ("transmon", "f01_mhz"): (5100.0, 5400.0),
    ("transmon", "f12_mhz"): (4700.0, 5000.0),
    ("transmon", "gamma10_mhz"): (0.0, 6.0),
    ("transmon", "gamma21_mhz"): (0.0, 6.0),
    ("transmon", "gamma_phi10_mhz"): (0.0, 1.0),
    ("transmon", "gamma_phi21_mhz"): (0.0, 1.0),
    ("split", "delta_split_mhz"): (0.0, 30.0),
    ("split", "branch_weights"): (0.3, 0.9, 2),
    ("pulses", "omega01_mhz"): (0.0, 60.0),
    ("pulses", "omega12_mhz"): (0.0, 60.0),
    ("pulses", "sigma_ns"): (25.0, 60.0),
    ("pulses", "t_separation_ns"): (-120.0, 120.0),
    ("pulses", "delta01_mhz"): (-10.0, 10.0),
    ("pulses", "delta12_mhz"): (-10.0, 10.0),
    ("pulses", "phi01_rad"): (-math.pi, math.pi),
    ("pulses", "phi12_rad"): (-math.pi, math.pi),
    ("pulses", "fast_duration_ns"): (5.0, 20.0),
    ("pulses", "reversal_spacing_ns"): (100.0, 300.0),
    ("grid", "dt_ns"): (0.4, 0.9),
    ("grid", "sample_stride"): (5, 50),
    ("cavity", "f_res_mhz"): (6500.0, 7500.0),
    ("cavity", "kappa_mhz"): (0.5, 5.0),
    ("cavity", "g_mhz"): (40.0, 150.0, 3),
    ("cavity", "epsilon_mhz"): (0.01, 1.0),
    ("cavity", "eta"): (0.1, 10.0),
    ("cavity", "f_meas_mhz"): (6990.0, 7010.0),
    ("tomography", "tau_max_ns"): (500.0, 2000.0),
    ("tomography", "dtau_ns"): (5.0, 20.0),
    ("tomography", "weight_ns"): (200.0, 1000.0),
    ("tomography", "noise_std_rel"): (0.0, 0.05),
    ("berry", "theta_rad"): (0.2, 1.4),
    ("berry", "phi_total_rad"): (0.0, 2.0 * math.pi),
    ("berry", "omega_rms_mhz"): (150.0, 300.0),
    ("berry", "ramp_span_ns"): (60.0, 120.0),
    ("berry", "sigma_ns"): (30.0, 60.0),
    ("berry", "metric_threshold"): (2.0, 20.0),
    ("sweep", "t_separation_ns"): (-120.0, 120.0, 3),
    ("sweep", "detuning_sum_mhz"): (-10.0, 10.0, 3),
    ("sweep", "detuning_diff_mhz"): (-10.0, 10.0, 3),
    ("sweep", "theta_fast_rad"): (0.0, math.pi, 3),
}
# what each experiment's config starts from, beyond a grid of dt 0.9 ns and
# stride 20: its sweep axes, and settings that keep its grid coarse
PLANE = {"detuning_sum_mhz": [-1.0, 1.0], "detuning_diff_mhz": [-1.0, 1.0]}
START = {"separation_sweep": {"sweep": {"t_separation_ns": [-90.0, -60.0]}},
         "detuning_map": {"sweep": PLANE},
         "hybrid": {"sweep": {"theta_fast_rad": [0.5, 1.0]}, "pulses": {"fast_duration_ns": 9.0}},
         "split_map": {"sweep": PLANE, "transmon": {"split": {"delta_split_mhz": 10.0}}},
         "berry": {"berry": {"sigma_ns": 20.0, "ramp_span_ns": 40.0, "omega_rms_mhz": 450.0}}}
# the sections beyond None, transmon, pulses and grid that an experiment reads
READS = {"split_map": ("split",), "tomography_timeline": ("cavity", "tomography"), "berry": ("berry",)}
EDGES = (0.0, 1e-12, 1e300, -1e300, sys.float_info.max, -sys.float_info.max, 5e-324, 1e-310)


def draw_number(rng, low, high):
    """A value in [low, high] half the time, else its negation or an edge value."""
    if isinstance(low, int):
        return rng.randint(low, high) if rng.random() < 0.5 else rng.choice([0, -1, 10**300])
    value = rng.uniform(low, high)
    return value if rng.random() < 0.5 else rng.choice([-value, *EDGES])


def draw_config(rng):
    """A config on a coarse grid with 1-4 fields that its experiment reads
    drawn, and a quarter of the time one field from anywhere."""
    experiment = rng.choice(EXPERIMENTS)
    data = copy.deepcopy({"experiment": experiment, "grid": {"dt_ns": 0.9, "sample_stride": 20},
                          **START.get(experiment, {})})
    fields = sorted(FIELDS, key=str)
    read = [(section, name) for section, name in fields
            if section in (None, "transmon", "pulses", "grid", *READS.get(experiment, ()))
            or section == "sweep" and name in data.get("sweep", {})]
    picks = rng.sample(read, rng.randint(1, 4)) + ([rng.choice(fields)] if rng.random() < 0.25 else [])
    for section, name in picks:
        low, high, *length = FIELDS[section, name]
        value = ([draw_number(rng, low, high) for _ in range(rng.randint(1, length[0]))] if length
                 else draw_number(rng, low, high))
        if section is None:
            data[name] = value
        elif section == "split":
            data.setdefault("transmon", {}).setdefault("split", {"delta_split_mhz": 10.0})[name] = value
        else:
            data.setdefault(section, {})[name] = value
    if rng.random() < 0.2:
        data["dissipative"] = False
    if rng.random() < 0.2:
        data.setdefault("tomography", {})["decoherence_corrected_refs"] = True
    return data


def outcome(data, out_dir):
    """Where data stops: "config", "plan", "run" (typed errors) or "ok", or
    the problem, a string naming what escaped or where."""
    try:
        cfg = config_from_dict(data)
    except ConfigurationError:
        return "config"
    try:
        plan(cfg)
    except (ConfigurationError, NumericalError):
        return "plan"
    try:
        result = run_experiment(cfg)
    except ConfigurationError as exc:
        return f"problem: planned, then ConfigurationError when run: {exc}"
    except NumericalError:
        return "run"
    emit(result, out_dir, "json")
    return "ok"


def test_every_config_runs_or_fails_typed(tmp_path):
    rng = random.Random(SEED)
    seen, problems = {}, []
    for i in range(DRAWS):
        data = draw_config(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                where = outcome(data, tmp_path / str(i))
            except Exception as exc:  # an untyped failure is what the fuzz looks for
                where = f"problem: {type(exc).__name__}: {exc}"
        seen[where] = seen.get(where, 0) + 1
        if where.startswith("problem"):
            problems.append((data, where))
    assert problems == []
    assert all(seen.get(k) for k in ("config", "plan", "run", "ok")), seen  # every stage is reached


def test_every_numeric_field_is_drawn():
    def numeric(cls, section):
        for name, tp in get_type_hints(cls).items():
            inner = get_args(tp)[0] if get_origin(tp) is Union else tp  # Optional[X]
            if is_dataclass(inner):
                yield from numeric(inner, "split" if inner is SplitSpec else name)
            elif inner in (int, float) or get_origin(inner) is tuple:
                yield section, name

    axes = {("sweep", axis) for _, reads, _, _ in _EXPERIMENTS.values() for axis in reads}
    assert set(numeric(ExperimentConfig, None)) | axes == set(FIELDS)
