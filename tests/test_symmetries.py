"""Exact symmetries of the model, checked through relations between runs
rather than against recorded numbers.

Time scaling: doubling every time (the pulses' sigma and separation and the
step dt) and halving every frequency and rate (the Rabi amplitudes, the
detunings and the four decay and dephasing rates) leaves the master equation
unchanged in the scaled time.  A factor of 2 is exact in binary floating
point, so every population, drift and ratio column comes back bitwise equal,
every _ns column exactly doubled and every _mhz column exactly halved.
"""

import dataclasses

import numpy as np
import pytest

from stirap.config import Experiment, ExperimentConfig, GridConfig, PulseConfig
from stirap.experiments import run_experiment
from stirap.hamiltonian import TransmonParams

GAMMAS = ("gamma10_mhz", "gamma21_mhz", "gamma_phi10_mhz", "gamma_phi21_mhz")
PLANE_AXIS = (-4.0, -2.0, 0.0, 2.0, 4.0)


def scaled(experiment, sweep, k):
    """The case at dt 0.5 ns and stride 10, with every time x k and every frequency and rate / k."""
    p, t = PulseConfig(delta01_mhz=1.5, delta12_mhz=-0.5), TransmonParams()
    return ExperimentConfig(
        experiment=experiment,
        transmon=dataclasses.replace(t, **{g: getattr(t, g) / k for g in GAMMAS}),
        pulses=dataclasses.replace(p, omega01_mhz=p.omega01_mhz / k, omega12_mhz=p.omega12_mhz / k,
                                   delta01_mhz=p.delta01_mhz / k, delta12_mhz=p.delta12_mhz / k,
                                   sigma_ns=p.sigma_ns * k, t_separation_ns=p.t_separation_ns * k),
        grid=GridConfig(dt_ns=0.5 * k, sample_stride=10),
        sweep={axis: tuple(v / k for v in values) for axis, values in sweep.items()})


def assert_scaled(name, base, twice):
    factor = 2.0 if name.endswith("_ns") else 0.5 if name.endswith("_mhz") else 1.0
    np.testing.assert_array_equal(twice, base * factor, err_msg=name)


@pytest.mark.parametrize("experiment, sweep", [
    (Experiment.TIME_EVOLUTION, {}),
    (Experiment.DETUNING_MAP, {"detuning_sum_mhz": PLANE_AXIS, "detuning_diff_mhz": PLANE_AXIS}),
], ids=["run", "plane"])
def test_doubling_the_times_and_halving_the_rates(experiment, sweep):
    base, twice = (run_experiment(scaled(experiment, sweep, k)) for k in (1.0, 2.0))
    assert not base.failures and not twice.failures
    assert list(twice.axes) == list(base.axes)
    for name in base.axes:
        assert_scaled(name, base.axes[name], twice.axes[name])
    assert [(t.name, t.columns) for t in twice.tables] == [(t.name, t.columns) for t in base.tables]
    columns = [c for t in base.tables for c in t.columns]
    assert any(c.endswith("_ns") or c.endswith("_mhz") for c in columns)  # the relation scales something
    for b, t in zip(base.tables, twice.tables):
        for name in b.columns:
            assert_scaled(f"{b.name}.{name}", b.column(name), t.column(name))
