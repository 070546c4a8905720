"""Exact symmetries of the model, checked through relations between runs
rather than against recorded numbers.

Time scaling: doubling every time (the pulses' sigma, separation and fast
duration and the step dt) and halving every frequency and rate (the Rabi
amplitudes, the detunings, the split and the four decay and dephasing rates)
leaves the master equation unchanged in the scaled time.  A factor of 2 is
exact in binary floating point, so every population, drift and ratio column
comes back bitwise equal, every _ns column exactly doubled and every _mhz
column exactly halved.

Drive phases: constant phases on the two drives are a gauge of the ladder
(|1> -> e^{i phi01}|1>, |2> -> e^{i (phi01 + phi12)}|2>), which the level
energies and the dissipator do not see, so no population moves.

A decoupled split branch: with branch weights (1, 0) the split |1b> takes no
drive and no decay, and |1a> is |1> offset by -delta_split / 2, which the
3-level plane shows as a difference detuning shifted by -delta_split.
"""

import dataclasses

import numpy as np
import pytest

from stirap.config import Experiment, ExperimentConfig, GridConfig, PulseConfig
from stirap.experiments import run_experiment
from stirap.hamiltonian import SplitSpec, TransmonParams

GAMMAS = ("gamma10_mhz", "gamma21_mhz", "gamma_phi10_mhz", "gamma_phi21_mhz")
PLANE_AXIS = (-4.0, -2.0, 0.0, 2.0, 4.0)
SMALL_PLANE = {"detuning_sum_mhz": (-3.0, 0.0, 3.0), "detuning_diff_mhz": (-3.0, 0.0, 3.0)}
SEPARATIONS = {"t_separation_ns": (-120.0, -90.0, -60.0, -30.0)}
THETAS = {"theta_fast_rad": (0.0, 1.0, np.pi)}
SPLIT = SplitSpec(15.0, (0.8, 0.6))


def factor(name, k=2.0):
    """What multiplying the times by k does to a column, axis or metadata value named name."""
    return k if name.endswith("_ns") else 1.0 / k if name.endswith("_mhz") else 1.0


def scaled(experiment, sweep, k, split=None):
    """The case at dt 0.5 ns and stride 10, with every time x k and every frequency and rate / k."""
    p, t = PulseConfig(delta01_mhz=1.5, delta12_mhz=-0.5), TransmonParams()
    if split is not None:
        t = dataclasses.replace(t, split=dataclasses.replace(split, delta_split_mhz=split.delta_split_mhz / k))
    return ExperimentConfig(
        experiment=experiment,
        transmon=dataclasses.replace(t, **{g: getattr(t, g) / k for g in GAMMAS}),
        pulses=dataclasses.replace(p, omega01_mhz=p.omega01_mhz / k, omega12_mhz=p.omega12_mhz / k,
                                   delta01_mhz=p.delta01_mhz / k, delta12_mhz=p.delta12_mhz / k,
                                   sigma_ns=p.sigma_ns * k, t_separation_ns=p.t_separation_ns * k,
                                   fast_duration_ns=p.fast_duration_ns * k),
        grid=GridConfig(dt_ns=0.5 * k, sample_stride=10),
        sweep={axis: tuple(v * factor(axis, k) for v in values) for axis, values in sweep.items()})


def assert_scaled(name, base, twice):
    np.testing.assert_array_equal(twice, base * factor(name), err_msg=name)


@pytest.mark.parametrize("experiment, sweep, split", [
    (Experiment.TIME_EVOLUTION, {}, None),
    (Experiment.DETUNING_MAP, {"detuning_sum_mhz": PLANE_AXIS, "detuning_diff_mhz": PLANE_AXIS}, None),
    (Experiment.REVERSAL, {}, None),
    (Experiment.HYBRID, THETAS, None),
    (Experiment.SEPARATION_SWEEP, SEPARATIONS, None),
    (Experiment.SPLIT_MAP, SMALL_PLANE, SPLIT),
], ids=["run", "plane", "reversal", "hybrid", "separation", "split_plane"])
def test_doubling_the_times_and_halving_the_rates(experiment, sweep, split):
    base, twice = (run_experiment(scaled(experiment, sweep, k, split)) for k in (1.0, 2.0))
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
    assert twice.metadata.keys() == base.metadata.keys()
    for name in base.metadata.keys() - {"config_hash"}:  # argmax_sustained_ts_ns doubles
        if factor(name) == 1.0:
            assert twice.metadata[name] == base.metadata[name], name
        else:
            assert float(twice.metadata[name]) == float(base.metadata[name]) * factor(name), name


@pytest.mark.parametrize("experiment, sweep", [
    (Experiment.TIME_EVOLUTION, {}),
    (Experiment.HYBRID, THETAS),
    (Experiment.SEPARATION_SWEEP, SEPARATIONS),
], ids=["run", "hybrid", "separation"])
def test_shifting_the_drive_phases_moves_no_population(experiment, sweep):
    cfg = scaled(experiment, sweep, 1.0)
    base = run_experiment(cfg)
    shifted = run_experiment(dataclasses.replace(
        cfg, pulses=dataclasses.replace(cfg.pulses, phi01_rad=0.7, phi12_rad=-2.3)))
    assert not base.failures and not shifted.failures
    for b, s in zip(base.tables, shifted.tables, strict=True):
        np.testing.assert_allclose(s.rows, b.rows, rtol=0, atol=1e-13, err_msg=b.name)


def test_a_decoupled_split_branch_is_the_three_level_plane():
    d = 3.0  # MHz: |1a> sits d below |1>
    sweep = dict(SMALL_PLANE, detuning_diff_mhz=(-3.0, 0.0, 3.0, 6.0))
    split = run_experiment(scaled(Experiment.SPLIT_MAP, sweep, 1.0, SplitSpec(2 * d, (1.0, 0.0))))
    shifted = dict(sweep, detuning_diff_mhz=tuple(v - 2 * d for v in sweep["detuning_diff_mhz"]))
    plane = run_experiment(scaled(Experiment.DETUNING_MAP, shifted, 1.0))
    assert not split.failures and not plane.failures
    a, b = split.table("split_map"), plane.table("detuning_map")
    assert a.columns == b.columns
    np.testing.assert_array_equal(a.column("detuning_diff_mhz"), b.column("detuning_diff_mhz") + 2 * d)
    for name in a.columns[2:]:
        np.testing.assert_allclose(a.column(name), b.column(name), rtol=0, atol=1e-14, err_msg=name)
