import dataclasses
import json
import math
import re

import numpy as np
import pytest

from stirap import experiments
from stirap._batch import evolve, run_batch
from stirap.config import (
    Experiment,
    ExperimentConfig,
    GridConfig,
    PulseConfig,
    TomographyConfig,
    config_from_dict,
    config_hash,
)
from stirap.errors import ConfigurationError, NumericalError
from stirap.experiments import (
    SweepResult,
    Table,
    blob_count,
    count_alternations,
    emit,
    fwhm,
    overlap_window,
    plan,
    run_experiment,
    sustained_max,
)
from stirap.hamiltonian import CavityParams, SplitSpec, TransmonParams
from stirap.lindblad import TimeGrid, check_step
from stirap.pulses import PhaseRamp, SequenceKind, build_sequence, two_pulse_sequence
from stirap.units import mhz_to_rad_ns

from oracles import dop853_populations

FAST_GRID = GridConfig(dt_ns=0.5, sample_stride=20)


def cfg_with(**kwargs) -> ExperimentConfig:
    base = ExperimentConfig(grid=FAST_GRID)
    return dataclasses.replace(base, **kwargs)


class TestHelpers:
    def test_overlap_window_product_fwhm(self, stirap_sequence):
        lo, hi = overlap_window(stirap_sequence)
        half = 45.0 * math.sqrt(math.log(2.0))
        assert abs(lo + half) < 1e-12 and abs(hi - half) < 1e-12

    def test_count_alternations(self):
        assert count_alternations(np.array([0.0, 1.0, 0.0, 1.0, 0.0])) == 3
        assert count_alternations(np.array([0.0, 1.0, 2.0, 3.0])) == 0
        assert count_alternations(np.array([0.0, 1e-6, 0.0, 1e-6])) == 0  # below threshold

    def test_sustained_max(self):
        t = np.arange(0.0, 100.0, 1.0)
        series = np.where((t >= 20) & (t < 60), 1.0, 0.0)
        assert abs(sustained_max(series, t, 20.0) - 1.0) < 1e-12
        assert sustained_max(series, t, 80.0) == pytest.approx(0.5, abs=0.01)

    def test_fwhm_interpolated(self):
        x = np.linspace(-10, 10, 201)
        y = np.exp(-(x**2) / (2 * 2.0**2))
        width, censored = fwhm(x, y)
        assert not censored
        assert abs(width - 2.0 * 2.0 * math.sqrt(2 * math.log(2))) < 1e-3

    def test_fwhm_censored(self):
        x = np.linspace(-1, 1, 21)
        y = np.exp(-(x**2) / 8.0)  # never falls to half max in range
        width, censored = fwhm(x, y)
        assert censored
        assert abs(width - 2.0) < 1e-12

    def test_blob_count_four_connectivity(self):
        m = np.zeros((5, 5))
        m[0, 0] = m[4, 4] = 1.0
        assert blob_count(m, 0.5) == 2
        m[1, 1] = 1.0  # diagonal neighbor does not connect under 4-connectivity
        assert blob_count(m, 0.5) == 3

    def test_blob_count_matches_scipy_label(self):
        from scipy import ndimage

        rng = np.random.default_rng(2024)
        maps = [(rng.random(tuple(rng.integers(1, 50, size=2))), rng.random()) for _ in range(200)]
        maps += [(rng.random((1, 40)), 0.5), (rng.random((40, 1)), 0.5), (rng.random((1, 1)), 0.5)]
        maps += [(np.zeros((7, 9)), 0.5), (np.ones((7, 9)), 0.5)]
        i, j = np.indices((12, 15))
        maps.append((((i + j) % 2).astype(float), 0.5))  # checkerboard: every cell its own blob
        snake = np.zeros((15, 15))
        snake[::2] = 1.0
        snake[1::4, -1] = snake[3::4, 0] = 1.0  # one path of 127 cells, turning at alternate ends
        maps.append((snake, 0.5))
        for m, t in maps:
            assert blob_count(m, t) == ndimage.label(m > t)[1]
        assert blob_count(maps[-2][0], 0.5) == 90 and blob_count(snake, 0.5) == 1
        snake[0, 0] = math.nan  # a failed cell
        assert math.isnan(blob_count(snake, 0.5))


class TestTimeEvolution:
    def test_paper_defaults_summary(self):
        cfg = cfg_with(grid=GridConfig(dt_ns=0.1, sample_stride=10))
        result = run_experiment(cfg)
        summary = result.table("time_evolution_summary")
        assert 0.78 <= summary.column("peak_p2")[0] <= 0.88
        assert summary.column("p1_max_overlap")[0] <= 0.1
        assert summary.column("unitary_final_p2")[0] >= 0.99

    def test_csv_schema_pinned(self, tmp_path):
        cfg = cfg_with()
        result = run_experiment(cfg)
        emit(result, tmp_path, "csv")
        header = (tmp_path / "time_evolution.csv").read_text().splitlines()[0]
        assert header == "t_ns,p0,p1,p2,trace_drift"

    def test_zero_drive_flat(self):
        cfg = cfg_with(pulses=PulseConfig(omega01_mhz=0.0, omega12_mhz=0.0))
        result = run_experiment(cfg)
        table = result.table("time_evolution")
        assert np.max(np.abs(table.column("p0") - 1.0)) < 1e-12

    def test_population_rows_sum_to_one(self):
        result = run_experiment(cfg_with())
        for name in ("time_evolution", "time_evolution_unitary"):
            t = result.table(name)
            sums = t.column("p0") + t.column("p1") + t.column("p2")
            assert np.max(np.abs(sums - 1.0)) < 1e-6


@pytest.fixture(scope="module")
def coarse_sweep():
    cfg = cfg_with(experiment=Experiment.SEPARATION_SWEEP,
                   sweep={"t_separation_ns": tuple(np.arange(-150.0, 151.0, 25.0))})
    return run_experiment(cfg)


class TestSeparationSweep:
    def test_summary_columns(self, coarse_sweep):
        summary = coarse_sweep.table("separation_sweep")
        assert summary.columns == ("t_separation_ns", "peak_p2", "final_p2", "sustained_p2")
        assert summary.rows.shape[0] == 13

    def test_stirap_side_beats_far_separations(self, coarse_sweep):
        summary = coarse_sweep.table("separation_sweep")
        ts = summary.column("t_separation_ns")
        sustained = summary.column("sustained_p2")
        assert sustained[ts == -100.0] > sustained[ts == -150.0]
        assert sustained[ts == -100.0] > sustained[ts == 150.0]

    def test_timeseries_time_origin_is_01_peak(self, coarse_sweep):
        series = coarse_sweep.table("separation_sweep_timeseries")
        rows = series.rows[series.column("t_separation_ns") == -100.0]
        # absolute window is +-(75 + 180); the 01 peak sits at +50, so the
        # shifted axis runs from -305 to +205
        assert abs(rows[0, 1] + 305.0) < 1e-9
        assert abs(rows[-1, 1] - 205.0) < 1e-9

    def test_cells_match_dop853_oracle(self):
        # independent oracle for the cells acceptance criterion 2b reads: the
        # same Lindblad equation under scipy's DOP853 (oracles.dop853_populations).
        # -200 ns fixes the common window at the acceptance sweep's +-280 ns.
        axis = (-200.0, -120.0, -110.0, -90.0, -70.0)
        cfg = ExperimentConfig(experiment=Experiment.SEPARATION_SWEEP,
                               grid=GridConfig(dt_ns=0.1, sample_stride=10),
                               sweep={"t_separation_ns": axis})
        result = run_experiment(cfg)
        series = result.table("separation_sweep_timeseries")
        summary = result.table("separation_sweep")
        p = cfg.pulses
        for ts in axis[1:]:
            rows = series.rows[series.column("t_separation_ns") == ts]
            times = rows[:, 1] - ts / 2.0  # undo the shift to the 01 peak
            seq = two_pulse_sequence(mhz_to_rad_ns(p.omega01_mhz),
                                     mhz_to_rad_ns(p.omega12_mhz), p.sigma_ns, ts)
            p2 = dop853_populations(seq, cfg.transmon, times)[:, 2]
            assert np.max(np.abs(p2 - rows[:, 4])) <= 1e-8
            sustained = summary.column("sustained_p2")[summary.column("t_separation_ns") == ts][0]
            assert abs(sustained_max(p2, times, p.sigma_ns) - sustained) <= 1e-8


@pytest.fixture(scope="module")
def tiny_map():
    axis = tuple(np.arange(-6.0, 7.0, 3.0))
    cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                   sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
    return run_experiment(cfg)


class TestDetuningMap:
    def test_origin_cell_matches_time_evolution(self, tiny_map):
        table = tiny_map.table("detuning_map")
        mask = (table.column("detuning_sum_mhz") == 0.0) & (
            table.column("detuning_diff_mhz") == 0.0)
        cell_final = table.column("final_p2")[mask][0]
        res = run_experiment(cfg_with())
        final = res.table("time_evolution").column("p2")[-1]
        assert abs(cell_final - final) < 1e-9

    def test_sum_axis_dominates_sensitivity(self, tiny_map):
        table = tiny_map.table("detuning_map")
        m = table.column("peak_p2").reshape(5, 5)
        # losing p2 along sum (rows) must outpace losing it along diff (cols)
        assert m[0, 2] < m[2, 0]

    def test_robust_along_difference(self, tiny_map):
        # transfer within 20% of its peak for |diff| <= 6 MHz on the sum=0 line
        table = tiny_map.table("detuning_map")
        m = table.column("peak_p2").reshape(5, 5)
        assert np.all(m[2, :] >= 0.8 * m[2, 2])

    def test_failed_cell_is_recorded_with_its_detunings(self):
        # a 1e5 MHz two-photon detuning is far beyond RK4 stability at dt 0.5 ns
        cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                       sweep={"detuning_sum_mhz": (0.0, 1e5), "detuning_diff_mhz": (0.0,)})
        result = run_experiment(cfg)
        assert [(f["cell"], f["detuning_sum_mhz"], f["detuning_diff_mhz"])
                for f in result.failures] == [(1, 1e5, 0.0)]
        assert " at step " in result.failures[0]["error"]
        # the sum slice holds the failed cell, so it has no width and no ratio
        diagnostics = result.table("detuning_map_diagnostics")
        assert np.isnan(diagnostics.column("fwhm_sum_mhz")).all()
        assert np.isnan(diagnostics.column("fwhm_ratio")).all()


@pytest.fixture(scope="module")
def hybrid_result():
    cfg = cfg_with(
        experiment=Experiment.HYBRID,
        grid=GridConfig(dt_ns=0.1, sample_stride=20),
        sweep={"theta_fast_rad": (0.0, math.pi / 2, math.pi)},
        dissipative=False,
    )
    return run_experiment(cfg)


class TestHybrid:
    def test_theta_zero_matches_plain_stirap(self, hybrid_result):
        summary = hybrid_result.table("hybrid")
        final_p2_theta0 = summary.column("final_p2")[0]
        # plain STIRAP integrated over the same (extended) window
        seq = build_sequence(SequenceKind.STIRAP, omega01=mhz_to_rad_ns(43.4),
                             omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
        grid = TimeGrid(-235.0, 225.0, dt=0.1, sample_stride=20)
        res = evolve(seq, TransmonParams(), grid, dissipative=False, rho0=np.eye(3)[0])
        assert abs(final_p2_theta0 - res.populations[0][-1, 2]) < 1e-9

    def test_final_p2_tracks_initial_dark_fraction(self, hybrid_result):
        # adiabatic-limit oracle: the |0> component cos(theta/2) rides the
        # dark state; interference with the leaked bright component bounds
        # the deviation by 2 cos(theta/2) sqrt(1 - eta)
        summary = hybrid_result.table("hybrid")
        eta = summary.column("final_p2")[0]
        for theta, final in zip(summary.column("theta_fast_rad"),
                                summary.column("final_p2")):
            ideal = math.cos(theta / 2.0) ** 2 * eta
            bound = 2.0 * math.cos(theta / 2.0) * math.sqrt(1.0 - eta) + 0.01
            assert abs(final - ideal) <= bound

    def test_theta_pi_empties_dark_state(self, hybrid_result):
        summary = hybrid_result.table("hybrid")
        assert summary.column("final_p2")[-1] < 0.02

    def test_monotone_decrease_dissipationless(self):
        cfg = cfg_with(
            experiment=Experiment.HYBRID,
            grid=GridConfig(dt_ns=0.1, sample_stride=50),
            sweep={"theta_fast_rad": tuple(np.arange(0.0, math.pi + 1e-9, math.pi / 10))},
            dissipative=False,
        )
        summary = run_experiment(cfg).table("hybrid")
        finals = summary.column("final_p2")
        assert np.all(np.diff(finals) < 1e-3)  # monotone up to small wiggle

    def test_late_oscillations_present_dissipative(self):
        cfg = cfg_with(
            experiment=Experiment.HYBRID,
            grid=GridConfig(dt_ns=0.1, sample_stride=20),
            sweep={"theta_fast_rad": (math.pi / 2,)},
        )
        summary = run_experiment(cfg).table("hybrid")
        assert summary.column("late_p0_alternations")[0] >= 2


    def test_failed_cell_is_recorded_and_the_rest_run(self):
        # a 1000 rad fast pulse in 10 ns is far beyond RK4 stability at dt 0.5 ns
        cfg = cfg_with(experiment=Experiment.HYBRID, sweep={"theta_fast_rad": (0.0, 1000.0)})
        result = run_experiment(cfg)
        assert [(f["cell"], f["theta_fast_rad"]) for f in result.failures] == [(1, 1000.0)]
        assert " at step " in result.failures[0]["error"]
        assert result.table("hybrid").column("final_p2")[0] > 0.2


class TestReversal:
    def test_dissipationless_round_trip(self):
        cfg = cfg_with(experiment=Experiment.REVERSAL, grid=GridConfig(dt_ns=0.1, sample_stride=20),
                       dissipative=False)
        summary = run_experiment(cfg).table("reversal")
        assert summary.column("final_p0")[0] >= 0.98
        assert summary.column("max_p2")[0] >= 0.9

    def test_paper_rates_qualitative_structure(self):
        cfg = cfg_with(experiment=Experiment.REVERSAL, grid=GridConfig(dt_ns=0.1, sample_stride=20))
        summary = run_experiment(cfg).table("reversal")
        assert summary.column("max_p2")[0] > 0.5  # mid-sequence p2 peak
        assert summary.column("final_p0")[0] > summary.column("final_p1")[0]
        assert summary.column("final_p0")[0] > summary.column("final_p2")[0]

    def test_without_return_pulse_population_stays_transferred(self):
        # dropping the trailing 12 pulse leaves a single STIRAP: no return
        cfg = cfg_with(experiment=Experiment.REVERSAL, grid=GridConfig(dt_ns=0.1, sample_stride=20),
                       dissipative=False)
        summary = run_experiment(cfg).table("reversal")
        seq = build_sequence(SequenceKind.STIRAP, omega01=mhz_to_rad_ns(43.4),
                             omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
        grid = TimeGrid(-315.0, 315.0, dt=0.1, sample_stride=20)
        res = evolve(seq, TransmonParams(), grid, dissipative=False, rho0=np.eye(3)[0])
        assert res.populations[0][-1, 0] < 0.01  # no return without the third pulse
        assert summary.column("final_p0")[0] >= 0.98


class TestSplitMap:
    def test_degenerate_limit_matches_three_level(self):
        axis = tuple(np.arange(-6.0, 7.0, 3.0))
        split_cfg = cfg_with(
            experiment=Experiment.SPLIT_MAP,
            transmon=TransmonParams(split=SplitSpec(0.0, (1.0, 0.0))),
            sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis},
        )
        split = run_experiment(split_cfg)
        plain_cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                             sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        plain = run_experiment(plain_cfg)
        for col in ("final_p0", "final_p1", "final_p2", "peak_p2"):
            a = split.table("split_map").column(col)
            b = plain.table("detuning_map").column(col)
            assert np.max(np.abs(a - b)) < 1e-6

    def test_missing_split_config(self):
        with pytest.raises(ConfigurationError, match=r"split_map needs transmon\.split"):
            run_experiment(cfg_with(experiment=Experiment.SPLIT_MAP))

    def test_failed_cells_leave_no_blob_count(self):
        # the three 1e5 MHz cells fail at dt 0.5 ns; a count over a map
        # holding them is NaN, as max_peak_p2 is, not a count of the rest
        cfg = cfg_with(experiment=Experiment.SPLIT_MAP,
                       transmon=TransmonParams(split=SplitSpec(15.0)),
                       sweep={"detuning_sum_mhz": (-2.0, 0.0, 1e5), "detuning_diff_mhz": (0.0, 1.0, 2.0)})
        result = run_experiment(cfg)
        assert [f["cell"] for f in result.failures] == [6, 7, 8]
        diagnostics = result.table("split_map_diagnostics")
        for col in ("blob_count_peak", "blob_count_final", "max_peak_p2"):
            assert np.isnan(diagnostics.column(col)).all(), col


class TestPointMirror:
    """A point-symmetric plane integrates its first half and mirrors the rest."""

    @staticmethod
    def run_both_ways(monkeypatch, cfg):
        """The result with the mirror, the result without it, and the cells each batch ran."""
        ran = []

        def counting(seqs, *args, **kwargs):
            ran.append(len(seqs))
            return run_batch(seqs, *args, **kwargs)

        monkeypatch.setattr(experiments, "run_batch", counting)
        mirrored = run_experiment(cfg)
        monkeypatch.setattr(experiments, "_point_symmetric", lambda plan, params: False)
        return mirrored, run_experiment(cfg), ran

    @staticmethod
    def sweep_both_ways(monkeypatch, cfg):
        """_sweep's batch with the mirror and without it."""
        p, batches = plan(cfg), []
        for mirror in (True, False):
            monkeypatch.setattr(experiments, "_point_symmetric", lambda plan, params: mirror)
            batches.append(experiments._sweep(cfg, p)[0])
        return batches

    @pytest.mark.parametrize("dissipative", [True, False])
    @pytest.mark.parametrize("diffs", [(-2.0, 2.0), (-4.0, 0.0, 4.0)], ids=["even", "odd"])
    def test_three_level_plane_is_bit_equal(self, monkeypatch, dissipative, diffs):
        cfg = cfg_with(experiment=Experiment.DETUNING_MAP, dissipative=dissipative,
                       sweep={"detuning_sum_mhz": (-3.0, 0.0, 3.0), "detuning_diff_mhz": diffs})
        assert experiments._point_symmetric(plan(cfg), cfg.transmon)
        mirrored, full, ran = self.run_both_ways(monkeypatch, cfg)
        n_cells = 3 * len(diffs)
        assert ran == [(n_cells + 1) // 2, n_cells]
        for a, b in zip(mirrored.tables, full.tables):
            assert np.array_equal(a.rows, b.rows), a.name
        half, whole = self.sweep_both_ways(monkeypatch, cfg)
        for f in dataclasses.fields(whole):
            assert np.array_equal(getattr(half, f.name), getattr(whole, f.name)), f.name

    def test_equal_weight_split_plane_agrees(self, monkeypatch):
        # the mirror swaps |1a> at -delta/2 and |1b> at +delta/2
        axis = (-6.0, -3.0, 0.0, 3.0, 6.0)
        cfg = cfg_with(experiment=Experiment.SPLIT_MAP, transmon=TransmonParams(split=SplitSpec(15.0)),
                       sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        mirrored, full, ran = self.run_both_ways(monkeypatch, cfg)
        assert ran == [13, 25]
        a, b = mirrored.table("split_map").rows, full.table("split_map").rows
        assert np.max(np.abs(a - b)) <= 1e-14
        half, whole = self.sweep_both_ways(monkeypatch, cfg)
        for name in ("final", "peak", "trace_drift"):
            assert np.max(np.abs(getattr(half, name) - getattr(whole, name))) <= 1e-14, name
        assert half.failures == whole.failures
        # the branches' populations differ, so the columns must be swapped
        for pops in (whole.final, whole.peak):
            assert np.max(np.abs(pops[:, 1] - pops[:, 2])) > 1e-3

    @pytest.mark.parametrize("change", ["weights", "axis", "phase_ramp"])
    def test_predicate_needs_every_condition(self, change):
        axis = (-3.0, 0.0, 3.0)
        cfg = cfg_with(experiment=Experiment.SPLIT_MAP, transmon=TransmonParams(split=SplitSpec(15.0)),
                       sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        p = plan(cfg)
        assert experiments._point_symmetric(p, cfg.transmon)
        if change == "weights":
            cfg = dataclasses.replace(cfg, transmon=TransmonParams(split=SplitSpec(15.0, (0.8, 0.6))))
        elif change == "axis":
            p = plan(dataclasses.replace(cfg, sweep={"detuning_sum_mhz": axis,
                                                     "detuning_diff_mhz": (-3.0, 0.0, 3.5)}))
        else:
            ramp = PhaseRamp(-50.0, 50.0, 1.0)
            (s,) = p.cells.drive
            p = dataclasses.replace(p, cells=dataclasses.replace(p.cells, drive=(dataclasses.replace(s, pulses=(
                dataclasses.replace(s.pulses[0], phase_ramp=ramp), *s.pulses[1:])),)))
        assert not experiments._point_symmetric(p, cfg.transmon)

    def test_a_sweep_of_more_than_one_drive_is_not_point_symmetric(self):
        # t_s -> -t_s is no symmetry of the populations, though the axis is symmetric about 0
        cfg = cfg_with(experiment=Experiment.SEPARATION_SWEEP, sweep={"t_separation_ns": (-40.0, 0.0, 40.0)})
        assert not experiments._point_symmetric(plan(cfg), cfg.transmon)

    def test_failed_cell_and_its_mirror_are_each_recorded(self, monkeypatch):
        # the 1e5 MHz cells are unstable for RK4 at dt 0.5 ns; only the first runs
        cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                       sweep={"detuning_sum_mhz": (-1e5, 0.0, 1e5), "detuning_diff_mhz": (0.0,)})
        mirrored, full, ran = self.run_both_ways(monkeypatch, cfg)
        assert ran == [2, 3]
        assert [(f["cell"], f["detuning_sum_mhz"], f["detuning_diff_mhz"])
                for f in mirrored.failures] == [(0, -1e5, 0.0), (2, 1e5, 0.0)]
        assert mirrored.failures == full.failures


class TestPlaneReduction:
    @pytest.mark.parametrize("experiment, transmon, diffs, mirrored", [
        (Experiment.DETUNING_MAP, TransmonParams(), (-4.0, 0.0, 4.0), True),
        (Experiment.DETUNING_MAP, TransmonParams(), (-4.0, 1.0, 3.0), False),
        (Experiment.SPLIT_MAP, TransmonParams(split=SplitSpec(15.0)), (-4.0, 0.0, 4.0), True),
    ], ids=["mirrored", "unmirrored", "split_mirrored"])
    def test_final_and_peak_are_those_of_the_series(self, experiment, transmon, diffs, mirrored):
        # a plane's batch keeps no series, only each cell's populations at the
        # last sample and their maxima over the samples, bit for bit those of
        # the series batch of the same cells
        cfg = cfg_with(experiment=experiment, transmon=transmon,
                       sweep={"detuning_sum_mhz": (-3.0, 0.0, 3.0), "detuning_diff_mhz": diffs})
        p = plan(cfg)
        assert experiments._point_symmetric(p, cfg.transmon) is mirrored
        batch = experiments._sweep(cfg, p, series=False)[0]
        series = experiments._sweep(cfg, p)[0]
        assert batch.populations is None
        assert batch.final.tobytes() == series.populations[:, -1].tobytes()
        assert batch.peak.tobytes() == series.populations.max(axis=1).tobytes()

    def test_memory_does_not_grow_with_the_samples(self):
        # a plane judges its sampled states a bounded buffer at a time and
        # keeps two numbers per cell and level, so ten times its samples
        # leave its traced peak within 20 %
        import tracemalloc

        axis = tuple(np.arange(-12.0, 13.0))  # 625 cells, 313 of them integrated
        peaks = []
        for stride in (10, 1):
            cfg = cfg_with(experiment=Experiment.DETUNING_MAP, grid=GridConfig(dt_ns=0.5, sample_stride=stride),
                           sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
            tracemalloc.start()
            try:
                run_experiment(cfg)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks


class TestBerry:
    def test_path_ends_at_the_last_step(self):
        # sample_stride 7 does not divide the 7200 steps of the default berry grid
        cfg = cfg_with(experiment=Experiment.BERRY, grid=GridConfig(dt_ns=0.05, sample_stride=7))
        path = run_experiment(cfg).table("berry_path")
        grid = TimeGrid(-180.0, 180.0, dt=0.05, sample_stride=7)
        assert grid.n_steps % 7 != 0
        # steps 0, 7, ..., 7196, and then the last one
        assert np.array_equal(path.column("t_ns"), np.append(grid.times[::7], grid.times[-1]))

    def test_run_integrates_no_pulse_area(self, monkeypatch):
        # the oracle's precondition, checked by plan and again by the oracle,
        # reads only the global metric, so no envelope integral is computed
        from stirap import pulses

        calls = []
        integral = pulses.rms_envelope_integral
        monkeypatch.setattr(pulses, "rms_envelope_integral",
                            lambda *args, **kwargs: calls.append(args) or integral(*args, **kwargs))
        run_experiment(cfg_with(experiment=Experiment.BERRY))
        assert len(calls) == 0


class TestEmission:
    @pytest.fixture()
    def small_cfg(self):
        return cfg_with(experiment=Experiment.SEPARATION_SWEEP,
                        sweep={"t_separation_ns": (-120.0, -90.0, -60.0)})

    def test_rerun_byte_identical_csv(self, tmp_path, small_cfg):
        r1 = run_experiment(small_cfg)
        r2 = run_experiment(small_cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        files1 = emit(r1, a, "csv")
        files2 = emit(r2, b, "csv")
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_rerun_byte_identical_json(self, tmp_path, small_cfg):
        r1 = run_experiment(small_cfg)
        r2 = run_experiment(small_cfg)
        f1 = emit(r1, tmp_path / "a", "json")[0]
        f2 = emit(r2, tmp_path / "b", "json")[0]
        assert f1.read_bytes() == f2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path, small_cfg):
        serial = run_experiment(small_cfg)
        parallel = run_experiment(dataclasses.replace(small_cfg, workers=2))
        fa = emit(serial, tmp_path / "s", "csv")
        fb = emit(parallel, tmp_path / "p", "csv")
        for f1, f2 in zip(fa, fb):
            assert f1.read_bytes() == f2.read_bytes()

    def test_axis_order_in_config_is_irrelevant(self, tmp_path):
        axis = {"start": -4.0, "stop": 4.0, "step": 4.0}
        d1 = {"experiment": "detuning_map", "grid": {"dt_ns": 0.5, "sample_stride": 20},
              "sweep": {"detuning_sum_mhz": axis, "detuning_diff_mhz": axis}}
        d2 = {"sweep": {"detuning_diff_mhz": axis, "detuning_sum_mhz": axis},
              "grid": {"dt_ns": 0.5, "sample_stride": 20}, "experiment": "detuning_map"}
        r1 = run_experiment(config_from_dict(d1))
        r2 = run_experiment(config_from_dict(d2))
        f1 = emit(r1, tmp_path / "a", "csv")
        f2 = emit(r2, tmp_path / "b", "csv")
        for a, b in zip(f1, f2):
            assert a.read_bytes() == b.read_bytes()
        assert config_hash(config_from_dict(d1)) == config_hash(config_from_dict(d2))

    def test_empty_axis_rejected_before_compute(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"sweep": {"t_separation_ns": []}})

    def test_manifest_contents(self, tmp_path, small_cfg):
        result = run_experiment(small_cfg)
        emit(result, tmp_path, "csv")
        manifest = json.loads((tmp_path / "separation_sweep_manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(small_cfg)
        assert manifest["version"]
        assert "separation_sweep" in manifest["tables"]

    def test_unknown_format(self, tmp_path, small_cfg):
        with pytest.raises(ConfigurationError):
            emit(run_experiment(small_cfg), tmp_path, "xml")

    def test_values_are_written_as_their_repr(self, tmp_path):
        # the bytes of repr(float(v)) per value, including signed zero, NaN,
        # infinities, the smallest subnormal and a sum that does not round to 0.3;
        # JSON has no NaN or infinity, so there they are null
        rows = np.array([[-0.0, math.nan, math.inf], [-math.inf, 5e-324, 0.1 + 0.2],
                         [1.0, -2.5e-17, 123456789.125]])
        result = SweepResult(kind="edge", axes={"a": np.array([0.1 + 0.2, -0.0])},
                             tables=[Table("edge", ("x", "y", "z"), rows)],
                             metadata={"config_hash": "h"})
        csv_path = emit(result, tmp_path / "c", "csv")[0]
        lines = ["x,y,z"] + [",".join(repr(float(v)) for v in row) for row in rows]
        assert csv_path.read_bytes() == ("\n".join(lines) + "\n").encode()
        json_path = emit(result, tmp_path / "j", "json")[0]
        payload = {"metadata": {"config_hash": "h"}, "axes": {"a": [0.30000000000000004, -0.0]},
                   "data": {"edge": {"columns": ["x", "y", "z"],
                                     "rows": [[float(v) if math.isfinite(v) else None
                                               for v in row] for row in rows]}},
                   "failures": []}
        assert json_path.read_bytes() == (json.dumps(
            payload, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode()

    def test_csv_memory_is_bounded_by_a_row(self, tmp_path):
        # rows are written one at a time: the text of a 200 000-row table
        # (about 18 MB) is never held, nor a list of all its values
        import tracemalloc

        rows = np.random.default_rng(5).normal(size=(200_000, 5))
        result = SweepResult(kind="big", axes={}, tables=[Table("big", tuple("abcde"), rows)])
        tracemalloc.start()
        try:
            emit(result, tmp_path, "csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert (tmp_path / "big.csv").stat().st_size > 15e6

    @pytest.mark.parametrize("experiment, overrides, axes", [
        # both 600 MHz pulses peaking at once (t_s = 0) leave RK4's stable step
        (Experiment.SEPARATION_SWEEP, {"pulses": PulseConfig(omega01_mhz=600.0, omega12_mhz=600.0)},
         {"t_separation_ns": (-90.0, 0.0)}),
        (Experiment.DETUNING_MAP, {}, {"detuning_sum_mhz": (0.0, 1e5), "detuning_diff_mhz": (0.0,)}),
        (Experiment.HYBRID, {}, {"theta_fast_rad": (0.0, 1000.0)}),
        (Experiment.SPLIT_MAP, {"transmon": TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))},
         {"detuning_sum_mhz": (0.0, 1e5), "detuning_diff_mhz": (0.0,)}),
    ], ids=["separation_sweep", "detuning_map", "hybrid", "split_map"])
    def test_failure_record_names_the_cell_and_its_axis_values(self, tmp_path, experiment,
                                                                overrides, axes):
        # the second cell of each sweep is unstable for RK4 at dt 0.5 ns
        cfg = cfg_with(experiment=experiment, sweep=axes, **overrides)
        result = run_experiment(cfg)
        assert len(result.failures) == 1
        record = result.failures[0]
        assert set(record) == {"cell", "error", *axes}
        assert record["cell"] == 1
        assert {k: record[k] for k in axes} == {k: v[-1] for k, v in axes.items()}
        assert " at step " in record["error"]
        emit(result, tmp_path, "csv")
        manifest = json.loads((tmp_path / f"{experiment.value}_manifest.json").read_text())
        assert manifest["failures"] == result.failures
        assert manifest["config_hash"] == config_hash(cfg)

        def reject(token):
            raise ValueError(f"{token} is not RFC 8259 JSON")

        # the failed cell's non-finite values are written as null
        emit(result, tmp_path / "json", "json")
        for name in (f"{experiment.value}.json", f"{experiment.value}_manifest.json"):
            parsed = json.loads((tmp_path / "json" / name).read_text(), parse_constant=reject)
            assert parsed["failures"] == result.failures


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"pulse": {}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"pulses": {"omega01_megahertz": 1.0}})
        # an axis no experiment reads is rejected by plan, which every run calls first
        with pytest.raises(ConfigurationError, match="sweep axis 'bogus_axis' is not read by time_evolution"):
            plan(config_from_dict({"sweep": {"bogus_axis": [1, 2]}}))

    def test_axis_range_resolution(self):
        cfg = config_from_dict({"sweep": {"t_separation_ns":
                                          {"start": -10.0, "stop": 10.0, "step": 5.0}}})
        assert tuple(cfg.sweep["t_separation_ns"]) == (-10.0, -5.0, 0.0, 5.0, 10.0)

    def test_unit_suffix_keys_accept_values(self):
        cfg = config_from_dict({
            "transmon": {"f01_mhz": 5000.0, "f12_mhz": 4600.0, "gamma10_mhz": 1.0,
                         "gamma21_mhz": 2.0, "gamma_phi10_mhz": 0.1, "gamma_phi21_mhz": 0.1},
            "pulses": {"sigma_ns": 30.0, "omega01_mhz": 40.0},
        })
        assert cfg.transmon.f01_mhz == 5000.0
        assert cfg.pulses.sigma_ns == 30.0

    def test_experiment_name_validation(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"experiment": "nonexistent"})

    @pytest.mark.parametrize("experiment", [e for e in Experiment if e is not Experiment.SPLIT_MAP],
                             ids=lambda e: e.value)
    def test_split_transmon_outside_split_map_fails_before_the_run(self, monkeypatch, experiment):
        # the transmon fixes the level count, and only split_map reads a split |1>
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr("stirap.experiments.run_batch", no_integration)
        monkeypatch.setattr("stirap.experiments.evolve", no_integration)
        cfg = ExperimentConfig(experiment=experiment,
                               transmon=TransmonParams(split=SplitSpec(15.0)))
        with pytest.raises(ConfigurationError, match=rf"transmon\.split is not read by {experiment.value}"):
            run_experiment(cfg)

    def test_axis_the_experiment_does_not_read_fails_before_the_run(self, monkeypatch):
        # the Python API takes any axis name; the runner would sweep its default axis
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr("stirap.experiments.run_batch", no_integration)
        cfg = ExperimentConfig(experiment=Experiment.SEPARATION_SWEEP,
                               sweep={"t_separaton_ns": (-90.0,)})
        with pytest.raises(ConfigurationError, match=r"'t_separaton_ns'.*\['t_separation_ns'\]"):
            run_experiment(cfg)


class TestPlan:
    @pytest.mark.parametrize("experiment, sweep, calls", [
        (Experiment.DETUNING_MAP, {"detuning_sum_mhz": (-2.0, 0.0, 3.0), "detuning_diff_mhz": (-1.0, 1.0)}, 1),
        (Experiment.SEPARATION_SWEEP, {"t_separation_ns": (-90.0, -60.0, 40.0)}, 3),
    ], ids=["plane", "separation_sweep"])
    def test_checks_the_step_once_per_distinct_pulses(self, monkeypatch, experiment, sweep, calls):
        checked = []

        def counting(seq, grid):
            checked.append(seq)
            return check_step(seq, grid)

        monkeypatch.setattr(experiments, "check_step", counting)
        plan(cfg_with(experiment=experiment, sweep=sweep))
        assert len(checked) == calls

    @pytest.mark.parametrize("shift, handed", [(0.0, 1_000_000), (0.5, 500_000)], ids=["all", "mirrored"])
    def test_a_plane_builds_and_checks_one_drive(self, monkeypatch, shift, handed):
        # a 1000 x 1000 plane: one sequence built and checked, the detunings as arrays, and
        # _sweep hands run_batch the plan's cells, the integrated ones as views of its
        # arrays, building no PulseSequence and allocating next to nothing
        import tracemalloc

        from stirap.pulses import PulseSequence

        calls = {"two_pulse_sequence": 0, "check_step": 0}

        def counting(name, f):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(experiments, "two_pulse_sequence", counting("two_pulse_sequence", two_pulse_sequence))
        monkeypatch.setattr(experiments, "check_step", counting("check_step", check_step))
        axis = tuple(v + shift for v in range(-500, 500))  # symmetric about 0 with the shift
        cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                       sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        p = plan(cfg)
        assert calls == {"two_pulse_sequence": 1, "check_step": 1}
        assert len(p.cells.drive) == 1
        assert [d.shape for d in (p.cells.delta01, p.cells.delta12)] == [(1_000_000,), (1_000_000,)]

        class Handed(Exception):
            pass

        handed_cells, built = [], []

        def capture(cells, *args, **kwargs):
            handed_cells.append(cells)
            raise Handed

        post_init = PulseSequence.__post_init__
        monkeypatch.setattr(PulseSequence, "__post_init__", lambda seq: built.append(seq) or post_init(seq))
        monkeypatch.setattr(experiments, "run_batch", capture)
        tracemalloc.start()
        try:
            with pytest.raises(Handed):
                experiments._sweep(cfg, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (cells,) = handed_cells
        assert built == [] and peak < 5e6, (len(built), peak)
        assert len(cells) == handed and cells.drive is p.cells.drive
        for mine, planned in ((cells.delta01, p.cells.delta01), (cells.delta12, p.cells.delta12)):
            assert np.shares_memory(mine, planned) and np.array_equal(mine, planned[:handed])
        # each cell's detunings are those its own two_pulse_sequence would state
        pc = cfg.pulses
        for k in range(0, handed, 997):
            s, d = axis[k // len(axis)], axis[k % len(axis)]
            seq = two_pulse_sequence(mhz_to_rad_ns(pc.omega01_mhz), mhz_to_rad_ns(pc.omega12_mhz),
                                     pc.sigma_ns, pc.t_separation_ns, mhz_to_rad_ns((s + d) / 2.0),
                                     mhz_to_rad_ns((s - d) / 2.0), pc.phi01_rad, pc.phi12_rad)
            assert seq.pulses == cells.drive[0].pulses
            assert (cells.delta01[k], cells.delta12[k]) == (seq.delta01, seq.delta12), k

    def test_cells_run_over_the_axes_product(self):
        cfg = cfg_with(experiment=Experiment.DETUNING_MAP,
                       sweep={"detuning_sum_mhz": (-2.0, 0.0, 3.0), "detuning_diff_mhz": (-1.0, 1.0)})
        p = plan(cfg)
        assert list(p.axes) == ["detuning_sum_mhz", "detuning_diff_mhz"]
        cells = p.cell_values()
        assert cells["detuning_sum_mhz"].tolist() == [-2.0, -2.0, 0.0, 0.0, 3.0, 3.0]
        assert cells["detuning_diff_mhz"].tolist() == [-1.0, 1.0] * 3
        assert len(p.cells.drive) == 1
        assert [list(pair) for pair in zip(p.cells.delta01.tolist(), p.cells.delta12.tolist())] == [
            [mhz_to_rad_ns((s + d) / 2.0), mhz_to_rad_ns((s - d) / 2.0)]
            for s, d in zip(cells["detuning_sum_mhz"].tolist(), cells["detuning_diff_mhz"].tolist())]
        assert p.grid == TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=20)

    def test_sweep_grid_spans_every_cell(self):
        p = plan(cfg_with(experiment=Experiment.SEPARATION_SWEEP,
                          sweep={"t_separation_ns": (-90.0, 40.0)}))
        assert [s.window for s in p.cells.drive] == [(-225.0, 225.0), (-200.0, 200.0)]
        assert (p.grid.t_start, p.grid.t_end) == (-225.0, 225.0)

    @pytest.mark.parametrize("experiment", list(Experiment), ids=lambda e: e.value)
    def test_runners_build_no_sequence_and_no_grid(self, monkeypatch, small_config, experiment):
        # plan builds the cells and the grid; a runner only integrates and analyses
        cfg = small_config(experiment)
        p = plan(cfg)

        def no_building(*args, **kwargs):
            raise AssertionError("built")

        for name in ("two_pulse_sequence", "build_sequence", "plateau_phase_sequence", "TimeGrid"):
            monkeypatch.setattr(experiments, name, no_building)
        runner = experiments._EXPERIMENTS[experiment][0]
        assert runner(cfg, p).kind == experiment.value

    @pytest.mark.parametrize("experiment, changes, error, message", [
        (Experiment.TOMOGRAPHY_TIMELINE, {"tomography": TomographyConfig(dtau_ns=1e-300)},
         ConfigurationError, "1.5e+303 tau samples"),
        (Experiment.TIME_EVOLUTION, {"grid": GridConfig(sample_stride=3000)},
         ConfigurationError, "leaves no sample in the pulse overlap"),
        (Experiment.TOMOGRAPHY_TIMELINE, {"cavity": CavityParams(g_mhz=(80.0,))},
         ConfigurationError, "need couplings for at least two transitions"),
        (Experiment.TOMOGRAPHY_TIMELINE, {"cavity": CavityParams(f_res_mhz=5300.0)},
         NumericalError, "transition at 5270.0 MHz too close to cavity"),
    ], ids=["tau_axis", "sample_stride", "one_coupling", "non_dispersive"])
    def test_build_checks_fire_before_evolve(self, monkeypatch, experiment, changes, error, message):
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr(experiments, "evolve", no_integration)
        cfg = dataclasses.replace(ExperimentConfig(experiment=experiment), **changes)
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(cfg)
