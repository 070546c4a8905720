import dataclasses
import json
import math

import numpy as np
import pytest

from stirap.config import (
    Experiment,
    ExperimentConfig,
    GridConfig,
    PulseConfig,
    config_from_dict,
    config_hash,
)
from stirap.core import basis_ket
from stirap.errors import ConfigurationError
from stirap.experiments import (
    blob_count,
    count_alternations,
    emit,
    fwhm,
    overlap_window,
    run_detuning_map,
    run_experiment,
    run_hybrid,
    run_reversal,
    run_separation_sweep,
    run_split_map,
    run_time_evolution,
    sustained_max,
)
from stirap.hamiltonian import SplitSpec, TransmonParams, build_rotating_hamiltonian
from stirap.lindblad import TimeGrid, build_dissipators, evolve, lindblad_rhs
from stirap.pulses import SequenceKind, build_sequence, two_pulse_sequence
from stirap.units import mhz_to_rad_ns

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


class TestTimeEvolution:
    def test_paper_defaults_summary(self):
        cfg = cfg_with(grid=GridConfig(dt_ns=0.1, sample_stride=10))
        result = run_time_evolution(cfg)
        summary = result.table("time_evolution_summary")
        assert 0.78 <= summary.column("peak_p2")[0] <= 0.88
        assert summary.column("p1_max_overlap")[0] <= 0.1
        assert summary.column("unitary_final_p2")[0] >= 0.99

    def test_csv_schema_pinned(self, tmp_path):
        cfg = cfg_with()
        result = run_time_evolution(cfg)
        emit(result, tmp_path, "csv")
        header = (tmp_path / "time_evolution.csv").read_text().splitlines()[0]
        assert header == "t_ns,p0,p1,p2,trace_drift"

    def test_zero_drive_flat(self):
        cfg = cfg_with(pulses=PulseConfig(omega01_mhz=0.0, omega12_mhz=0.0))
        result = run_time_evolution(cfg)
        table = result.table("time_evolution")
        assert np.max(np.abs(table.column("p0") - 1.0)) < 1e-12

    def test_population_rows_sum_to_one(self):
        result = run_time_evolution(cfg_with())
        for name in ("time_evolution", "time_evolution_unitary"):
            t = result.table(name)
            sums = t.column("p0") + t.column("p1") + t.column("p2")
            assert np.max(np.abs(sums - 1.0)) < 1e-6


@pytest.fixture(scope="module")
def coarse_sweep():
    cfg = cfg_with(sweep={"t_separation_ns": tuple(np.arange(-150.0, 151.0, 25.0))})
    return run_separation_sweep(cfg)


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
        # same Lindblad equation, from build_rotating_hamiltonian and
        # lindblad_rhs, under scipy's DOP853.  -200 ns fixes the common
        # window at the acceptance sweep's +-280 ns.
        from scipy.integrate import solve_ivp

        axis = (-200.0, -120.0, -110.0, -90.0, -70.0)
        cfg = ExperimentConfig(experiment=Experiment.SEPARATION_SWEEP,
                               grid=GridConfig(dt_ns=0.1, sample_stride=10),
                               sweep={"t_separation_ns": axis})
        result = run_separation_sweep(cfg)
        series = result.table("separation_sweep_timeseries")
        summary = result.table("separation_sweep")
        p = cfg.pulses
        spec = build_dissipators(cfg.transmon)
        rho0 = np.zeros((3, 3), dtype=complex)
        rho0[0, 0] = 1.0
        for ts in axis[1:]:
            rows = series.rows[series.column("t_separation_ns") == ts]
            times = rows[:, 1] - ts / 2.0  # undo the shift to the 01 peak
            seq = two_pulse_sequence(mhz_to_rad_ns(p.omega01_mhz),
                                     mhz_to_rad_ns(p.omega12_mhz), p.sigma_ns, ts)

            def rhs(t, y, seq=seq):
                h = build_rotating_hamiltonian(seq.drive_sample(t))
                return lindblad_rhs(y.view(complex).reshape(3, 3), h, spec).ravel().view(float)

            sol = solve_ivp(rhs, (times[0], times[-1]), rho0.ravel().view(float),
                            method="DOP853", rtol=1e-11, atol=1e-13, t_eval=times)
            assert sol.success
            p2 = sol.y[16]  # real part of rho[2, 2]
            assert np.max(np.abs(p2 - rows[:, 4])) <= 1e-8
            sustained = summary.column("sustained_p2")[summary.column("t_separation_ns") == ts][0]
            assert abs(sustained_max(p2, times, p.sigma_ns) - sustained) <= 1e-8


@pytest.fixture(scope="module")
def tiny_map():
    axis = tuple(np.arange(-6.0, 7.0, 3.0))
    cfg = cfg_with(sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
    return run_detuning_map(cfg)


class TestDetuningMap:
    def test_origin_cell_matches_time_evolution(self, tiny_map):
        table = tiny_map.table("detuning_map")
        mask = (table.column("detuning_sum_mhz") == 0.0) & (
            table.column("detuning_diff_mhz") == 0.0)
        cell_final = table.column("final_p2")[mask][0]
        res = run_time_evolution(cfg_with())
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
        cfg = cfg_with(sweep={"detuning_sum_mhz": (0.0, 1e5), "detuning_diff_mhz": (0.0,)})
        result = run_detuning_map(cfg)
        assert [(f["cell"], f["detuning_sum_mhz"], f["detuning_diff_mhz"])
                for f in result.failures] == [(1, 1e5, 0.0)]
        assert " at step " in result.failures[0]["error"]


@pytest.fixture(scope="module")
def hybrid_result():
    cfg = cfg_with(
        grid=GridConfig(dt_ns=0.1, sample_stride=20),
        sweep={"theta_fast_rad": (0.0, math.pi / 2, math.pi)},
        dissipative=False,
    )
    return run_hybrid(cfg)


class TestHybrid:
    def test_theta_zero_matches_plain_stirap(self, hybrid_result):
        summary = hybrid_result.table("hybrid")
        final_p2_theta0 = summary.column("final_p2")[0]
        # plain STIRAP integrated over the same (extended) window
        seq = build_sequence(SequenceKind.STIRAP, omega01=mhz_to_rad_ns(43.4),
                             omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
        grid = TimeGrid(-235.0, 225.0, dt=0.1, sample_stride=20)
        res = evolve(basis_ket(0), seq, TransmonParams(), grid, dissipative=False)
        assert abs(final_p2_theta0 - res.populations[-1, 2]) < 1e-9

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
            grid=GridConfig(dt_ns=0.1, sample_stride=50),
            sweep={"theta_fast_rad": tuple(np.arange(0.0, math.pi + 1e-9, math.pi / 10))},
            dissipative=False,
        )
        summary = run_hybrid(cfg).table("hybrid")
        finals = summary.column("final_p2")
        assert np.all(np.diff(finals) < 1e-3)  # monotone up to small wiggle

    def test_late_oscillations_present_dissipative(self):
        cfg = cfg_with(
            grid=GridConfig(dt_ns=0.1, sample_stride=20),
            sweep={"theta_fast_rad": (math.pi / 2,)},
        )
        summary = run_hybrid(cfg).table("hybrid")
        assert summary.column("late_p0_alternations")[0] >= 2


    def test_failed_cell_is_recorded_and_the_rest_run(self):
        # a 1000 rad fast pulse in 10 ns is far beyond RK4 stability at dt 0.5 ns
        cfg = cfg_with(sweep={"theta_fast_rad": (0.0, 1000.0)})
        result = run_hybrid(cfg)
        assert [(f["cell"], f["theta_fast_rad"]) for f in result.failures] == [(1, 1000.0)]
        assert " at step " in result.failures[0]["error"]
        assert result.table("hybrid").column("final_p2")[0] > 0.2


class TestReversal:
    def test_dissipationless_round_trip(self):
        cfg = cfg_with(grid=GridConfig(dt_ns=0.1, sample_stride=20), dissipative=False)
        summary = run_reversal(cfg).table("reversal")
        assert summary.column("final_p0")[0] >= 0.98
        assert summary.column("max_p2")[0] >= 0.9

    def test_paper_rates_qualitative_structure(self):
        cfg = cfg_with(grid=GridConfig(dt_ns=0.1, sample_stride=20))
        summary = run_reversal(cfg).table("reversal")
        assert summary.column("max_p2")[0] > 0.5  # mid-sequence p2 peak
        assert summary.column("final_p0")[0] > summary.column("final_p1")[0]
        assert summary.column("final_p0")[0] > summary.column("final_p2")[0]

    def test_without_return_pulse_population_stays_transferred(self):
        # dropping the trailing 12 pulse leaves a single STIRAP: no return
        cfg = cfg_with(grid=GridConfig(dt_ns=0.1, sample_stride=20), dissipative=False)
        summary = run_reversal(cfg).table("reversal")
        seq = build_sequence(SequenceKind.STIRAP, omega01=mhz_to_rad_ns(43.4),
                             omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
        grid = TimeGrid(-315.0, 315.0, dt=0.1, sample_stride=20)
        res = evolve(basis_ket(0), seq, TransmonParams(), grid, dissipative=False)
        assert res.populations[-1, 0] < 0.01  # no return without the third pulse
        assert summary.column("final_p0")[0] >= 0.98


class TestSplitMap:
    def test_degenerate_limit_matches_three_level(self):
        axis = tuple(np.arange(-6.0, 7.0, 3.0))
        split_cfg = cfg_with(
            experiment=Experiment.SPLIT_MAP,
            transmon=TransmonParams(split=SplitSpec(0.0, (1.0, 0.0))),
            sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis},
        )
        split = run_split_map(split_cfg)
        plain_cfg = cfg_with(sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        plain = run_detuning_map(plain_cfg)
        for col in ("final_p0", "final_p1", "final_p2", "peak_p2"):
            a = split.table("split_map").column(col)
            b = plain.table("detuning_map").column(col)
            assert np.max(np.abs(a - b)) < 1e-6

    def test_missing_split_config(self):
        with pytest.raises(ConfigurationError):
            run_split_map(cfg_with())


class TestEmission:
    @pytest.fixture()
    def small_cfg(self):
        return cfg_with(sweep={"t_separation_ns": (-120.0, -90.0, -60.0)})

    def test_rerun_byte_identical_csv(self, tmp_path, small_cfg):
        r1 = run_separation_sweep(small_cfg)
        r2 = run_separation_sweep(small_cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        files1 = emit(r1, a, "csv")
        files2 = emit(r2, b, "csv")
        for f1, f2 in zip(files1, files2):
            assert f1.read_bytes() == f2.read_bytes()

    def test_rerun_byte_identical_json(self, tmp_path, small_cfg):
        r1 = run_separation_sweep(small_cfg)
        r2 = run_separation_sweep(small_cfg)
        f1 = emit(r1, tmp_path / "a", "json")[0]
        f2 = emit(r2, tmp_path / "b", "json")[0]
        assert f1.read_bytes() == f2.read_bytes()

    def test_parallel_matches_serial(self, tmp_path, small_cfg):
        serial = run_separation_sweep(small_cfg)
        parallel = run_separation_sweep(dataclasses.replace(small_cfg, workers=2))
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
        result = run_separation_sweep(small_cfg)
        emit(result, tmp_path, "csv")
        manifest = json.loads((tmp_path / "separation_sweep_manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(small_cfg)
        assert manifest["version"]
        assert "separation_sweep" in manifest["tables"]

    def test_unknown_format(self, tmp_path, small_cfg):
        with pytest.raises(ConfigurationError):
            emit(run_separation_sweep(small_cfg), tmp_path, "xml")


class TestConfigParsing:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"pulse": {}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"pulses": {"omega01_megahertz": 1.0}})
        with pytest.raises(ConfigurationError):
            config_from_dict({"sweep": {"bogus_axis": [1, 2]}})

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

    def test_axis_the_experiment_does_not_read_fails_before_the_run(self, monkeypatch):
        # the Python API takes any axis name; the runner would sweep its default axis
        def no_integration(*args, **kwargs):
            raise AssertionError("integrated")

        monkeypatch.setattr("stirap.experiments.run_batch", no_integration)
        cfg = ExperimentConfig(experiment=Experiment.SEPARATION_SWEEP,
                               sweep={"t_separaton_ns": (-90.0,)})
        with pytest.raises(ConfigurationError, match=r"'t_separaton_ns'.*\['t_separation_ns'\]"):
            run_experiment(cfg)
