import ast
import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stirap import _batch, cli, experiments
from stirap.cli import _SUBCOMMANDS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from stirap.config import Experiment, config_hash, load_config


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


FAST = {"grid": {"dt_ns": 0.5, "sample_stride": 50}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_rejected_as_the_run(monkeypatch, tmp_path, capsys, command, data, code, key):
    """validate-config and the run both exit with code and the same stderr,
    holding key, before anything integrates, and the run writes nothing."""
    def no_integration(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr(_batch, "_integrate", no_integration)
    cfg = write_config(tmp_path, data)
    assert main(["validate-config", "--config", cfg]) == code
    err = capsys.readouterr().err
    assert key in err, err
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == err
    assert not (tmp_path / "o").exists()


class TestValidateConfig:
    def test_ok(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FAST)
        assert main(["validate-config", "--config", cfg]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ok ")

    def test_defaults_when_no_config(self, capsys):
        assert main(["validate-config"]) == EXIT_OK

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG

    def test_integer_past_the_parser_digit_limit(self, tmp_path, capsys):
        # Python's JSON parser refuses integers of more than 4300 digits
        path = tmp_path / "long.json"
        path.write_text('{"pulses": {"sigma_ns": ' + "1" * 5000 + "}}")
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert "is not valid JSON" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {"grids": {}})
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("command, data, key", [
        ("run", {"experiment": "time_evolution", "sweep": {"t_separation_ns": [0, 5]}},
         "'t_separation_ns' is not read by time_evolution"),
        ("sweep-detuning", {"experiment": "detuning_map",
                            "transmon": {"split": {"delta_split_mhz": 15.0}}},
         "transmon.split is not read by detuning_map"),
        ("split", {"experiment": "split_map"}, "split_map needs transmon.split"),
        # a file that names no experiment is checked as time_evolution, as run runs it
        ("run", {"sweep": {"theta_fast_rad": [0.0]}}, "'theta_fast_rad' is not read by time_evolution"),
        # and every other check a run makes before it integrates
        ("run", {"grid": {"dt_ns": 1.0}}, "dt = 1.0 too coarse for sigma = 45.0 ns"),
        ("run", {"grid": {"dt_ns": 1e-12}}, "grid needs between 10 and 1000000 steps"),
        ("hybrid", {"experiment": "hybrid", "pulses": {"fast_duration_ns": 10.05}},
         "FastPulse edge at -225.0 ns falls between the points"),
        ("tomography", {"experiment": "tomography_timeline", "tomography": {"dtau_ns": 1e-300}},
         "1.5e+303 tau samples"),
        ("run", {"pulses": {"t_separation_ns": 90.0}}, "STIRAP needs t_s <= 0"),
        ("run", {"grid": {"sample_stride": 3000}}, "leaves no sample in the pulse overlap"),
        ("tomography", {"experiment": "tomography_timeline", "cavity": {"g_mhz": [80.0]},
                        "grid": {"dt_ns": 0.5, "sample_stride": 100}},
         "need couplings for at least two transitions"),
        # a range is counted before it is built: 1e9 values, and inf
        ("sweep-separation", {"experiment": "separation_sweep", "sweep": {"t_separation_ns": {
            "start": -100, "stop": 0, "step": 1e-7}}}, "step 1e-07 gives 1000000001 values"),
        ("sweep-separation", {"experiment": "separation_sweep", "sweep": {"t_separation_ns": {
            "start": -100, "stop": 0, "step": 1e-320}}}, "step 1e-320 gives inf values"),
        # an axis no experiment reads is rejected like any axis its experiment does not read
        ("sweep-detuning", {"experiment": "detuning_map", "sweep": {"bogus_axis": [0.0]}},
         "sweep axis 'bogus_axis' is not read by detuning_map"),
        # the analyses read an axis in ascending order, so one listed out of order
        # or with a repeated value is rejected
        ("sweep-separation", {"experiment": "separation_sweep", "sweep": {
            "t_separation_ns": [60, -90, 30, -30, 90, 0, -60]}}, "'t_separation_ns' is not strictly increasing"),
        ("sweep-detuning", {"experiment": "detuning_map", "sweep": {"detuning_sum_mhz": [-2, 0, 0, 2]}},
         "'detuning_sum_mhz' is not strictly increasing"),
        # a sweep that keeps every cell's series: 8e7 rows, 1.9 GB of populations
        ("sweep-separation", {"experiment": "separation_sweep", "grid": {"dt_ns": 0.00057, "sample_stride": 1}},
         "81 cells x 982458 samples are more than 10000000 series rows"),
    ], ids=["axis", "split", "no_split", "no_experiment", "dt_coarse", "too_many_steps",
            "fast_edge", "tau_axis", "t_s_positive", "sample_stride", "one_coupling",
            "range_too_fine", "range_overflows", "bogus_axis", "unsorted_axis", "repeated_value",
            "series_rows"])
    def test_checks_what_the_experiment_reads_as_the_run_does(self, monkeypatch, tmp_path, capsys,
                                                               command, data, key):
        assert_rejected_as_the_run(monkeypatch, tmp_path, capsys, command, data, EXIT_CONFIG, key)

    def test_sweep_of_more_than_max_points_cells_exits_2(self, monkeypatch, tmp_path, capsys):
        # the cells are counted before any sequence is built
        def no_building(*args, **kwargs):
            raise AssertionError("built")

        monkeypatch.setattr(experiments, "two_pulse_sequence", no_building)
        axis = [float(v) for v in range(1001)]
        data = {"experiment": "detuning_map",
                "sweep": {"detuning_sum_mhz": axis, "detuning_diff_mhz": axis}}
        assert_rejected_as_the_run(monkeypatch, tmp_path, capsys, "sweep-detuning", data,
                                   EXIT_CONFIG, "1001 x 1001 = 1002001 cells are more than 1000000")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
    def test_every_shipped_config_validates(self, capsys, path):
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == f"ok {config_hash(load_config(path))}\n"

    @pytest.mark.parametrize("command", ["validate-config", "hybrid"])
    def test_theta_fast_in_pulses_exits_2(self, tmp_path, capsys, command):
        # the hybrid sweep takes theta only from its theta_fast_rad axis
        cfg = write_config(tmp_path, {"pulses": {"theta_fast_rad": 1.0}})
        out = tmp_path / "o"
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", cfg, *extra]) == EXIT_CONFIG
        assert "unknown keys ['theta_fast_rad']" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_run_writes_files(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (out / "time_evolution.csv").exists()
        assert (out / "time_evolution_manifest.json").exists()

    def test_json_format(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--format", "json"]) == EXIT_OK
        assert (out / "time_evolution.json").exists()

    def test_no_dissipation_flag(self, tmp_path):
        cfg = write_config(tmp_path, FAST)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out), "--no-dissipation"]) == EXIT_OK
        rows = (out / "time_evolution.csv").read_text().splitlines()
        final_p2 = float(rows[-1].split(",")[3])
        assert final_p2 >= 0.98  # dissipationless transfer survives

    def test_invalid_pulse_config(self, tmp_path):
        cfg = write_config(tmp_path, {"pulses": {"sigma_ns": -3.0}})
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_dt_too_coarse_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, {"grid": {"dt_ns": 1.5, "sample_stride": 10}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_fast_pulse_edge_off_the_grid_exits_2(self, tmp_path, capsys):
        # a 10.05 ns fast pulse ends between the points of the dt 0.1 ns grid
        cfg = write_config(tmp_path, {"pulses": {"fast_duration_ns": 10.05}})
        out = tmp_path / "o"
        assert main(["hybrid", "--config", cfg, "--out", str(out),
                     "--no-dissipation"]) == EXIT_CONFIG
        assert "FastPulse edge at -225.0 ns" in capsys.readouterr().err
        assert not out.exists()

    def test_split_transmon_exits_2(self, tmp_path, capsys):
        # only the split map models a split |1>; the other experiments used to
        # ignore it and write 3-level results
        cfg = write_config(tmp_path, {**FAST, "transmon": {"split": {"delta_split_mhz": 15.0}}})
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "transmon.split is not read by time_evolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("dtau_ns", 0.0), ("weight_ns", 0.0), ("tau_max_ns", -10.0), ("dtau_ns", -5.0),
        ("weight_ns", -5.0), ("noise_std_rel", -0.5),
    ])
    def test_invalid_tomography_config(self, tmp_path, key, value):
        cfg = write_config(tmp_path, {"grid": {"dt_ns": 0.5, "sample_stride": 100},
                                      "tomography": {key: value}})
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_tau_axis_too_fine_exits_2(self, tmp_path, capsys):
        # a tau axis this fine is a configuration error, not a numpy ValueError
        cfg = write_config(tmp_path, {"grid": {"dt_ns": 0.5, "sample_stride": 100},
                                      "tomography": {"dtau_ns": 1e-300}})
        out = tmp_path / "o"
        assert main(["tomography", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "dtau = 1e-300 ns gives 1.5e+303 tau samples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "berry"])
    @pytest.mark.parametrize("key, value", [
        ("metric_threshold", -1.0), ("metric_threshold", 0.0), ("metric_threshold", float("nan")),
        ("sigma_ns", 0.0), ("ramp_span_ns", -90.0), ("omega_rms_mhz", -200.0),
    ])
    def test_invalid_berry_config(self, tmp_path, command, key, value):
        # a threshold <= 0 would pass the adiabaticity precondition for any drive
        cfg = write_config(tmp_path, {"berry": {key: value}})
        out = tmp_path / "o"
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", cfg, *extra]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("section, key, value", [
        ("pulses", "sigma_ns", float("nan")), ("grid", "dt_ns", float("nan")),
        ("tomography", "weight_ns", float("nan")), ("pulses", "omega01_mhz", float("nan")),
        ("transmon", "gamma10_mhz", float("nan")), ("pulses", "t_separation_ns", float("inf")),
    ])
    def test_non_finite_config(self, tmp_path, command, section, key, value):
        # json.dumps writes NaN and Infinity, and Python's JSON parser reads them
        cfg = write_config(tmp_path, {section: {key: value}})
        assert "NaN" in Path(cfg).read_text() or "Infinity" in Path(cfg).read_text()
        out = tmp_path / "o"
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", cfg, *extra]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("command", ["validate-config", "run"])
    @pytest.mark.parametrize("data, key", [
        ({"pulses": 5}, "pulses"),
        ({"transmon": {"split": 5}}, "transmon.split"),
        ({"sweep": [1]}, "sweep"),
        ({"cavity": {"g_mhz": 5}}, "cavity.g_mhz"),
        ({"sweep": {"t_separation_ns": ["x"]}}, "t_separation_ns"),
        ({"sweep": {"t_separation_ns": {"start": 0, "stop": "a", "step": 1}}}, "stop"),
        ({"grid": {"sample_stride": 2.5}}, "grid.sample_stride"),
        ({"seed": True}, "seed"),
        ({"output": {"dir": 5}}, "output.dir"),
        # integers too large for a float, which JSON allows without an exponent
        ({"pulses": {"sigma_ns": 10**400}}, "pulses.sigma_ns"),
        ({"sweep": {"t_separation_ns": [10**400]}}, "sweep.t_separation_ns"),
        ({"output": {"format": "xml"}}, "output format"),
        ({"sweep": {"t_separation_ns": {"start": 0, "stop": 1, "step": 1, "stride": 2}}}, "unknown keys ['stride']"),
        ({"sweep": {"t_separation_ns": {"start": 0, "stop": 1}}}, "missing 'step'"),
        ({"sweep": {"t_separation_ns": {"start": 1, "stop": 0, "step": 1}}}, "stop >= start"),
        ({"sweep": {"t_separation_ns": 5}}, "'t_separation_ns' must be a list"),
        ({"cavity": {"g_mhz": [80.0, -113.1, 138.6]}}, "couplings g must be nonnegative"),
    ])
    def test_malformed_config(self, tmp_path, capsys, command, data, key):
        cfg = write_config(tmp_path, data)
        out = tmp_path / "o"
        extra = [] if command == "validate-config" else ["--out", str(out)]
        assert main([command, "--config", cfg, *extra]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err, err
        assert not out.exists()

    @pytest.mark.parametrize("data, key", [
        ({"sweep": {"theta_fast_rad": [-0.5, 0.0]}}, "fast-pulse angle must be nonnegative, got -0.5"),
        ({"pulses": {"fast_duration_ns": 0}}, "fast-pulse duration must be positive, got 0"),
    ])
    def test_malformed_hybrid_config(self, tmp_path, capsys, data, key):
        # only the hybrid builds a fast pulse, so only its plan rejects one
        cfg = write_config(tmp_path, data)
        out = tmp_path / "o"
        assert main(["hybrid", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and key in err, err
        assert not out.exists()

    def test_sample_stride_that_misses_the_transfer_window(self, tmp_path, capsys):
        # 5000 steps of 0.1 ns sample only the ends of the +-225 ns window, so
        # the summary has no sample inside the pulse overlap to take a maximum of
        cfg = write_config(tmp_path, {"grid": {"sample_stride": 5000}})
        out = tmp_path / "o"
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("configuration error: grid.sample_stride = 5000") == 2, err
        assert not out.exists()

    def test_zero_workers_in_file_or_flag(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, {"workers": 0})
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG
        assert main(["run", "--out", str(out), "--workers", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err.count("workers must be >= 1") == 3
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    def test_output_directory_that_cannot_be_created_exits_2(self, tmp_path, capsys, below):
        # a file where the directory, or one of its parents, should be
        blocker = tmp_path / "taken"
        blocker.write_text("keep")
        out = blocker / "sub" if below else blocker
        cfg = write_config(tmp_path, FAST)
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot create output directory {out}:"), err
        assert blocker.read_text() == "keep"

    @pytest.mark.parametrize("fmt, name", [("csv", "time_evolution.csv"), ("csv", "time_evolution_manifest.json"),
                                           ("json", "time_evolution.json")])
    def test_output_file_that_cannot_be_written_exits_2(self, tmp_path, capsys, fmt, name):
        # a directory where a table or the manifest should be
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path, FAST)
        assert main(["run", "--config", cfg, "--out", str(out), "--format", fmt]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write output {out / name}:"), err

    def test_shipped_tomography_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = str(CONFIGS / "tomography.json")
        assert main(["tomography", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, *rows = (out / "tomography_timeline.csv").read_text().splitlines()
        assert len(rows) == 181
        assert header.split(",") == ["t_ns", "p0", "p1", "p2", "p0_hat", "p1_hat",
                                     "p2_hat", "residual"]


def dying_chunk(*args, **kwargs):
    """A chunk whose worker process dies, as one that the OOM killer ends."""
    os._exit(9)


class TestNumericalFailures:
    def test_non_adiabatic_berry_exits_3(self, monkeypatch, tmp_path, capsys):
        assert_rejected_as_the_run(monkeypatch, tmp_path, capsys, "berry",
                                   {"experiment": "berry", "berry": {"omega_rms_mhz": 30.0}},
                                   EXIT_NUMERICAL, "global adiabaticity metric 2.15 <= 10.0")

    def test_non_dispersive_readout_exits_3(self, monkeypatch, tmp_path, capsys):
        data = {"experiment": "tomography_timeline", "cavity": {"f_res_mhz": 5300.0},
                "grid": {"dt_ns": 0.5, "sample_stride": 100}}
        assert_rejected_as_the_run(monkeypatch, tmp_path, capsys, "tomography", data,
                                   EXIT_NUMERICAL, "transition at 5270.0 MHz too close to cavity")

    def test_degenerate_tomography_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"dt_ns": 0.5, "sample_stride": 100},
            "cavity": {"g_mhz": [0.0, 0.0, 0.0]},
        })
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_overflowing_readout_noise_exits_3(self, tmp_path, capsys):
        # a 1e300 relative readout noise overflows the inversion's cost in float64,
        # a 1e200 homodyne scale its normal equations, and a 1e300 noise on a 1e10
        # scale the noise itself; each ends typed, with no RuntimeWarning
        for i, (data, key) in enumerate([
                ({"tomography": {"noise_std_rel": 1e300}}, "tomography cost inf is not finite"),
                ({"cavity": {"eta": 1e200}}, "tomography cost nan is not finite"),
                ({"cavity": {"eta": 1e10}, "tomography": {"noise_std_rel": 1e300}},
                 "tomography noise_std inf is not finite")]):
            cfg = write_config(tmp_path, {**data, "grid": {"dt_ns": 0.5, "sample_stride": 100}}, f"{i}.json")
            out = tmp_path / f"o{i}"
            assert main(["tomography", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
            assert key in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command, data, code, key", [
        ("tomography", {"cavity": {"kappa_mhz": 5e-324}}, EXIT_CONFIG, "kappa must be positive"),
        ("tomography", {"cavity": {"kappa_mhz": 1e-310}, "tomography": {"decoherence_corrected_refs": True}},
         EXIT_NUMERICAL, "reference traces are not finite"),
        ("tomography", {"cavity": {"eta": 1e-310}}, EXIT_NUMERICAL,
         "normal equations of the reference traces are singular"),
        ("tomography", {"tomography": {"weight_ns": 1e-310}}, EXIT_NUMERICAL, "too degenerate: condition inf"),
        ("run", {"pulses": {"delta01_mhz": sys.float_info.max}}, EXIT_NUMERICAL, "non-finite state"),
        ("split", {"transmon": {"split": {"delta_split_mhz": sys.float_info.max}},
                   "sweep": {"detuning_sum_mhz": [0.0], "detuning_diff_mhz": [0.0]}},
         EXIT_NUMERICAL, "non-finite state"),
        ("berry", {"berry": {"omega_rms_mhz": sys.float_info.max}}, EXIT_CONFIG, "amplitude must be finite"),
        # M dtau's row-sum norm is past 2^1023, where the exact propagator's scale 2^s overflows
        ("tomography", {"cavity": {"epsilon_mhz": 1.5e307},
                        "tomography": {"decoherence_corrected_refs": True, "dtau_ns": 1000}},
         EXIT_NUMERICAL, "reference traces are not finite"),
    ], ids=["kappa-underflows-to-0", "kappa-subnormal", "eta-subnormal", "weight-subnormal",
            "detuning-past-float64", "split-past-float64", "amplitude-past-float64",
            "readout-propagator-past-float64"])
    def test_float_extremes_fail_typed(self, tmp_path, capsys, command, data, code, key):
        # found by fuzzing and probing configs: a ZeroDivisionError, a
        # LinAlgError, an OverflowError or a RuntimeWarning escaped (2 pi f 1e-3
        # is inf past 2.9e307 MHz); each now exits typed, with no warning and
        # no output
        cfg = write_config(tmp_path, {**data, "grid": {"dt_ns": 0.5, "sample_stride": 100}})
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == code
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_with_every_cell_failed_exits_3(self, tmp_path, capsys):
        # a 5000 MHz drive at dt 0.5 ns diverges in every cell
        cfg = write_config(tmp_path, {
            "pulses": {"omega01_mhz": 5000.0, "omega12_mhz": 5000.0},
            "grid": {"dt_ns": 0.5, "sample_stride": 50},
            "sweep": {"detuning_sum_mhz": [-2.0, 0.0, 2.0], "detuning_diff_mhz": [-2.0, 0.0, 2.0]},
        })
        out = tmp_path / "o"
        assert main(["sweep-detuning", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        assert "at step" in capsys.readouterr().err
        assert not out.exists()

    def test_chunk_out_of_memory_exits_3(self, monkeypatch, tmp_path, capsys):
        # numpy's _ArrayMemoryError is a MemoryError; the run exits typed, naming the chunk's cells
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.53 GiB")

        monkeypatch.setattr(_batch, "evolve_chunk", out_of_memory)
        cfg = write_config(tmp_path, {**FAST, "sweep": {"t_separation_ns": [-90.0, -60.0]}})
        out = tmp_path / "o"
        assert main(["sweep-separation", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err == "numerical failure: cells 0 to 1: memory ran out (Unable to allocate 1.53 GiB)\n", err
        assert not out.exists()

    @pytest.mark.parametrize("command, stub, stage, message", [
        ("run", "load_config", "config", "Unable to allocate 2.00 GiB"),
        ("validate-config", "plan", "plan", "Unable to allocate 2.00 GiB"),
        ("run", "run_experiment", "run", "Unable to allocate 2.00 GiB"),
        ("run", "emit", "emit", ""),  # json.dumps raises a bare MemoryError
    ])
    def test_out_of_memory_outside_run_batch_exits_3_naming_the_stage(self, monkeypatch, tmp_path, capsys,
                                                                      command, stub, stage, message):
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, stub, out_of_memory)
        args = [command, "--config", write_config(tmp_path, FAST)]
        assert main(args if command == "validate-config" else [*args, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        detail = f" ({message})" if message else ""
        assert err == f"numerical failure: {stage}: memory ran out{detail}\n", err

    @pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                        reason="a pool worker runs the patched evolve_chunk only when forked from this process")
    def test_dead_pool_worker_exits_3(self, monkeypatch, tmp_path, capsys):
        # a worker that dies breaks run_batch's 2-process pool; the run exits typed,
        # naming the cells of the first chunk left without a result
        monkeypatch.setattr(_batch, "evolve_chunk", dying_chunk)
        monkeypatch.setattr(_batch, "CHUNK_SIZE", 1)  # the two cells make two chunks
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path, {**FAST, "sweep": {"t_separation_ns": [-90.0, -60.0]}})
        out = tmp_path / "o"
        assert main(["sweep-separation", "--workers", "2", "--config", cfg, "--out", str(out)]) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: cells 0 to 0: a worker process died ("), err
        assert not out.exists()

    def test_plane_detuning_past_float64_fails_its_cells(self, tmp_path, capsys):
        big = sys.float_info.max
        cfg = write_config(tmp_path, {"grid": {"dt_ns": 0.5, "sample_stride": 50},
                                      "sweep": {"detuning_sum_mhz": [-big, 0.0, big], "detuning_diff_mhz": [0.0]}})
        out = tmp_path / "o"
        assert main(["sweep-detuning", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "2 cell(s) failed" in capsys.readouterr().err
        manifest = json.loads((out / "detuning_map_manifest.json").read_text())
        assert [f["cell"] for f in manifest["failures"]] == [0, 2]

    def test_one_failed_cell_is_named_in_manifest(self, tmp_path, capsys):
        # a 2500 MHz one-photon detuning is unstable for RK4 at dt 0.5 ns
        cfg = write_config(tmp_path, {
            "grid": {"dt_ns": 0.5, "sample_stride": 50},
            "sweep": {"detuning_sum_mhz": [0.0, 5000.0], "detuning_diff_mhz": [0.0]},
        })
        out = tmp_path / "o"
        assert main(["sweep-detuning", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert "1 cell(s) failed" in capsys.readouterr().err
        manifest = json.loads((out / "detuning_map_manifest.json").read_text())
        assert [f["cell"] for f in manifest["failures"]] == [1]
        assert " at step " in manifest["failures"][0]["error"]
        rows = (out / "detuning_map.csv").read_text().splitlines()
        assert float(rows[1].split(",")[5]) > 0.8  # the healthy cell still transfers (peak_p2)


class TestSweepCommands:
    def test_sweep_separation_small(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"dt_ns": 0.5, "sample_stride": 50},
            "sweep": {"t_separation_ns": [-90.0, -60.0]},
        })
        out = tmp_path / "out"
        assert main(["sweep-separation", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == EXIT_OK
        assert (out / "separation_sweep.csv").exists()

    def test_axis_the_subcommand_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"sweep": {"t_separation_ns": [-90]}})
        out = tmp_path / "out"
        assert main(["reversal", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert "'t_separation_ns' is not read by reversal" in capsys.readouterr().err
        assert not out.exists()

    def test_berry_default_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["berry", "--out", str(out)]) == EXIT_OK
        rows = (out / "berry.csv").read_text().splitlines()
        header, values = rows[0].split(","), [float(v) for v in rows[1].split(",")]
        rec = dict(zip(header, values))
        assert rec["mismatch_rad"] <= 1e-2


def test_each_experiment_has_one_table_entry_one_runner_and_one_subcommand():
    # a structural guard: run_experiment is the only public runner, one
    # table row says what each experiment reads and how experiments builds
    # and runs it
    table = experiments._EXPERIMENTS
    assert sorted(table, key=list(Experiment).index) == list(Experiment)
    runners = {e: row[0] for e, row in table.items()}
    assert len(set(runners.values())) == len(Experiment)
    assert sorted(_SUBCOMMANDS.values(), key=list(Experiment).index) == list(Experiment)
    assert [n for n in dir(experiments) if n.startswith("run_")] == ["run_batch", "run_experiment"]
    assert sorted(f.__name__ for f in runners.values()) == sorted(
        n for n in vars(experiments) if n.startswith("_run_"))


def test_python_m_stirap(tmp_path, capsys):
    # python -m stirap runs __main__.py in a new interpreter: cli.main's line and exit codes
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(path):
        return subprocess.run([sys.executable, "-m", "stirap", "validate-config", "--config", str(path)],
                              capture_output=True, text=True, env=env, timeout=120)

    path = CONFIGS / "paper_defaults.json"
    proc = run(path)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(["validate-config", "--config", str(path)]) == EXIT_OK
    assert proc.stdout == capsys.readouterr().out == f"ok {config_hash(load_config(path))}\n"
    proc = run(write_config(tmp_path, {"grids": {}}))
    assert proc.returncode == EXIT_CONFIG and "configuration error" in proc.stderr, proc.stderr


def test_import_loads_no_scipy():
    # a structural guard: scipy is only an oracle of the tests
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stirap, stirap.experiments, stirap.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_package_root_loads_no_submodule():
    # a structural guard: the package root holds only __version__; every
    # other name is imported from the module that defines it
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, stirap; "
            "print(stirap.__version__, sorted(m for m in sys.modules if m.startswith('stirap.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 []\n"


def test_oracles_import_neither_the_kernel_nor_the_runners():
    # a structural guard: the dense references, jump operators included, must
    # not share code with what they check, also through a name imported from
    # a module other than the one that defines it
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    origins = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            origins.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                obj = getattr(importlib.import_module(node.module), alias.name)
                origins.add(getattr(obj, "__module__", None) or obj.__name__)
    assert "stirap.hamiltonian" in origins  # the walk sees the imports
    banned = ("stirap._batch", "stirap.experiments", "stirap.lindblad")
    assert not [m for m in origins if m.startswith(banned)], sorted(origins)


def test_every_record_field_is_read():
    # "Names earn their place" for records: every dataclass field in
    # src/stirap is read, as .field or as a quoted name, in src/stirap, the
    # acceptance tests or perfbench/
    root = Path(__file__).resolve().parent.parent
    src = sorted((root / "src" / "stirap").glob("*.py"))
    fields, reads = [], set()
    for path in [*src, root / "tests" / "test_acceptance.py", *sorted((root / "perfbench").rglob("*.py"))]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.add(node.value)
            elif path in src and isinstance(node, ast.ClassDef) and any(
                    getattr(d, "id", None) == "dataclass" or getattr(getattr(d, "func", None), "id", None)
                    == "dataclass" for d in node.decorator_list):
                fields += [f"{node.name}.{s.target.id}" for s in node.body if isinstance(s, ast.AnnAssign)]
    assert "TomographyResult.iterations" in fields  # the walk sees the records
    assert [f for f in fields if f.split(".")[1] not in reads] == []


def test_every_raise_is_one_of_the_two_failure_types():
    # the failure contract: every raise in src/stirap names ConfigurationError
    # (exit 2) or NumericalError (exit 3), __main__'s SystemExit aside, and
    # errors.py defines no other exception class but MaxIterationsError,
    # which perfbench imports
    src = Path(__file__).resolve().parent.parent / "src" / "stirap"
    raised = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add((path.name, exc and ast.unparse(exc)))
    assert ("__main__.py", "SystemExit") in raised  # the walk sees the raises
    assert {name for _, name in raised - {("__main__.py", "SystemExit")}} == {"ConfigurationError", "NumericalError"}
    classes = [node.name for node in ast.walk(ast.parse((src / "errors.py").read_text()))
               if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == ["ConfigurationError", "MaxIterationsError", "NumericalError"]
