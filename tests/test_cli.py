import json
from pathlib import Path

import pytest

from stirap.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


FAST = {"grid": {"dt_ns": 0.5, "sample_stride": 50}}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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

    def test_unknown_key(self, tmp_path):
        cfg = write_config(tmp_path, {"grids": {}})
        assert main(["validate-config", "--config", cfg]) == EXIT_CONFIG

    def test_missing_file(self, tmp_path):
        assert main(["validate-config", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG


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

    @pytest.mark.parametrize("key, value", [
        ("dtau_ns", 0.0), ("weight_ns", 0.0), ("tau_max_ns", -10.0), ("dtau_ns", -5.0),
        ("weight_ns", -5.0), ("noise_std_rel", -0.5),
    ])
    def test_invalid_tomography_config(self, tmp_path, key, value):
        cfg = write_config(tmp_path, {"grid": {"dt_ns": 0.5, "sample_stride": 100},
                                      "tomography": {key: value}})
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_shipped_tomography_config(self, tmp_path):
        out = tmp_path / "out"
        cfg = str(CONFIGS / "tomography.json")
        assert main(["tomography", "--config", cfg, "--out", str(out)]) == EXIT_OK
        header, *rows = (out / "tomography_timeline.csv").read_text().splitlines()
        assert len(rows) == 181
        assert header.split(",") == ["t_ns", "p0", "p1", "p2", "p0_hat", "p1_hat",
                                     "p2_hat", "residual"]


class TestNumericalFailures:
    def test_non_adiabatic_berry_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {"berry": {"omega_rms_mhz": 30.0}})
        assert main(["berry", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

    def test_degenerate_tomography_exits_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "grid": {"dt_ns": 0.5, "sample_stride": 100},
            "cavity": {"g_mhz": [0.0, 0.0, 0.0]},
        })
        assert main(["tomography", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_NUMERICAL

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

    def test_berry_default_runs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["berry", "--out", str(out)]) == EXIT_OK
        rows = (out / "berry.csv").read_text().splitlines()
        header, values = rows[0].split(","), [float(v) for v in rows[1].split(",")]
        rec = dict(zip(header, values))
        assert rec["mismatch_rad"] <= 1e-2
