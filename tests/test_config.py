"""Config schema: pinned hashes, type checks and NaN-safe validation."""

import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from stirap.config import (
    BerryConfig,
    Experiment,
    ExperimentConfig,
    GridConfig,
    PulseConfig,
    TomographyConfig,
    canonical_dict,
    config_from_dict,
    config_hash,
    load_config,
)
from stirap.errors import ConfigurationError
from stirap.experiments import run_experiment
from stirap.hamiltonian import CavityParams, SplitSpec, TransmonParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# Hashes stamped into manifests; a change here orphans every recorded run.
GOLDEN = {
    "berry.json": "2776573404b43e16e0fe0b11214b1fea7af7f53e3d2882cbc1e37236d0c6281b",
    "detuning_map.json": "975bc426574e16c4c8c22e4a9f60ce2644a4fce64dccc8de9198b9cd32f52719",
    "paper_defaults.json": "58db72b747f8588b2ba106f605542aa8f49382f11cfdf4b3f9cdd07f3ce34e25",
    "separation_sweep.json": "0014b46930b34a3b0187718dc5da5bda06d669505164ade776dd1212e2a31ce2",
    "split_map.json": "5117c81819fecc9f0ac459727bc3fbc6d661f149c042a3c07366d4857863cb51",
    "tomography.json": "5cc2bad0da45f58f65f4c26f5ff0e6e07a0c11818f770d6e00a551113bfa45cf",
}
INTS_IN_FLOAT_FIELDS = {"pulses": {"sigma_ns": 30, "omega01_mhz": 40}}

# The hashes pinned while PulseConfig still held theta_fast_rad (default
# pi/2), which nothing read: the shipped configs, then the defaults (the
# same as paper_defaults.json) and INTS_IN_FLOAT_FIELDS.
WITH_THETA_FAST = {
    "berry.json": "87102bd381cc62d56897c22d329fb98854dbbaceca5ae9e684a1dea0e8866bac",
    "detuning_map.json": "8f92793d6fb68ea2dcdfa243ee6603c98a0e91a983098b313fa3ddf28ec3cd05",
    "paper_defaults.json": "8996edd6277d0ed24b873788fce25cafffb101a3ba375c2731ffba190978ef85",
    "separation_sweep.json": "68939cbf9c3db6599fcf6d734fa8323229d7146af2dcae66db01e1779790fa40",
    "split_map.json": "8fe8af9436b2dfa7ff2b0d7dfa1ec4d1879f7cf909316b31cc2fe880f36ec3ca",
    "tomography.json": "7c71fbde02333ddecbf877fd35665c4c003114016b0a9283def3dc03e272adff",
    "ints": "09222c5fb8916ac570f22787a579e3fc97dc2fdc500c10100fe4bedeb7d2ee0b",
}


class TestGoldenHash:
    def test_defaults(self):
        assert config_hash(ExperimentConfig()) == (
            "58db72b747f8588b2ba106f605542aa8f49382f11cfdf4b3f9cdd07f3ce34e25")

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_shipped_config(self, name):
        assert config_hash(load_config(CONFIGS / name)) == GOLDEN[name]

    def test_every_shipped_config_is_pinned(self):
        assert sorted(p.name for p in CONFIGS.glob("*.json")) == sorted(GOLDEN)

    def test_integers_in_float_fields_keep_their_bytes(self):
        cfg = config_from_dict(INTS_IN_FLOAT_FIELDS)
        assert config_hash(cfg) == (
            "be0cf1d978b39508184db5820a7bd8ba3efeab649fbe3c4ae0012d866e074de0")

    def test_deleted_theta_fast_is_the_only_change_from_the_old_hashes(self):
        # put the unread field back into the canonical dict, hash it as
        # config_hash does, and every hash pinned before its deletion returns
        cfgs = {name: load_config(CONFIGS / name) for name in GOLDEN}
        cfgs["ints"] = config_from_dict(INTS_IN_FLOAT_FIELDS)
        assert sorted(cfgs) == sorted(WITH_THETA_FAST)
        assert config_hash(ExperimentConfig()) == GOLDEN["paper_defaults.json"]
        for name, cfg in cfgs.items():
            d = canonical_dict(cfg)
            assert "theta_fast_rad" not in d["pulses"]
            d["pulses"]["theta_fast_rad"] = math.pi / 2
            blob = json.dumps(d, sort_keys=True, separators=(",", ":"), default=list)
            assert hashlib.sha256(blob.encode()).hexdigest() == WITH_THETA_FAST[name], name

    def test_array_valued_fields_hash_as_lists(self):
        axis = (-100.0, -90.0)
        by_tuple = ExperimentConfig(sweep={"t_separation_ns": axis},
                                    cavity=CavityParams(g_mhz=(80.0, 113.1, 138.6)))
        by_array = ExperimentConfig(sweep={"t_separation_ns": np.array(axis)},
                                    cavity=CavityParams(g_mhz=np.array([80.0, 113.1, 138.6])))
        assert config_hash(by_array) == config_hash(by_tuple)

    def test_workers_and_output_are_not_hashed(self):
        cfg = config_from_dict({"workers": 2, "output": {"dir": "elsewhere", "format": "json"}})
        assert config_hash(cfg) == config_hash(ExperimentConfig())


NAN = float("nan")


class TestNanThroughPythonApi:
    @pytest.mark.parametrize("key", [f.name for f in dataclasses.fields(PulseConfig)])
    def test_pulse_config(self, key):
        for value in (NAN, math.inf, -math.inf):
            with pytest.raises(ConfigurationError, match=f"pulses\\.{key}"):
                PulseConfig(**{key: value})

    @pytest.mark.parametrize("cls, section, key", [
        (cls, section, f.name)
        for cls, section in ((TransmonParams, "transmon"), (SplitSpec, "transmon.split"),
                             (CavityParams, "cavity"), (GridConfig, "grid"),
                             (TomographyConfig, "tomography"), (BerryConfig, "berry"))
        for f in dataclasses.fields(cls) if f.name != "split"])
    def test_device_params(self, cls, section, key):
        # every number field, each entry of a tuple field included, names itself
        base = {"delta_split_mhz": 15.0} if cls is SplitSpec else {}
        for value in (NAN, math.inf, -math.inf):
            default = getattr(cls(**base), key)
            for v in ([default[:j] + (value,) + default[j + 1:] for j in range(len(default))]
                      if isinstance(default, tuple) else [value]):
                with pytest.raises(ConfigurationError, match=f"^{section}\\.{key} must be finite"):
                    cls(**{**base, key: v})

    @pytest.mark.parametrize("key", ["dt_ns", "sample_stride"])
    def test_grid_config(self, key):
        with pytest.raises(ConfigurationError):
            GridConfig(**{key: NAN})

    @pytest.mark.parametrize("key", ["tau_max_ns", "dtau_ns", "weight_ns", "noise_std_rel"])
    def test_tomography_config(self, key):
        with pytest.raises(ConfigurationError):
            TomographyConfig(**{key: NAN})

    def test_split_and_cavity(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(delta_split_mhz=NAN)
        with pytest.raises(ConfigurationError):
            SplitSpec(delta_split_mhz=10.0, branch_weights=(NAN, NAN))
        with pytest.raises(ConfigurationError):
            CavityParams(kappa_mhz=NAN)
        with pytest.raises(ConfigurationError):
            CavityParams(g_mhz=(80.0, NAN, 138.6))

    def test_nan_cavity_fails_before_the_run(self):
        # unchecked, a NaN eta reaches the tomography inversion as an SVD failure
        with pytest.raises(ConfigurationError, match="cavity.eta"):
            run_experiment(ExperimentConfig(experiment=Experiment.TOMOGRAPHY_TIMELINE,
                                            cavity=CavityParams(eta=NAN)))

    def test_nan_grid_fails_before_the_run(self):
        with pytest.raises(ConfigurationError):
            run_experiment(ExperimentConfig(grid=GridConfig(dt_ns=NAN)))

    @pytest.mark.parametrize("key", ["t_separation_ns", "delta01_mhz"])
    def test_nan_pulse_fails_before_the_run(self, key):
        # unchecked, a NaN separation reaches TimeGrid.n_steps and a NaN detuning fails as numerics
        with pytest.raises(ConfigurationError, match=key):
            run_experiment(ExperimentConfig(pulses=PulseConfig(**{key: NAN}),
                                            grid=GridConfig(dt_ns=0.5)))

    @pytest.mark.parametrize("values", [(NAN,), (-90.0, math.inf), np.array([-90.0, NAN])])
    def test_nan_sweep_value_fails_before_the_run(self, values):
        with pytest.raises(ConfigurationError, match="t_separation_ns"):
            run_experiment(ExperimentConfig(experiment=Experiment.SEPARATION_SWEEP,
                                            sweep={"t_separation_ns": values},
                                            grid=GridConfig(dt_ns=0.5)))


class TestTypeChecks:
    def test_ints_stay_ints_in_float_fields(self):
        cfg = config_from_dict({"pulses": {"sigma_ns": 30}})
        assert type(cfg.pulses.sigma_ns) is int

    def test_list_fields_become_float_tuples(self):
        cfg = config_from_dict({"cavity": {"g_mhz": [80, 113, 138]},
                                "transmon": {"split": {"delta_split_mhz": 15,
                                                       "branch_weights": [1, 0]}}})
        assert cfg.cavity.g_mhz == (80.0, 113.0, 138.0)
        assert all(type(g) is float for g in cfg.cavity.g_mhz)
        assert cfg.transmon.split.branch_weights == (1.0, 0.0)

    def test_optional_fields_accept_null(self):
        cfg = config_from_dict({"transmon": {"split": None},
                                "pulses": {"reversal_spacing_ns": None},
                                "cavity": {"f_meas_mhz": None}})
        assert cfg == ExperimentConfig()

    def test_parsed_sections_match_direct_construction(self):
        cfg = config_from_dict({
            "experiment": "split_map", "seed": 7, "dissipative": False, "workers": 2,
            "transmon": {"f01_mhz": 5000.0, "split": {"delta_split_mhz": 15.0}},
            "tomography": {"decoherence_corrected_refs": True},
            "berry": {"theta_rad": 0.5},
            "sweep": {"theta_fast_rad": [0, 1]},
        })
        assert cfg.transmon == TransmonParams(f01_mhz=5000.0, split=SplitSpec(15.0))
        assert cfg.tomography == TomographyConfig(decoherence_corrected_refs=True)
        assert cfg.berry == BerryConfig(theta_rad=0.5)
        assert cfg.sweep == {"theta_fast_rad": (0.0, 1.0)}
        assert (cfg.seed, cfg.dissipative, cfg.workers) == (7, False, 2)

    @pytest.mark.parametrize("data, key", [
        ({"dissipative": 1}, "dissipative"),
        ({"workers": 2.0}, "workers"),
        ({"pulses": {"sigma_ns": True}}, "pulses.sigma_ns"),
        ({"pulses": {"sigma_ns": "45"}}, "pulses.sigma_ns"),
        ({"tomography": {"decoherence_corrected_refs": 0}}, "tomography.decoherence_corrected_refs"),
        ({"output": {"format": None}}, "output.format"),
        ({"pulses": {"t_separation_ns": math.inf}}, "pulses.t_separation_ns"),
        ({"transmon": {"split": {"delta_split_mhz": 1.0, "branch_weights": [1.0]}}},
         "transmon.split.branch_weights"),
        ({"transmon": {"split": {}}}, "delta_split_mhz"),
        ({"sweep": None}, "sweep"),
    ])
    def test_rejected_with_the_key_named(self, data, key):
        with pytest.raises(ConfigurationError, match=key.replace(".", r"\.")):
            config_from_dict(data)

    @pytest.mark.parametrize("kwargs", [{"workers": 0}, {"seed": -1}])
    def test_experiment_config_bounds(self, kwargs):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(**kwargs)
