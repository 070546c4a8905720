import math

import numpy as np
import pytest

from stirap.config import Experiment, ExperimentConfig, GridConfig
from stirap.experiments import _EXPERIMENTS
from stirap.hamiltonian import SplitSpec, TransmonParams
from stirap.pulses import SequenceKind, build_sequence
from stirap.units import mhz_to_rad_ns

OMEGA01 = mhz_to_rad_ns(43.4)
OMEGA12 = mhz_to_rad_ns(38.2)
SIGMA = 45.0
T_SEP = -90.0


@pytest.fixture(scope="session")
def device_params():
    return TransmonParams()


@pytest.fixture(scope="session")
def stirap_sequence():
    return build_sequence(SequenceKind.STIRAP, omega01=OMEGA01, omega12=OMEGA12,
                          sigma=SIGMA, t_s=T_SEP)


# two values of each sweep axis, so each sweep runs a few cells
SMALL_AXES = {"t_separation_ns": (-90.0, -60.0), "detuning_sum_mhz": (-1.0, 1.0),
              "detuning_diff_mhz": (0.0, 2.0), "theta_fast_rad": (0.0, math.pi / 2)}


@pytest.fixture(scope="session")
def small_config():
    """A quick config of each experiment: dt 0.5 ns and a few cells."""
    def make(experiment: Experiment) -> ExperimentConfig:
        _, axes, split, _ = _EXPERIMENTS[experiment]
        return ExperimentConfig(experiment=experiment, grid=GridConfig(dt_ns=0.5, sample_stride=20),
                                sweep={name: SMALL_AXES[name] for name in axes},
                                transmon=TransmonParams(split=SplitSpec(15.0) if split else None))
    return make


@pytest.fixture()
def rng():
    return np.random.default_rng(20160212)
