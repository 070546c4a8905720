"""The Lindblad master equation: dissipators, time grid and step guard.

drho/dt = -i[H(t), rho] + sum_k rate_k * (L rho L^dag - {L^dag L, rho}/2)

The dissipator enters the batch kernel as the superoperator of a
LindbladSpec.  The one integrator is the fixed-step RK4 of _batch, which
runs a sweep (run_batch) or one cell (evolve); the dense right-hand side
the tests check it against lives in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .core import sigma_op
from .errors import ConfigurationError
from .hamiltonian import TransmonParams
from .pulses import GaussianPulse, PulseSequence


@dataclass(frozen=True)
class Jump:
    operator: np.ndarray
    rate: float  # 1/ns

    def __post_init__(self):
        if self.rate < 0:
            raise ConfigurationError(f"jump rate must be nonnegative, got {self.rate}")
        op = np.asarray(self.operator, dtype=complex)
        if op.ndim != 2 or op.shape[0] != op.shape[1]:
            raise ConfigurationError("jump operator must be square")
        object.__setattr__(self, "operator", op)


@dataclass(frozen=True)
class LindbladSpec:
    jumps: Tuple[Jump, ...]

    def __post_init__(self):
        dims = {j.operator.shape[0] for j in self.jumps}
        if len(dims) > 1:
            raise ConfigurationError("jump operators disagree on dimension")

    def superoperator(self, dim: int) -> np.ndarray:
        """Dissipator as a matrix acting on the row-major vec of rho."""
        d2 = dim * dim
        eye = np.eye(dim, dtype=complex)
        sup = np.zeros((d2, d2), dtype=complex)
        for j in self.jumps:
            if j.rate == 0.0:
                continue
            ll = j.operator
            lld = ll.conj().T @ ll
            sup += j.rate * (
                np.kron(ll, ll.conj())
                - 0.5 * (np.kron(lld, eye) + np.kron(eye, lld.T))
            )
        return sup


def build_dissipators(params: TransmonParams, dim: int = 3) -> LindbladSpec:
    """Relaxation and pure-dephasing jumps for the 3- or 4-level transmon.

    Relaxation uses the standard lowering operators |0><1| (rate G10) and
    |1><2| (rate G21); pure dephasing uses the level projectors |1><1|
    and |2><2| at twice the measured dephasing rates, so that the 0-1
    coherence decays at gamma_phi10.  In the 4-level split system both
    intermediate branches receive the |1>-type jumps, with the relaxation
    rates scaled by the squared branch weights so the decoupled-branch
    limit reproduces the 3-level dynamics exactly.
    """
    jumps: List[Jump] = []
    if dim == 3:
        jumps.append(Jump(sigma_op(0, 1, 3), params.gamma10))
        jumps.append(Jump(sigma_op(1, 2, 3), params.gamma21))
        jumps.append(Jump(sigma_op(1, 1, 3), 2.0 * params.gamma_phi10))
        jumps.append(Jump(sigma_op(2, 2, 3), 2.0 * params.gamma_phi21))
    elif dim == 4:
        if params.split is None:
            raise ConfigurationError("4-level dissipators need a split spec")
        wa, wb = params.split.branch_weights
        jumps.append(Jump(sigma_op(0, 1, 4), wa * wa * params.gamma10))
        jumps.append(Jump(sigma_op(0, 2, 4), wb * wb * params.gamma10))
        jumps.append(Jump(sigma_op(1, 3, 4), wa * wa * params.gamma21))
        jumps.append(Jump(sigma_op(2, 3, 4), wb * wb * params.gamma21))
        jumps.append(Jump(sigma_op(1, 1, 4), 2.0 * params.gamma_phi10))
        jumps.append(Jump(sigma_op(2, 2, 4), 2.0 * params.gamma_phi10))
        jumps.append(Jump(sigma_op(3, 3, 4), 2.0 * params.gamma_phi21))
    else:
        raise ConfigurationError(f"unsupported dimension {dim}")
    return LindbladSpec(jumps=tuple(j for j in jumps if j.rate > 0.0))


@dataclass(frozen=True)
class TimeGrid:
    t_start: float
    t_end: float
    dt: float = 0.1
    sample_stride: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.sample_stride < 1:
            raise ConfigurationError("sample_stride must be >= 1")
        if (self.t_end - self.t_start) / self.dt < 10:
            raise ConfigurationError("grid too coarse: need at least 10 steps")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t_start) / self.dt - 1e-12)))

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)


def _min_sigma(seq: PulseSequence) -> Optional[float]:
    sigmas = [p.sigma_ns for p in seq.pulses if isinstance(p, GaussianPulse)]
    return min(sigmas) if sigmas else None


def check_step(seq: PulseSequence, grid: TimeGrid) -> None:
    """Reject a grid step coarser than sigma/50 of the narrowest Gaussian pulse."""
    sig = _min_sigma(seq)
    if sig is not None and grid.dt > sig / 50.0 + 1e-12:
        raise ConfigurationError(
            f"dt = {grid.dt} too coarse for sigma = {sig} ns (need dt <= sigma/50)"
        )

