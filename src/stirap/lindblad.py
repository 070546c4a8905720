"""The Lindblad master equation: the dissipator, time grid and step guard.

drho/dt = -i[H(t), rho] + sum_k rate_k * (L rho L^dag - {L^dag L, rho}/2)

The dissipator enters the batch kernel as the transmon's loss channels,
each a jump |i><j| and its rate, on d levels (TransmonParams.n_levels).
The one integrator is the fixed-step RK4 of _batch, which runs a sweep
(run_batch) or one cell (evolve); the dense right-hand side and jump
operators the tests check it against live in tests/oracles.py.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import TransmonParams
from .pulses import FastPulse, GaussianPulse, PulseSequence


def dissipator(params: TransmonParams) -> Tuple[Tuple[int, int, float], ...]:
    """The 3- or 4-level transmon's loss channels (i, j, rate), each the jump
    L = |i><j| at rate 1/ns, rate > 0.  Relaxation lowers |1> -> |0> (rate G10) and
    |2> -> |1> (rate G21); pure dephasing uses the level projectors |1><1|
    and |2><2| at twice the measured dephasing rates, so that the 0-1
    coherence decays at gamma_phi10.  Every intermediate level of
    params.branches (|1>, or |1a> and |1b> in the split system
    {|0>, |1a>, |1b>, |2>}) receives the |1>-type channels, with the
    relaxation rates scaled by its squared weight, so the decoupled-branch
    limit reproduces the 3-level dynamics exactly.
    """
    top, levels = params.n_levels - 1, list(enumerate(params.branches, start=1))
    channels = ([(0, i, w * w * params.gamma10) for i, (_, w) in levels]
                + [(i, top, w * w * params.gamma21) for i, (_, w) in levels]
                + [(i, i, 2.0 * params.gamma_phi10) for i, _ in levels]
                + [(top, top, 2.0 * params.gamma_phi21)])
    return tuple(c for c in channels if c[2] > 0.0)


# The most steps a TimeGrid, samples a tomography tau axis, values a sweep
# range or cells a sweep may hold
MAX_POINTS = 1_000_000
# The most (cell, sample) rows of populations a sweep that keeps every cell's
# series may hold: 240 MB per copy, and a table of about 400 MB
MAX_SERIES_ROWS = 10_000_000


@dataclass(frozen=True)
class TimeGrid:
    """Steps of dt ns from t_start to t_end, every sample_stride-th one sampled;
    the protocol's dt and stride are config.GridConfig.dt_ns and .sample_stride."""

    t_start: float
    t_end: float
    dt: float
    sample_stride: int

    def __post_init__(self):
        # phrased so that NaN fails every check
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ConfigurationError(f"grid bounds must be finite, got [{self.t_start}, {self.t_end}]")
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"dt must be positive and finite, got {self.dt}")
        if not (isinstance(self.sample_stride, numbers.Integral) and self.sample_stride >= 1):
            raise ConfigurationError(f"sample_stride must be an integer >= 1, got {self.sample_stride!r}")
        steps = (self.t_end - self.t_start) / self.dt
        if not 10 <= steps <= MAX_POINTS:
            raise ConfigurationError(f"grid needs between 10 and {MAX_POINTS} steps, got {steps:.10g} "
                                     f"(dt = {self.dt!r} ns on [{self.t_start!r}, {self.t_end!r}] ns)")

    @property
    def n_steps(self) -> int:
        return max(1, int(math.ceil((self.t_end - self.t_start) / self.dt - 1e-12)))

    @property
    def times(self) -> np.ndarray:
        return self.t_start + self.dt * np.arange(self.n_steps + 1)

    @property
    def sample_steps(self) -> np.ndarray:
        """The sampled steps: 0, sample_stride, 2 sample_stride, ... and n_steps."""
        # a stride past n_steps samples as n_steps does, and past int64 numpy cannot step by it
        return np.append(np.arange(0, self.n_steps, min(self.sample_stride, self.n_steps)), self.n_steps)


def check_step(seq: PulseSequence, grid: TimeGrid) -> List[int]:
    """Reject a grid step coarser than sigma/50 of the narrowest Gaussian
    pulse, and a FastPulse edge inside the grid that is not within 1e-9 ns
    of a grid point (a step would integrate through it); returns the steps
    k, 0 < k <= n_steps, whose grid point is a FastPulse edge."""
    sig = min((p.sigma_ns for p in seq.pulses if isinstance(p, GaussianPulse)), default=None)
    if sig is not None and grid.dt > sig / 50.0 + 1e-12:
        raise ConfigurationError(
            f"dt = {grid.dt} too coarse for sigma = {sig} ns (need dt <= sigma/50)"
        )
    steps = set()
    for p in seq.pulses:
        if isinstance(p, FastPulse):
            for e in (p.start_ns, p.start_ns + p.duration_ns):
                k = round((e - grid.t_start) / grid.dt)
                if abs(grid.t_start + k * grid.dt - e) < 1e-9:
                    if 0 < k <= grid.n_steps:
                        steps.add(k)
                elif grid.t_start < e < grid.t_start + grid.n_steps * grid.dt:
                    raise ConfigurationError(
                        f"FastPulse edge at {e!r} ns falls between the points of the "
                        f"dt = {grid.dt} ns grid starting at {grid.t_start!r} ns")
    return sorted(steps)
