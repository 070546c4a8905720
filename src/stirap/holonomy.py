"""Berry phase of the dark state along (Theta, phi) control paths.

gamma = -integral of sin^2(Theta) dphi along the path, in closed form on
each piecewise-linear segment, and a brute-force oracle that propagates
the Schrodinger equation with the batch kernel and reads the phase picked
up relative to the instantaneous dark state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Tuple

import numpy as np

from ._batch import evolve
from .errors import ConfigurationError, NumericalError
from .hamiltonian import TransmonParams, dark_state
from .lindblad import TimeGrid
from .pulses import GaussianPulse, PhaseRamp, PulseSequence, Transition, global_adiabaticity_metric
from .units import TWO_PI


@dataclass(frozen=True)
class ParameterPath:
    """Sampled control path (t, Theta, phi); phi is unwrapped on entry."""

    samples: np.ndarray  # (n, 3) columns t_ns, theta_rad, phi_rad

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3 or s.shape[0] < 2:
            raise ConfigurationError("path needs at least two (t, theta, phi) samples")
        if np.any(np.diff(s[:, 0]) <= 0):
            raise ConfigurationError("path times must be strictly increasing")
        if np.any(s[:, 1] < -1e-9) or np.any(s[:, 1] > math.pi / 2 + 1e-9):
            raise ConfigurationError("theta must lie in [0, pi/2]")
        s = s.copy()
        s[:, 2] = np.unwrap(s[:, 2])
        s.flags.writeable = False
        object.__setattr__(self, "samples", s)


@dataclass(frozen=True)
class PhaseResult:
    gamma_berry: float
    gamma_oracle: float
    mismatch: float
    leakage: float


def wrap_angle(x: float) -> float:
    """Wrap to (-pi, pi]."""
    return float(-((-x + math.pi) % TWO_PI - math.pi))


def berry_phase(path: ParameterPath) -> float:
    """-integral of sin^2(Theta) dphi along the piecewise-linear path.

    Exact per segment: with Theta linear from a to b, the mean of sin^2 is
    (1 - cos(a + b) sinc((b - a)/pi))/2, np.sinc being exact at b = a.
    """
    theta, phi = path.samples[:, 1], path.samples[:, 2]
    mean_s2 = 0.5 * (1.0 - np.cos(theta[:-1] + theta[1:]) * np.sinc(np.diff(theta) / math.pi))
    return float(-np.sum(mean_s2 * np.diff(phi)))


def realized_path(seq: PulseSequence, times: np.ndarray) -> ParameterPath:
    """The (Theta, phi) trajectory a sequence traces out.

    Theta = atan2(Omega01, Omega12) from the envelope magnitudes and
    phi = phi12 - phi01 from the complex amplitude arguments, unwrapped.
    """
    a01 = seq.complex_amplitude(Transition.T01, times)
    a12 = seq.complex_amplitude(Transition.T12, times)
    theta = np.arctan2(np.abs(a01), np.abs(a12))
    phi12 = np.unwrap(-np.angle(a12))
    phi01 = np.unwrap(-np.angle(a01))
    return ParameterPath(np.column_stack([times, theta, phi12 - phi01]))


def check_oracle_preconditions(seq: PulseSequence, metric_threshold: float) -> None:
    """Raise NumericalError unless both drive detunings are within 1e-12
    rad/ns of zero and the global adiabaticity metric exceeds metric_threshold
    (stricter than transfer runs; phase errors are more sensitive)."""
    if abs(seq.delta01) > 1e-12 or abs(seq.delta12) > 1e-12:
        raise NumericalError("phase oracle needs zero drive detunings")
    metric = global_adiabaticity_metric(seq).global_metric
    if metric <= metric_threshold:
        raise NumericalError(f"global adiabaticity metric {metric:.2f} <= {metric_threshold}")


def adiabatic_phase_oracle(seq: PulseSequence, params: TransmonParams, grid: TimeGrid,
                           metric_threshold: float) -> Tuple[float, float]:
    """Propagate the dark state and return (geometric phase, leakage).

    Requires check_oracle_preconditions.  The dark state has an exact 0 on
    |1> and, with both detunings within 1e-12 rad/ns, energy <D|H|D> of at
    most 2e-12 rad/ns, so the dynamical phase along it, at most 2e-12 times
    the window length in ns, is not subtracted.  Leakage above 1%
    invalidates the oracle.
    """
    check_oracle_preconditions(seq, metric_threshold)

    def dark(t):
        return dark_state(seq.complex_amplitude(Transition.T01, t),
                          seq.complex_amplitude(Transition.T12, t))

    sim = evolve(seq, params, grid, dissipative=False, rho0=dark(grid.t_start))
    psi = sim.states[0]
    psi = psi / np.sqrt((np.abs(psi) ** 2).sum(axis=1))[:, None]
    overlaps = np.einsum("ij,ij->i", dark(sim.times).conj(), psi)

    leakage = float(1.0 - np.abs(overlaps[-1]) ** 2)
    if leakage > 0.01:
        raise NumericalError(f"dark-state leakage {leakage:.4f} exceeds 1%; oracle invalid")
    phase_series = np.unwrap(np.angle(overlaps))
    return float(phase_series[-1] - phase_series[0]), leakage


def plateau_phase_sequence(theta: float, phi_total: float, sigma: float, omega_rms: float,
                           ramp_span: float) -> PulseSequence:
    """Fully overlapped pulse pair holding Theta fixed while phi12 winds.

    Both envelopes share the same Gaussian so tan(Theta) is constant in
    time; the 1-2 drive phase ramps by phi_total across the central
    ramp_span where the envelopes are strong, which keeps the winding
    adiabatic.  omega_rms sets sqrt(Omega01^2 + Omega12^2) at the peak.
    The protocol's path is config.BerryConfig's (omega_rms here in rad/ns).
    """
    if not 0.0 <= theta <= math.pi / 2:
        raise ConfigurationError("theta must lie in [0, pi/2]")
    ramp = PhaseRamp(-ramp_span / 2.0, ramp_span / 2.0, phi_total)
    om01 = omega_rms * math.sin(theta)
    om12 = omega_rms * math.cos(theta)
    p01 = GaussianPulse(Transition.T01, om01, 0.0, sigma)
    p12 = GaussianPulse(Transition.T12, om12, 0.0, sigma, phase_ramp=ramp)
    return PulseSequence((p12, p01))


def berry_vs_oracle(seq: PulseSequence, params: TransmonParams, grid: TimeGrid,
                    metric_threshold: float) -> PhaseResult:
    """Compare the path integral against the propagation oracle."""
    gamma_o, leakage = adiabatic_phase_oracle(seq, params, grid, metric_threshold)
    half = replace(grid, sample_stride=max(1, grid.sample_stride // 2))
    path = realized_path(seq, grid.times[half.sample_steps])
    gamma_b = berry_phase(path)
    return PhaseResult(
        gamma_berry=gamma_b,
        gamma_oracle=gamma_o,
        mismatch=abs(wrap_angle(gamma_b - gamma_o)),
        leakage=leakage,
    )
