"""Gaussian drive envelopes, canonical pulse sequences, the adiabaticity metric.

All amplitudes/detunings are angular frequencies in rad/ns, times in ns.
A sequence evaluates to simultaneous complex drive amplitudes on the 0-1
and 1-2 transitions; the complex amplitude convention is
A(t) = Omega(t) * exp(-i*phi(t)).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, InvalidPulseError
from .units import TWO_PI

WINDOW_SIGMAS = 4.0  # envelope < 3.4e-4 of peak beyond this


class Transition(enum.Enum):
    T01 = "01"
    T12 = "12"


class SequenceKind(enum.Enum):
    STIRAP = "stirap"
    HYBRID = "hybrid"
    REVERSAL = "reversal"


@dataclass(frozen=True)
class PhaseRamp:
    """Additive phase ramp: 0 before t_start, phi_total after t_end.

    Uses the C2 smootherstep profile 6x^5 - 15x^4 + 10x^3, whose
    continuous derivative endpoints keep a winding drive phase from
    exciting diabatic transitions at the ramp edges.
    """

    t_start_ns: float
    t_end_ns: float
    phi_total_rad: float

    def __post_init__(self):
        if not self.t_end_ns > self.t_start_ns:
            raise InvalidPulseError("phase ramp needs t_end > t_start")

    def value(self, t):
        x = np.clip((np.asarray(t, dtype=float) - self.t_start_ns)
                    / (self.t_end_ns - self.t_start_ns), 0.0, 1.0)
        return self.phi_total_rad * x * x * x * (x * (6.0 * x - 15.0) + 10.0)


@dataclass(frozen=True)
class GaussianPulse:
    transition: Transition
    amplitude: float  # peak Omega, rad/ns
    center_ns: float
    sigma_ns: float
    phase: float = 0.0  # rad
    phase_ramp: Optional[PhaseRamp] = None

    def __post_init__(self):
        if self.sigma_ns <= 0:
            raise InvalidPulseError(f"sigma must be positive, got {self.sigma_ns}")
        if self.amplitude < 0:
            raise InvalidPulseError(f"amplitude must be nonnegative, got {self.amplitude}")

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        return self.amplitude * np.exp(-((t - self.center_ns) ** 2) / (2.0 * self.sigma_ns**2))

    def phase_at(self, t):
        return self.phase if self.phase_ramp is None else self.phase + self.phase_ramp.value(t)

    @property
    def window(self):
        return (self.center_ns - WINDOW_SIGMAS * self.sigma_ns,
                self.center_ns + WINDOW_SIGMAS * self.sigma_ns)


@dataclass(frozen=True)
class FastPulse:
    """Rectangular pulse of area theta: Omega = theta / duration."""

    transition: Transition
    theta_rad: float
    duration_ns: float
    start_ns: float
    phase: float = 0.0

    def __post_init__(self):
        if self.duration_ns <= 0:
            raise InvalidPulseError(f"fast-pulse duration must be positive, got {self.duration_ns}")
        if self.theta_rad < 0:
            raise InvalidPulseError(f"fast-pulse angle must be nonnegative, got {self.theta_rad}")

    @property
    def amplitude(self) -> float:
        return self.theta_rad / self.duration_ns

    def envelope(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t >= self.start_ns) & (t < self.start_ns + self.duration_ns)
        return np.where(inside, self.amplitude, 0.0)

    def phase_at(self, t):
        return self.phase

    @property
    def window(self):
        return (self.start_ns, self.start_ns + self.duration_ns)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered pulses and each transition's drive detuning, rad/ns.

    Every pulse on a transition shares that transition's rotating frame;
    the evaluation window is the union of the pulses' windows.
    """

    pulses: tuple
    delta01: float = 0.0
    delta12: float = 0.0

    def __post_init__(self):
        if not self.pulses:
            raise ConfigurationError("sequence needs at least one pulse")

    @property
    def window(self):
        return (min(p.window[0] for p in self.pulses), max(p.window[1] for p in self.pulses))

    def pulses_on(self, transition: Transition):
        return [p for p in self.pulses if p.transition is transition]

    def detuning(self, transition: Transition) -> float:
        return self.delta01 if transition is Transition.T01 else self.delta12

    def complex_amplitude(self, transition: Transition, t):
        """Sum of Omega_p(t) exp(-i phi_p(t)) over the transition's pulses; a constant phase is one exp."""
        t = np.asarray(t, dtype=float)
        total = np.zeros(t.shape, dtype=complex)
        for p in self.pulses_on(transition):
            total = total + p.envelope(t) * np.exp(-1j * p.phase_at(t))
        return total

    def envelope(self, transition: Transition, t):
        """Sum of the transition's real envelopes Omega_p(t)."""
        t = np.asarray(t, dtype=float)
        env = np.zeros(t.shape, dtype=float)
        for p in self.pulses_on(transition):
            env = env + p.envelope(t)
        return env

    def gaussian_centers(self, transition: Transition):
        return [p.center_ns for p in self.pulses_on(transition) if isinstance(p, GaussianPulse)]


def two_pulse_sequence(
    omega01: float,
    omega12: float,
    sigma: float,
    t_s: float,
    delta01: float = 0.0,
    delta12: float = 0.0,
    phi01: float = 0.0,
    phi12: float = 0.0,
    phase_ramp12: Optional[PhaseRamp] = None,
) -> PulseSequence:
    """Two Gaussians placed symmetrically: 12-peak at t_s/2, 01-peak at -t_s/2.

    No sign policy; build_sequence enforces the kind-specific convention.
    """
    p12 = GaussianPulse(Transition.T12, omega12, t_s / 2.0, sigma,
                        phase=phi12, phase_ramp=phase_ramp12)
    p01 = GaussianPulse(Transition.T01, omega01, -t_s / 2.0, sigma, phase=phi01)
    pulses = (p12, p01) if t_s <= 0 else (p01, p12)
    return PulseSequence(pulses, delta01, delta12)


def build_sequence(
    kind: SequenceKind,
    *,
    omega01: float,
    omega12: float,
    sigma: float,
    t_s: float,
    delta01: float = 0.0,
    delta12: float = 0.0,
    phi01: float = 0.0,
    phi12: float = 0.0,
    theta_fast: Optional[float] = None,
    fast_duration: float = 10.0,
    reversal_spacing: Optional[float] = None,
    phase_ramp12: Optional[PhaseRamp] = None,
) -> PulseSequence:
    """Canonical sequences: STIRAP, HYBRID, REVERSAL."""
    if kind in (SequenceKind.STIRAP, SequenceKind.HYBRID) and t_s > 0:
        raise ConfigurationError(f"{kind.name} needs t_s <= 0 (12 pulse first), got {t_s}")

    if kind is SequenceKind.STIRAP:
        return two_pulse_sequence(omega01, omega12, sigma, t_s, delta01, delta12,
                                  phi01, phi12, phase_ramp12)

    if kind is SequenceKind.HYBRID:
        if theta_fast is None:
            raise ConfigurationError("HYBRID needs theta_fast")
        pair = two_pulse_sequence(omega01, omega12, sigma, t_s, delta01, delta12, phi01, phi12)
        fast = FastPulse(Transition.T01, theta_fast, fast_duration,
                         start_ns=pair.window[0] - fast_duration, phase=phi01)
        return PulseSequence((fast,) + pair.pulses, delta01, delta12)

    if kind is SequenceKind.REVERSAL:
        d = abs(t_s) if reversal_spacing is None else reversal_spacing
        if d <= 0:
            raise ConfigurationError("REVERSAL needs a positive pulse spacing")
        p12a = GaussianPulse(Transition.T12, omega12, -d, sigma, phase=phi12)
        p01 = GaussianPulse(Transition.T01, omega01, 0.0, sigma, phase=phi01)
        p12b = GaussianPulse(Transition.T12, omega12, +d, sigma, phase=phi12)
        return PulseSequence((p12a, p01, p12b), delta01, delta12)

    raise ConfigurationError(f"unknown sequence kind {kind!r}")


@dataclass(frozen=True)
class AdiabaticityReport:
    global_metric: float  # (4/sqrt(pi)) sigma Omega, Omega in cycles/ns
    pulse_area_integral: float  # integral of sqrt(O01^2 + O12^2) dt, rad
    area_lower: float  # analytic t_s = 0 endpoint, 2 sqrt(pi) sigma Omega
    area_upper: float  # analytic t_s -> inf endpoint, 2 sqrt(2 pi) sigma Omega


def rms_envelope_integral(seq: PulseSequence, points_per_sigma: int = 1000) -> float:
    """Trapezoid integral of sqrt(Omega01^2 + Omega12^2) dt.

    Integrates over the window extended by 2 sigma on each side, so the
    Gaussian mass is captured to ~2e-9 relative (the bare +-4 sigma window
    truncates at the 6e-5 level, too coarse for the endpoint checks).
    """
    sigmas = [p.sigma_ns for p in seq.pulses if isinstance(p, GaussianPulse)]
    pad = 2.0 * max(sigmas) if sigmas else 0.0
    lo, hi = seq.window[0] - pad, seq.window[1] + pad
    step = min(sigmas) / points_per_sigma if sigmas else (hi - lo) / 1e5
    n = int(math.ceil((hi - lo) / step)) + 1
    t = np.linspace(lo, hi, n)
    o01, o12 = seq.envelope(Transition.T01, t), seq.envelope(Transition.T12, t)
    return float(np.trapezoid(np.sqrt(o01**2 + o12**2), t))


def global_adiabaticity_metric(seq: PulseSequence) -> AdiabaticityReport:
    """(4/sqrt(pi)) * sigma * Omega, with Omega the geometric mean amplitude.

    Omega is the ordinary frequency Omega/2pi in cycles/ns, the reading
    that reproduces the headline safety factor of ~4 at the calibrated
    drive parameters.  Also integrates sqrt(Omega01^2+Omega12^2) dt and
    reports the analytic equal-amplitude endpoints
    [2 sqrt(pi) s O, 2 sqrt(2 pi) s O] it must bracket.
    """
    gaussians = [p for p in seq.pulses if isinstance(p, GaussianPulse)]
    if len(gaussians) != 2 or len(seq.pulses) != 2:
        raise ConfigurationError("global adiabaticity metric needs exactly two Gaussian pulses")
    omega_geo = math.sqrt(gaussians[0].amplitude * gaussians[1].amplitude)
    sigma_geo = math.sqrt(gaussians[0].sigma_ns * gaussians[1].sigma_ns)
    metric = (4.0 / math.sqrt(math.pi)) * sigma_geo * (omega_geo / TWO_PI)

    integral = rms_envelope_integral(seq)
    lower = 2.0 * math.sqrt(math.pi) * sigma_geo * omega_geo
    upper = 2.0 * math.sqrt(TWO_PI) * sigma_geo * omega_geo
    return AdiabaticityReport(metric, integral, lower, upper)
