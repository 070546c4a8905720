"""Device parameters, the dark state and dispersive shifts.

The transmon fixes the level count: three levels, or four when its
intermediate level is split (TransmonParams.split).  Drive phases enter
through complex amplitudes A = Omega * exp(-i*phi) placed on the middle
row of the rotating-frame Hamiltonian (the |1><0| and |1><2| couplings),
which is the convention under which the dark state is
cos(Theta)|0> - sin(Theta) exp(i*(phi12-phi01))|2> and H|D> = 0 at
two-photon resonance.  The batch kernel assembles that Hamiltonian from
its coupling list; the dense 3- and 4-level matrices the tests check it
against live in tests/oracles.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NonDispersiveError, UndefinedFrameError
from .units import mhz_to_rad_ns, rate_mhz_to_per_ns


def require_finite(params, section: str) -> None:
    """Reject NaN and +-inf in every number field of a dataclass, tuple entries included."""
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None and not is_dataclass(value) and not np.isfinite(np.asarray(value, dtype=float)).all():
            raise ConfigurationError(f"{section}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SplitSpec:
    """Quasi-degenerate intermediate level: |1> split into |1a>, |1b>.

    Levels sit symmetrically at +-delta_split/2 around the nominal |1>;
    branch_weights scale both drive couplings into each branch.
    """

    delta_split_mhz: float
    branch_weights: Tuple[float, float] = (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0))

    def __post_init__(self):
        require_finite(self, "transmon.split")
        if not self.delta_split_mhz >= 0:
            raise ConfigurationError("delta_split must be nonnegative")
        wa, wb = self.branch_weights
        if not abs(wa * wa + wb * wb - 1.0) <= 1e-9:
            raise ConfigurationError("branch weights must satisfy wa^2 + wb^2 = 1")


@dataclass(frozen=True)
class TransmonParams:
    """Measured transmon parameters, in the units the lab quotes them.

    Transition frequencies are Lamb-shift renormalized ordinary
    frequencies (omega_tilde / 2pi, MHz); decay/dephasing rates are plain
    rates in MHz (1e6 events per second, no 2pi).
    """

    f01_mhz: float = 5270.0
    f12_mhz: float = 4820.0
    gamma10_mhz: float = 2.4
    gamma21_mhz: float = 5.2
    gamma_phi10_mhz: float = 0.4
    gamma_phi21_mhz: float = 0.4
    split: Optional[SplitSpec] = None

    def __post_init__(self):
        require_finite(self, "transmon")
        for name in ("gamma10_mhz", "gamma21_mhz", "gamma_phi10_mhz", "gamma_phi21_mhz"):
            if not getattr(self, name) >= 0:
                raise ConfigurationError(f"{name} must be nonnegative")
        if not self.f01_mhz > self.f12_mhz:
            raise ConfigurationError("need f01 > f12 (negative anharmonicity)")

    @property
    def branches(self) -> Tuple[Tuple[float, float], ...]:
        """(energy offset in rad/ns, coupling weight) per level between |0> and |2>:
        |1> alone, or the split |1a>, |1b> at -+delta_split/2 with the branch weights."""
        if self.split is None:
            return ((0.0, 1.0),)
        half = mhz_to_rad_ns(self.split.delta_split_mhz) / 2.0
        wa, wb = self.split.branch_weights
        return ((-half, wa), (half, wb))

    @property
    def n_levels(self) -> int:
        """3, or 4 with the intermediate level split into |1a>, |1b>."""
        return len(self.branches) + 2

    @property
    def gamma10(self) -> float:
        """Relaxation rate 1->0 in 1/ns."""
        return rate_mhz_to_per_ns(self.gamma10_mhz)

    @property
    def gamma21(self) -> float:
        return rate_mhz_to_per_ns(self.gamma21_mhz)

    @property
    def gamma_phi10(self) -> float:
        return rate_mhz_to_per_ns(self.gamma_phi10_mhz)

    @property
    def gamma_phi21(self) -> float:
        return rate_mhz_to_per_ns(self.gamma_phi21_mhz)


def dark_state(a01, a12) -> np.ndarray:
    """Dark state cos(Theta)|0> - sin(Theta) exp(i*phi)|2> of the drive amplitudes.

    Theta = atan2(|A01|, |A12|) and phi = phi12 - phi01 with A = Omega exp(-i phi),
    so the |0> component is real.  Amplitude arrays give one state per sample,
    shape a01.shape + (3,).  It is the zero-energy eigenvector of the
    rotating-frame Hamiltonian at two-photon resonance, and it has no |1>
    component.  A sample with both amplitudes 0 raises UndefinedFrameError.
    """
    a01, a12 = np.broadcast_arrays(np.asarray(a01, dtype=complex), np.asarray(a12, dtype=complex))
    off = np.flatnonzero((a01 == 0) & (a12 == 0))
    if off.size:
        raise UndefinedFrameError(f"dark state undefined with both drives off (sample {off[0]})")
    theta = np.arctan2(np.abs(a01), np.abs(a12))
    dark = np.zeros(a01.shape + (3,), dtype=complex)
    dark[..., 0] = np.cos(theta)
    dark[..., 2] = -np.sin(theta) * np.exp(1j * (np.angle(a01) - np.angle(a12)))
    return dark


@dataclass(frozen=True)
class CavityParams:
    """Readout cavity model parameters, ordinary frequencies in MHz."""

    f_res_mhz: float = 7000.0
    kappa_mhz: float = 1.0
    g_mhz: Tuple[float, ...] = (80.0, 113.1, 138.6)
    epsilon_mhz: float = 0.1
    eta: float = 1.0
    f_meas_mhz: Optional[float] = None

    def __post_init__(self):
        require_finite(self, "cavity")
        if not self.kappa_mhz > 0:
            raise ConfigurationError("cavity linewidth kappa must be positive")
        if not all(g >= 0 for g in self.g_mhz):
            raise ConfigurationError("couplings g must be nonnegative")

    @property
    def f_meas(self) -> float:
        return self.f_res_mhz if self.f_meas_mhz is None else self.f_meas_mhz


@dataclass(frozen=True)
class DispersiveShifts:
    """chi_{j,j+1} = g^2 / (omega_{j,j+1} - omega_res), all in MHz.

    pulls_mhz[j] is the cavity frequency shift with the transmon in |j>,
    relative to the transmon-in-|0> cavity line:
    pull_j = chi_{j-1,j} + chi_{0,1} - chi_{j,j+1}, pull_0 = 0.
    """

    chi_mhz: Tuple[float, ...]
    pulls_mhz: Tuple[float, ...]


def dispersive_shifts(cav: CavityParams, bare_transitions_mhz: Sequence[float]) -> DispersiveShifts:
    transitions = tuple(bare_transitions_mhz)
    gs = cav.g_mhz[: len(transitions)]
    if len(gs) < len(transitions):
        raise ConfigurationError("need one coupling g per transition")
    chis = []
    for g, f in zip(gs, transitions):
        delta = f - cav.f_res_mhz
        if abs(delta) < 10.0 * g:
            raise NonDispersiveError(
                f"transition at {f} MHz too close to cavity: |Delta| = {abs(delta):.1f} < 10 g"
            )
        chis.append(g * g / delta)
    pulls = [0.0]
    for j in range(1, len(transitions) + 1):
        chi_below = chis[j - 1]
        chi_above = chis[j] if j < len(chis) else 0.0
        pulls.append(chi_below + chis[0] - chi_above)
    return DispersiveShifts(chi_mhz=tuple(chis), pulls_mhz=tuple(pulls))
