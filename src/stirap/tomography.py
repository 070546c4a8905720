"""Dispersive-readout tomography: synthetic homodyne traces and inversion.

Reference traces come from the classical driven-damped cavity amplitude
da/dtau = -i*Delta_j*a - (kappa/2)*a - i*eps, a(0) = 0, with the
state-dependent dispersive pull Delta_j, solved exactly (jointly with the
populations by an exact propagator when |1> and |2> relax during readout,
at any dtau).  A measured trace is a convex combination of the references
weighted by the populations; inversion is exponentially-weighted least
squares on the probability simplex, a convex QP in two variables that is
solved exactly by active-set enumeration (interior optimum, else the best
edge minimum), with no iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, SingularDesignError
from .hamiltonian import CavityParams, TransmonParams, dispersive_shifts
from .lindblad import MAX_POINTS
from .units import mhz_to_rad_ns

DEFAULT_TAU_MAX = 1500.0  # ns
DEFAULT_DTAU = 5.0  # ns
DEFAULT_WEIGHT = 700.0  # ns, exponential weighting time constant


@dataclass(frozen=True)
class ReferenceTrace:
    """Homodyne response {I(tau), Q(tau)} of one prepared transmon state."""

    taus: np.ndarray
    I: np.ndarray
    Q: np.ndarray
    state_label: int

    def __post_init__(self):
        for name in ("taus", "I", "Q"):
            a = np.ascontiguousarray(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        if not (self.taus.shape == self.I.shape == self.Q.shape):
            raise ConfigurationError("trace arrays must share one tau grid")


@dataclass(frozen=True)
class MeasuredTrace:
    taus: np.ndarray
    I: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class TomographyResult:
    p: Tuple[float, float, float]
    residual: float  # weighted RMS over I and Q samples
    iterations: int = 0  # always 0 (exact solve); kept while perfbench reads it


def _cavity_amplitude(taus: np.ndarray, delta: float, kappa: float, eps: float) -> np.ndarray:
    """Exact solution of the driven damped cavity mode, a(0) = 0."""
    pole = 1j * delta + 0.5 * kappa
    a_ss = -1j * eps / pole
    return a_ss * (1.0 - np.exp(-pole * taus))


def _ladder_transitions(trans: TransmonParams, n: int) -> List[float]:
    """Extend the measured 01/12 transitions down the anharmonic ladder."""
    anharm = trans.f12_mhz - trans.f01_mhz
    out = [trans.f01_mhz, trans.f12_mhz]
    while len(out) < n:
        out.append(out[-1] + anharm)
    return out[:n]


def check_tau_count(tau_max: float, dtau: float) -> None:
    """Reject a tau axis 0, dtau, ..., tau_max of more than MAX_POINTS samples."""
    if not tau_max / dtau <= MAX_POINTS:
        raise ConfigurationError(f"dtau = {dtau!r} ns gives {tau_max / dtau:.10g} tau samples up to "
                                 f"tau_max = {tau_max!r} ns, more than {MAX_POINTS}")


def synth_reference_traces(
    cav: CavityParams,
    trans: TransmonParams,
    tau_max: float = DEFAULT_TAU_MAX,
    dtau: float = DEFAULT_DTAU,
    decoherence_corrected: bool = False,
) -> Tuple[ReferenceTrace, ReferenceTrace, ReferenceTrace]:
    """Per-state cavity responses on a tau grid 0..tau_max.

    I = -2 eta Re<a>, Q = +2 eta Im<a>; the overall homodyne sign is part
    of the conversion factor eta.  With decoherence_corrected=True the
    |1> and |2> references include relaxation during readout: the cavity
    amplitude is propagated exactly, jointly with the decaying level
    occupations, at any dtau.
    """
    check_tau_count(tau_max, dtau)
    taus = np.arange(0.0, tau_max + dtau / 2, dtau)
    shifts = dispersive_shifts(cav, _ladder_transitions(trans, len(cav.g_mhz)))
    pulls = shifts.pulls_mhz[:3]
    if len(pulls) < 3:
        raise ConfigurationError("need couplings for at least two transitions")
    kappa = mhz_to_rad_ns(cav.kappa_mhz)
    eps = mhz_to_rad_ns(cav.epsilon_mhz)
    deltas = [mhz_to_rad_ns(cav.f_res_mhz + pull - cav.f_meas) for pull in pulls]

    traces = []
    for j in range(3):
        if decoherence_corrected and j > 0:
            amp = _decaying_state_amplitude(taus, dtau, j, deltas, kappa, eps, trans)
        else:
            amp = _cavity_amplitude(taus, deltas[j], kappa, eps)
        traces.append(
            ReferenceTrace(
                taus=taus,
                I=-2.0 * cav.eta * amp.real,
                Q=2.0 * cav.eta * amp.imag,
                state_label=j,
            )
        )
    return tuple(traces)


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): 18 Taylor terms of a / 2^s (norm <= 1/2, truncation below
    1e-22), squared s times (Moler & Van Loan, SIAM Review 45, 3 (2003))."""
    s = max(0, int(np.frexp(np.abs(a).sum(axis=1).max())[1]) + 1)
    a = a / 2.0**s
    term = out = np.eye(len(a), dtype=a.dtype)
    for k in range(1, 19):
        term = term @ a / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def _decaying_state_amplitude(taus, dtau, j, deltas, kappa, eps, trans: TransmonParams):
    """<a>(tau) for a transmon prepared in |j> that relaxes during readout.

    Tracks alpha_k = Tr[a rho |k><k|]; relaxation transfers amplitude
    weight down the ladder while each component rings up at its own pull.
    With the populations p, z = (alpha, p) obeys z' = M z, a constant
    linear system, so z steps exactly by exp(M dtau) from sample to sample.
    """
    g = np.diag([trans.gamma10, trans.gamma21], 1) - np.diag([0.0, trans.gamma10, trans.gamma21])
    m = np.block([[g - np.diag(1j * np.asarray(deltas) + 0.5 * kappa), -1j * eps * np.eye(3)],
                  [np.zeros((3, 3)), g]])
    step = _expm(m * dtau)
    z = np.eye(6, dtype=complex)[3 + j]
    out = np.zeros(taus.size, dtype=complex)
    for i in range(1, taus.size):
        z = step @ z
        out[i] = z[:3].sum()
    return out


def _check_grids(traces: Sequence) -> None:
    """Every trace (reference or measured) has I and Q on the first one's tau grid."""
    base = traces[0].taus
    for r in traces:
        if not (r.taus.shape == r.I.shape == r.Q.shape == base.shape) or not np.array_equal(r.taus, base):
            raise ConfigurationError("traces must share one tau grid")


def mix_traces(
    p: Sequence[float],
    refs: Sequence[ReferenceTrace],
    noise_std: float = 0.0,
    seed: int = 0,
) -> MeasuredTrace:
    """Convex combination of the references plus seeded Gaussian noise."""
    p = np.asarray(p, dtype=float)
    if p.shape != (3,) or np.any(p < -1e-12) or abs(p.sum() - 1.0) > 1e-9:
        raise ConfigurationError(f"populations must lie on the probability simplex, got {p}")
    _check_grids(refs)
    i_mix = sum(pj * r.I for pj, r in zip(p, refs))
    q_mix = sum(pj * r.Q for pj, r in zip(p, refs))
    if noise_std > 0.0:
        rng = np.random.default_rng(seed)
        i_mix = i_mix + rng.normal(0.0, noise_std, i_mix.size)
        q_mix = q_mix + rng.normal(0.0, noise_std, q_mix.size)
    return MeasuredTrace(taus=refs[0].taus.copy(), I=i_mix, Q=q_mix)


def trace_scale(refs: Sequence[ReferenceTrace]) -> float:
    """Full scale of the reference set: max |I|,|Q| over all traces."""
    return max(max(np.abs(r.I).max(), np.abs(r.Q).max()) for r in refs)


def design_matrix(refs: Sequence[ReferenceTrace], weight_ns: float = DEFAULT_WEIGHT) -> np.ndarray:
    """Weighted 3-column design (stacked I and Q rows), one column per state."""
    w = np.exp(-refs[0].taus / weight_ns)
    return np.column_stack([np.concatenate([w * r.I, w * r.Q]) for r in refs])


def _cost(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    r = b - a @ x
    return float(r @ r)


def _simplex_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact minimizer of ||b - A x||^2 over {x0 >= 0, x1 >= 0, x0 + x1 <= 1}.

    A convex QP in two variables: the unconstrained optimum when it is
    feasible, otherwise the best of the three edge minima, each a 1-D
    least-squares solve clamped to its edge, which covers the vertices
    (active-set enumeration; Nocedal & Wright, Numerical Optimization,
    ch. 16).  A must have full column rank.
    """
    x = np.linalg.solve(a.T @ a, a.T @ b)
    if x[0] >= 0.0 and x[1] >= 0.0 and x[0] + x[1] <= 1.0:
        return x
    edges = []
    # x = start + t * step, t in [0, 1], on x0 = 0, x1 = 0 and x0 + x1 = 1
    for start, step in (((0.0, 0.0), (0.0, 1.0)), ((0.0, 0.0), (1.0, 0.0)),
                        ((0.0, 1.0), (1.0, -1.0))):
        start, step = np.array(start), np.array(step)
        col = a @ step
        t = float(col @ (b - a @ start)) / float(col @ col)
        edges.append(start + min(max(t, 0.0), 1.0) * step)
    return min(edges, key=lambda xe: _cost(a, b, xe))


def reconstruct_populations(
    meas: MeasuredTrace,
    refs: Sequence[ReferenceTrace],
    weight_ns: float = DEFAULT_WEIGHT,
) -> TomographyResult:
    """Invert a measured trace to populations on the probability simplex.

    Minimizes sum_tau exp(-2 tau / w) * |r_meas - sum_j p_j r_j|^2 in the
    reduced coordinates (p0, p1), p2 = 1 - p0 - p1, exactly by
    ``_simplex_solve``.  Raises SingularDesignError when the weighted
    design's condition number exceeds 1e6; below that the reduced design
    has full column rank.
    """
    _check_grids([*refs, meas])
    full_design = design_matrix(refs, weight_ns)
    cond = float(np.linalg.cond(full_design))
    if cond > 1e6:
        raise SingularDesignError(f"reference traces too degenerate: condition {cond:.3e}")

    w = np.exp(-meas.taus / weight_ns)
    wb = np.concatenate([w * meas.I, w * meas.Q])
    r2col = full_design[:, 2]
    a = np.column_stack([full_design[:, 0] - r2col, full_design[:, 1] - r2col])
    b = wb - r2col
    x = _simplex_solve(a, b)
    n_eff = 2 * np.sum(w**2)
    # p2 computed against the rounded sum keeps p0 + p1 + p2 == 1 exactly
    return TomographyResult(
        p=(float(x[0]), float(x[1]), float(1.0 - (float(x[0]) + float(x[1])))),
        residual=float(np.sqrt(_cost(a, b, x) / n_eff)),
    )


def tomography_timeline(
    populations: np.ndarray,
    refs: Sequence[ReferenceTrace],
    noise_std: float = 0.0,
    weight_ns: float = DEFAULT_WEIGHT,
    seed: int = 0,
) -> List[TomographyResult]:
    """Mix-and-invert at every sample of a 3-level run's (n_samples, 3) populations.

    Emulates the measurement pipeline end to end, including its bias;
    per-time noise seeds derive deterministically from (seed, index).
    """
    pops = np.asarray(populations, dtype=float)
    if pops.ndim != 2 or pops.shape[1] != 3 or not len(pops):
        raise ConfigurationError(f"tomography timeline needs (n, 3) populations, got shape {pops.shape}")
    results = []
    for idx in range(pops.shape[0]):
        p = np.clip(pops[idx], 0.0, None)
        p = p / p.sum()
        cell_seed = np.random.SeedSequence([seed, idx]).generate_state(1)[0]
        meas = mix_traces(p, refs, noise_std=noise_std, seed=int(cell_seed))
        results.append(reconstruct_populations(meas, refs, weight_ns=weight_ns))
    return results
