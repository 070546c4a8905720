"""Fixed-step RK4 integration of the Lindblad master equation.

drho/dt = -i[H(t), rho] + sum_k rate_k * (L rho L^dag - {L^dag L, rho}/2)

H(t) is rebuilt from the pulse sequence at every RK4 substep time
(t, t+dt/2, t+dt), which keeps the scheme 4th order for driven systems.
Dissipationless runs with a pure initial state propagate the state
vector by the Schrodinger equation instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .core import DensityMatrix, Ket, jacobi_eigh, sigma_op
from .errors import ConfigurationError, IntegrationFailureError, InvalidStateError
from .hamiltonian import TransmonParams
from .pulses import GaussianPulse, PulseSequence, Transition


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


def lindblad_rhs(rho, h: np.ndarray, spec: LindbladSpec) -> np.ndarray:
    """Right-hand side of the master equation; traceless and Hermitian."""
    r = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if r.shape != h.shape:
        raise ConfigurationError("state and Hamiltonian dimensions disagree")
    out = -1j * (h @ r - r @ h)
    for j in spec.jumps:
        if j.rate == 0.0:
            continue
        ll = j.operator
        if ll.shape != r.shape:
            raise ConfigurationError("jump operator dimension mismatch")
        lld = ll.conj().T @ ll
        out += j.rate * (ll @ r @ ll.conj().T - 0.5 * (lld @ r + r @ lld))
    return out


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


@dataclass
class SimResult:
    """Sampled trajectory of one evolve() call."""

    times: np.ndarray
    states: tuple
    populations: np.ndarray  # (n_samples, dim)
    trace_drift: float
    min_eig: float

    def __post_init__(self):
        sums = np.sum(self.populations, axis=1)
        if np.max(np.abs(sums - 1.0)) > 1e-6:
            raise InvalidStateError("population rows do not sum to 1 within 1e-6")
        if self.trace_drift > 1e-6:
            raise InvalidStateError(f"trace drift {self.trace_drift:.3e} exceeds 1e-6")
        if self.min_eig < -1e-6:
            raise InvalidStateError(f"negative eigenvalue {self.min_eig:.3e} below -1e-6")

    @property
    def dim(self) -> int:
        return self.populations.shape[1]

    def population(self, level: int) -> np.ndarray:
        return self.populations[:, level]


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


def _segment_bounds(seq: PulseSequence, grid: TimeGrid) -> List[float]:
    """Split the grid at FastPulse edges that sit on grid points.

    Integrating each smooth segment separately keeps RK4 stages from
    straddling an envelope discontinuity; edges that are not grid-aligned
    are integrated through (with the associated local error).
    """
    from .pulses import FastPulse

    t_end = grid.t_start + grid.n_steps * grid.dt
    edges = set()
    for p in seq.pulses:
        if isinstance(p, FastPulse):
            for e in (p.start_ns, p.start_ns + p.duration_ns):
                if grid.t_start + grid.dt / 2 < e < t_end - grid.dt / 2:
                    k = round((e - grid.t_start) / grid.dt)
                    if abs(grid.t_start + k * grid.dt - e) < 1e-9:
                        edges.add(grid.t_start + k * grid.dt)
    return [grid.t_start] + sorted(edges) + [t_end]


def _build_h_filler(seq: PulseSequence, params: TransmonParams, dim: int, t_half: np.ndarray,
                    clip_lo: float = -np.inf, clip_hi: float = np.inf):
    """Precompute drive samples on the half-step grid; return a filler
    writing H(t_half[i]) into a preallocated matrix.  Evaluation times are
    nudged inside (clip_lo, clip_hi) so segment-boundary stages sample the
    correct side of an envelope discontinuity."""
    t_eval = np.clip(t_half, clip_lo, clip_hi)
    a01 = seq.complex_amplitude(Transition.T01, t_eval)
    a12 = seq.complex_amplitude(Transition.T12, t_eval)
    d01 = seq.detuning(Transition.T01)
    d12 = seq.detuning(Transition.T12)
    h = np.zeros((dim, dim), dtype=complex)
    if dim == 3:
        h[1, 1] = d01
        h[2, 2] = d01 + d12
        ha01 = 0.5 * a01
        ha12 = 0.5 * a12

        def fill(i: int) -> np.ndarray:
            h[1, 0] = ha01[i]
            h[0, 1] = ha01[i].conjugate()
            h[1, 2] = ha12[i]
            h[2, 1] = ha12[i].conjugate()
            return h

    elif dim == 4:
        if params.split is None:
            raise ConfigurationError("4-level evolution needs transmon split parameters")
        from .units import mhz_to_rad_ns

        wa, wb = params.split.branch_weights
        omega_split = mhz_to_rad_ns(params.split.delta_split_mhz)
        h[1, 1] = d01 - omega_split / 2.0
        h[2, 2] = d01 + omega_split / 2.0
        h[3, 3] = d01 + d12
        hwa01 = 0.5 * wa * a01
        hwb01 = 0.5 * wb * a01
        hwa12 = 0.5 * wa * a12
        hwb12 = 0.5 * wb * a12

        def fill(i: int) -> np.ndarray:
            h[1, 0] = hwa01[i]
            h[2, 0] = hwb01[i]
            h[1, 3] = hwa12[i]
            h[2, 3] = hwb12[i]
            h[0, 1] = hwa01[i].conjugate()
            h[0, 2] = hwb01[i].conjugate()
            h[3, 1] = hwa12[i].conjugate()
            h[3, 2] = hwb12[i].conjugate()
            return h

    else:
        raise ConfigurationError(f"unsupported dimension {dim}")
    return fill


def evolve(
    state0: Union[DensityMatrix, Ket],
    seq: PulseSequence,
    params: TransmonParams,
    grid: TimeGrid,
    dissipative: bool = True,
    store_states: bool = True,
) -> SimResult:
    """Integrate over the grid, sampling every sample_stride steps.

    Raises IntegrationFailureError if the trace drifts by more than 1e-6
    or an eigenvalue drops below -1e-6 at any sampled step.
    """
    check_step(seq, grid)

    if isinstance(state0, Ket):
        dim = state0.dim
        as_ket = not dissipative
        psi0 = state0.amplitudes.astype(complex)
        rho0 = np.outer(psi0, psi0.conj())
    else:
        dim = state0.dim
        rho0 = state0.matrix.astype(complex)
        purity = float(np.trace(rho0 @ rho0).real)
        as_ket = (not dissipative) and abs(purity - 1.0) <= 1e-10
        if as_ket:
            vals, vecs = jacobi_eigh(rho0)
            psi0 = np.ascontiguousarray(vecs[:, -1])

    if dim == 4 and params.split is None:
        raise ConfigurationError("4-dimensional initial state needs transmon split parameters")

    n = grid.n_steps
    dt = grid.dt
    bounds = _segment_bounds(seq, grid)
    sample_steps = set(range(0, n + 1, grid.sample_stride)) | {n}

    times: List[float] = []
    pops: List[np.ndarray] = []
    states: List[Union[DensityMatrix, Ket]] = []
    max_drift = 0.0
    min_eig_seen = 0.0

    if as_ket:
        psi = psi0.copy()

        def record(step: int):
            nonlocal max_drift
            norm2 = float(np.sum(np.abs(psi) ** 2))
            drift = abs(norm2 - 1.0)
            if drift > 1e-6:
                raise IntegrationFailureError(
                    f"norm drift {drift:.3e} at step {step}", step, grid.t_start + step * dt
                )
            max_drift = max(max_drift, drift)
            times.append(grid.t_start + step * dt)
            pops.append(np.abs(psi) ** 2)
            if store_states:
                states.append(Ket(psi / math.sqrt(norm2)))

        record(0)
        g_step = 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            n_seg = int(round((b - a) / dt))
            t_half = a + 0.5 * dt * np.arange(2 * n_seg + 1)
            fill_h = _build_h_filler(seq, params, dim, t_half,
                                     a + 1e-9 * dt, b - 1e-9 * dt)
            for s in range(n_seg):
                i = 2 * s
                k1 = -1j * (fill_h(i) @ psi)
                k2 = -1j * (fill_h(i + 1) @ (psi + (0.5 * dt) * k1))
                k3 = -1j * (fill_h(i + 1) @ (psi + (0.5 * dt) * k2))
                k4 = -1j * (fill_h(i + 2) @ (psi + dt * k3))
                psi += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                g_step += 1
                if g_step in sample_steps:
                    record(g_step)
    else:
        spec = build_dissipators(params, dim) if dissipative else LindbladSpec(jumps=())
        dsup = spec.superoperator(dim)
        have_dissipator = bool(spec.jumps)
        rho = rho0.reshape(-1).copy()

        def rhs(fill_h, i_sub: int, y: np.ndarray) -> np.ndarray:
            h = fill_h(i_sub)
            r = y.reshape(dim, dim)
            out = (h @ r - r @ h).reshape(-1)
            out *= -1j
            if have_dissipator:
                out += dsup @ y
            return out

        def record(step: int):
            nonlocal max_drift, min_eig_seen
            r = rho.reshape(dim, dim)
            tr = np.trace(r)
            drift = abs(tr.real - 1.0) + abs(tr.imag)
            eigs = np.linalg.eigvalsh(0.5 * (r + r.conj().T))
            if drift > 1e-6:
                raise IntegrationFailureError(
                    f"trace drift {drift:.3e} at step {step}", step, grid.t_start + step * dt
                )
            if eigs[0] < -1e-6:
                raise IntegrationFailureError(
                    f"eigenvalue {eigs[0]:.3e} at step {step}", step, grid.t_start + step * dt
                )
            max_drift = max(max_drift, drift)
            min_eig_seen = min(min_eig_seen, float(eigs[0]))
            times.append(grid.t_start + step * dt)
            pops.append(np.real(np.diag(r)).copy())
            if store_states:
                states.append(DensityMatrix(r.copy(), check=False))

        record(0)
        g_step = 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            n_seg = int(round((b - a) / dt))
            t_half = a + 0.5 * dt * np.arange(2 * n_seg + 1)
            fill_h = _build_h_filler(seq, params, dim, t_half,
                                     a + 1e-9 * dt, b - 1e-9 * dt)
            for s in range(n_seg):
                i = 2 * s
                k1 = rhs(fill_h, i, rho)
                k2 = rhs(fill_h, i + 1, rho + (0.5 * dt) * k1)
                k3 = rhs(fill_h, i + 1, rho + (0.5 * dt) * k2)
                k4 = rhs(fill_h, i + 2, rho + dt * k3)
                rho += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                g_step += 1
                if g_step in sample_steps:
                    record(g_step)

    return SimResult(
        times=np.asarray(times),
        states=tuple(states),
        populations=np.asarray(pops),
        trace_drift=max_drift,
        min_eig=min_eig_seen,
    )
