"""Vectorized many-trajectory RK4: the package's one integrator.

Integrates a batch of independent systems that share the time grid and
dissipator but differ in their pulse sequences (amplitudes, detunings,
timing).  A density matrix is held cells-last, shape (dim*dim, n_cells);
a dissipationless run from a state vector propagates the vector, shape
(dim, n_cells), by the Schrodinger equation, with RHS -iH psi.  The
Lindblad generator preserves Hermiticity, so a density matrix's RHS is
X + X^H with X = -iH rho + D(rho)/2 (D's diagonal is real and symmetric
in (a, b) and its jumps move population only): both modes run only row
updates from the fixed sparsity of H and D, a run of evenly spaced rows per
call (_row_groups), and every state is exactly Hermitian.  No step calls
BLAS and each cell's arithmetic is independent of its chunk, so with
fixed-size chunks results are bit-identical however chunks are distributed
over workers.

lindblad.evolve runs one cell through evolve_cell, the same RK4 written as
step matrices (y <- M y per step), whose M for a block of steps come from a
few batched matrix products instead of evolve_chunk's 57 (dim 3) or 81
(dim 4) numpy calls per density-matrix step.  It uses the kernel's drive
rows, couplings, energies and dissipator; both judge a sample by _sample_checks.

H(t) is sampled at every RK4 substep time (t, t+dt/2, t+dt), which keeps
the scheme 4th order for smooth drives.  At a FastPulse edge that sits on
a grid point, the step ending there takes its last stage from the left
limit of the drive and the next step its first stage from the right
limit, so no stage straddles the discontinuity; edges off the grid are
integrated through (with the associated local error).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import HERMITICITY_TOL, INTEGRATION_TOL
from .errors import ConfigurationError, IntegrationFailureError, InvalidStateError
from .hamiltonian import TransmonParams
from .lindblad import LindbladSpec, TimeGrid, build_dissipators, check_step
from .pulses import FastPulse, PulseSequence, Transition
from .units import mhz_to_rad_ns

CHUNK_SIZE = 128
STEP_BLOCK = 256  # RK4 step matrices evolve_cell builds at a time
DRIVE_BLOCK = 32  # steps whose drive coefficients evolve_chunk tabulates at a time
EDGE_CLIP = 1e-9  # a FastPulse edge is sampled this many steps dt to each side
# no entry of a state within the drift and eigenvalue (or norm) bounds exceeds
# about 1 + 4e-6, so this names a divergence before round-off hides it
DIVERGED = 2.0


@dataclass
class BatchResult:
    times: np.ndarray  # (n_samples,)
    populations: np.ndarray  # (n_cells, n_samples, dim)
    trace_drift: np.ndarray  # (n_cells,) max |trace - 1|, or |norm^2 - 1| for a ket
    min_eig: np.ndarray  # (n_cells,)
    failed_step: np.ndarray  # (n_cells,) first sampled step failing a check, -1 if none
    failures: Tuple[Tuple[int, str], ...] = ()
    states: Optional[np.ndarray] = None  # (n_cells, n_samples, dim*dim or dim)


def raise_if_all_failed(result: BatchResult, grid: TimeGrid) -> None:
    """Raise IntegrationFailureError for the first cell when every cell failed."""
    if len(result.failures) == len(result.failed_step):
        cell, message = result.failures[0]
        step = int(result.failed_step[cell])
        raise IntegrationFailureError(message, step, grid.t_start + step * grid.dt)


def _couplings(dim: int, params: TransmonParams):
    """(row, col, transition, weight) with H[row, col] = weight * A_transition / 2.

    The only dimension-specific data of the kernel; H[col, row] is the
    complex conjugate.
    """
    if dim == 3:
        return ((1, 0, 0, 1.0), (1, 2, 1, 1.0))
    wa, wb = params.split.branch_weights
    return ((1, 0, 0, wa), (2, 0, 0, wb), (1, 3, 1, wa), (2, 3, 1, wb))


def _row_groups(terms: Sequence[Tuple[int, int]]):
    """(out slice, source slice, term indices) per run of (out row, source row) terms.

    Pass k takes each out row's k-th term and splits those rows into runs whose
    out and source rows both step evenly, so a run is one multiply-add on basic
    slices and every out row still sums its terms in list order."""
    runs: list = []
    for k, row, src, j in sorted((sum(r == row for r, _ in terms[:j]), row, src, j)
                                 for j, (row, src) in enumerate(terms)):
        run = runs[-1] if runs and runs[-1][0][0] == k else []
        if not run or len(run) > 1 and (row - run[-1][1], src - run[-1][2]) != \
                (run[1][1] - run[0][1], run[1][2] - run[0][2]):
            runs.append([])
        runs[-1].append((k, row, src, j))
    return [(_slice(rows), _slice(srcs), idx) for _, rows, srcs, idx in (zip(*run) for run in runs)]


def _slice(rows: Sequence[int]) -> slice:
    """The basic slice through evenly stepped rows; one row for a step of 0."""
    step = rows[1] - rows[0] if len(rows) > 1 else 0
    stop = rows[-1] + (step or 1)
    return slice(rows[0], stop if stop >= 0 else None, step or None)


def _envelopes(seq: PulseSequence) -> tuple:
    """The pulses without their detunings, which enter only the diagonal of H."""
    return tuple(replace(p, detuning=0.0) for p in seq.pulses)


def _edge_steps(seq: PulseSequence, grid: TimeGrid) -> List[int]:
    """Steps k, 0 < k < n_steps, whose grid point is a FastPulse edge."""
    steps = set()
    for p in seq.pulses:
        if isinstance(p, FastPulse):
            for e in (p.start_ns, p.start_ns + p.duration_ns):
                k = round((e - grid.t_start) / grid.dt)
                if 0 < k < grid.n_steps and abs(grid.t_start + k * grid.dt - e) < 1e-9:
                    steps.add(k)
    return sorted(steps)


def _chunk_drive(seqs: Sequence[PulseSequence], grid: TimeGrid, dim: int,
                 params: TransmonParams):
    """Drive amplitudes on the half-step grid and level energies, cells last.

    a01 and a12 have shape (n_sub, m): m = 1 when every cell's pulses are
    equal apart from their detunings, so the cells share one drive, and
    m = n_cells otherwise.  At a FastPulse edge of column c on substep i,
    a01[i, c] holds the right limit, and left[i] the rows (a01, a12) with
    the left limit in column c.  The energies have shape (dim, n_cells).
    """
    t_half = grid.t_start + 0.5 * grid.dt * np.arange(2 * grid.n_steps + 1)
    shared = _envelopes(seqs[0])
    drive_seqs = seqs[:1] if all(_envelopes(s) == shared for s in seqs[1:]) else seqs
    a01 = np.empty((t_half.size, len(drive_seqs)), dtype=complex)
    a12 = np.empty_like(a01)
    for c, seq in enumerate(drive_seqs):
        a01[:, c] = seq.complex_amplitude(Transition.T01, t_half)
        a12[:, c] = seq.complex_amplitude(Transition.T12, t_half)
    left: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for c, seq in enumerate(drive_seqs):
        for k in _edge_steps(seq, grid):
            i = 2 * k
            if i not in left:
                left[i] = (a01[i].copy(), a12[i].copy())
            t_lr = grid.t_start + k * grid.dt + EDGE_CLIP * grid.dt * np.array([-1.0, 1.0])
            left[i][0][c], a01[i, c] = seq.complex_amplitude(Transition.T01, t_lr)
            left[i][1][c], a12[i, c] = seq.complex_amplitude(Transition.T12, t_lr)
    energies = np.zeros((dim, len(seqs)))
    for c, seq in enumerate(seqs):
        d01 = seq.detuning(Transition.T01)
        d12 = seq.detuning(Transition.T12)
        if dim == 3:
            energies[1, c] = d01
            energies[2, c] = d01 + d12
        else:
            omega_split = mhz_to_rad_ns(params.split.delta_split_mhz)
            energies[1, c] = d01 - omega_split / 2.0
            energies[2, c] = d01 + omega_split / 2.0
            energies[3, c] = d01 + d12
    return a01, a12, left, energies


def _initial_state(params: TransmonParams, dim: int, dissipative: bool,
                   rho0: Optional[np.ndarray]):
    """The validated initial state and the dissipator superoperator, None for a ket.

    rho0 is |0><0| by default; a matrix not Hermitian to core.HERMITICITY_TOL
    raises InvalidStateError.  A state vector without dissipation is
    propagated as a ket; with dissipation it stands for its projector.
    """
    if dim not in (3, 4):
        raise ConfigurationError(f"unsupported dimension {dim}")
    if dim == 4 and params.split is None:
        raise ConfigurationError("4-level batch needs transmon split parameters")
    if rho0 is None:
        rho0 = np.diag(np.eye(dim)[0])
    init = np.asarray(rho0, dtype=complex)
    if init.ndim == 1 and dissipative:
        init = np.outer(init, init.conj())
    if init.ndim == 1:
        return init, None
    if (dev := np.abs(init - init.conj().T).max()) > HERMITICITY_TOL:
        raise InvalidStateError(f"rho0 not Hermitian: deviation {dev:.3e} > {HERMITICITY_TOL:.1e}")
    spec = build_dissipators(params, dim) if dissipative else LindbladSpec(jumps=())
    # exactly Hermitian, which X + X^H keeps
    return 0.5 * (init + init.conj().T), spec.superoperator(dim)


def _sample_checks(y: np.ndarray, dim: int, ket: bool, steps: np.ndarray, grid: TimeGrid):
    """Check each column of y, the state (vec of rho, or a ket) at step steps[i].

    Returns the populations (dim, m), the trace (or norm) drift and the
    minimum eigenvalue (0 for a ket or a non-finite state) per column, and
    {column: message} for the columns with a non-finite state, an entry
    above DIVERGED in magnitude, a drift above core.INTEGRATION_TOL or an
    eigenvalue below -INTEGRATION_TOL, checked in that order.
    """
    finite = np.isfinite(y).all(axis=0)
    peak = np.abs(y).max(axis=0)
    eig = np.zeros(y.shape[1])
    if ket:
        p = np.abs(y) ** 2
    else:
        p = y[::dim + 1].real
        eig[finite] = np.linalg.eigvalsh(y.reshape(dim, dim, -1)[:, :, finite].transpose(2, 0, 1))[:, 0]
    drift = np.abs(p.sum(axis=0) - 1.0)
    bad = {}
    for c in np.flatnonzero(~finite | (peak > DIVERGED) | (drift > INTEGRATION_TOL)
                            | (eig < -INTEGRATION_TOL)):
        what = ("non-finite state" if not finite[c]
                else f"diverged: max |entry| {peak[c]:.3e}" if peak[c] > DIVERGED
                else f"{'norm' if ket else 'trace'} drift {drift[c]:.3e}" if drift[c] > INTEGRATION_TOL
                else f"negative eigenvalue {eig[c]:.3e}")
        bad[int(c)] = f"{what} at step {steps[c]} (t = {grid.t_start + steps[c] * grid.dt:.3f} ns)"
    return p, drift, eig, bad


def evolve_cell(seq: PulseSequence, params: TransmonParams, grid: TimeGrid, dim: int = 3,
                dissipative: bool = True, rho0: Optional[np.ndarray] = None) -> BatchResult:
    """evolve_chunk([seq], ..., store_states=True) by RK4 step matrices.

    For y' = G(t) y (G = -iH for a ket, the Liouvillian
    -i(H (x) I - I (x) H^T) + D on the row-major vec of rho) one RK4 step is
    y <- M y, M = I + dt/6 (G_a + 2 G_b B1 + 2 G_b B2 + G_c B3) with
    B1 = I + dt/2 G_a, B2 = I + dt/2 G_b B1, B3 = I + dt G_b B2 (Hairer,
    Norsett & Wanner, Solving ODEs I, II.1), built STEP_BLOCK steps at a time.
    """
    init, dsup = _initial_state(params, dim, dissipative, rho0)
    n, dt = grid.n_steps, grid.dt
    a01, a12, left, energies = _chunk_drive([seq], grid, dim, params)
    # (A01, A12) rows on the half-step grid, and at each step's end with left limits
    drive, ends = np.stack([a01[:, 0], a12[:, 0]]), np.stack([a01[2::2, 0], a12[2::2, 0]])
    for i, rows in left.items():
        ends[:, i // 2 - 1] = np.ravel(rows)
    eye_h = np.eye(dim)

    def liouvillian(h: np.ndarray) -> np.ndarray:
        """-iH for a ket; -i(H (x) I - I (x) H^T) on the row-major vec of rho."""
        return -1j * h if dsup is None else -1j * (np.kron(h, eye_h) - np.kron(eye_h, h.T))

    # H is linear in the drive, so G(t) = G0 + sum_j (A_j(t) P_j + conj(A_j(t)) Q_j)
    g0 = liouvillian(np.diag(energies[:, 0])) + (0.0 if dsup is None else dsup)
    couplings = _couplings(dim, params)
    basis = np.array([liouvillian(0.5 * w * np.outer(eye_h[i], eye_h[j])).ravel()
                      for r, c, _, w in couplings for i, j in ((r, c), (c, r))])

    def generators(rows: np.ndarray) -> np.ndarray:
        coefs = np.stack([f(rows[tr]) for _, _, tr, _ in couplings for f in (np.asarray, np.conj)], axis=1)
        return g0 + (coefs @ basis).reshape(-1, *g0.shape)

    eye = np.eye(init.size)
    y = init.reshape(-1)
    steps = np.array(sorted(set(range(0, n + 1, grid.sample_stride)) | {n}))
    samples = [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for k0 in range(0, n, STEP_BLOCK):
            stop = min(k0 + STEP_BLOCK, n)
            ga = generators(drive[:, 2 * k0:2 * stop:2])
            gb = generators(drive[:, 2 * k0 + 1:2 * stop:2])
            gb_b1 = gb @ (eye + (0.5 * dt) * ga)
            gb_b2 = gb @ (eye + (0.5 * dt) * gb_b1)
            gc_b3 = generators(ends[:, k0:stop]) @ (eye + dt * gb_b2)
            m = eye + (dt / 6.0) * (ga + 2.0 * gb_b1 + 2.0 * gb_b2 + gc_b3)
            for k, mk in zip(range(k0 + 1, stop + 1), m):
                y = mk @ y
                if k % grid.sample_stride == 0 or k == n:
                    samples.append(y)
    states = np.array(samples).T
    p, drift, eig, bad = _sample_checks(states, dim, dsup is None, steps, grid)
    first = min(bad, default=None)  # the cell's failure is its first failing sample
    return BatchResult(
        times=grid.t_start + steps * dt,
        populations=p.T[None],
        trace_drift=np.array([drift.max()]),
        min_eig=np.array([min(0.0, eig.min())]),
        failed_step=np.array([-1 if first is None else steps[first]]),
        failures=() if first is None else ((0, bad[first]),),
        states=states.T[None],
    )


def evolve_chunk(
    seqs: Sequence[PulseSequence],
    params: TransmonParams,
    grid: TimeGrid,
    dim: int = 3,
    dissipative: bool = True,
    rho0: Optional[np.ndarray] = None,
    store_states: bool = False,
) -> BatchResult:
    """Integrate one chunk of cells on a shared grid.

    rho0 is every cell's initial state, read as _initial_state says.  Each
    cell's first sample failing _sample_checks is recorded as its failure;
    the other cells run on.
    """
    init, dsup = _initial_state(params, dim, dissipative, rho0)
    ket = dsup is None
    n_cells = len(seqs)
    n, dt = grid.n_steps, grid.dt
    a01, a12, left, energies = _chunk_drive(seqs, grid, dim, params)
    couplings = _couplings(dim, params)

    if ket:
        ldiag, jumps = -1j * energies, []
    else:
        # X's diagonal at vec index a*dim + b: (-i(E_a - E_b) + D[k, k]) / 2
        ldiag = (-0.5j * (energies[:, None, :] - energies[None, :, :])).reshape(dim * dim, n_cells)
        ldiag += 0.5 * np.diag(dsup)[:, None]
        jumps = [(k, l, 0.5 * dsup[k, l]) for k, l in zip(*np.nonzero(dsup)) if k != l]

    y = np.repeat(init.reshape(-1, 1), n_cells, axis=1)

    sample_steps = set(range(0, n + 1, grid.sample_stride)) | {n}
    times = np.empty(len(sample_steps))
    pops = np.empty((n_cells, times.size, dim))
    states = np.empty((n_cells, times.size, y.shape[0]), dtype=complex) if store_states else None
    max_drift = np.zeros(n_cells)
    min_eig = np.zeros(n_cells)
    failed_step = np.full(n_cells, -1)
    messages: Dict[int, str] = {}

    # term 2j adds -i H[r, c] y[c, :] to row r of X and term 2j + 1 -i H[c, r] y[r, :]
    # to row c, for coupling j, and a jump its rate times rho_ll to rho_kk; a row of X
    # sums its diagonal term, then its coupling terms and its jumps, each in list order
    runs = _row_groups([t for r, c, _, _ in couplings for t in ((r, c), (c, r))])
    jump_runs = _row_groups([(k // (dim + 1), l // (dim + 1)) for k, l, _ in jumps])

    def coefficients(row01: np.ndarray, row12: np.ndarray):
        """Per run, its terms' -i H[row, col] on each substep, shape (substeps, terms, 1, m)."""
        drive, tabs = (row01, row12), []
        for _, _, terms in runs:
            tabs.append(np.empty((len(row01), len(terms), 1, row01.shape[1]), dtype=complex))
            for t, j in enumerate(terms):
                _, _, tr, w = couplings[j // 2]
                np.multiply(-0.5j * w, np.conj(drive[tr]) if j % 2 else drive[tr], out=tabs[-1][:, t, 0])
        return tabs

    tmp = np.empty((dim, y.shape[0] // dim, n_cells), dtype=complex)
    scratch = None if ket else np.empty_like(y)

    def views(src: np.ndarray, k: np.ndarray):
        """The views one RHS from src into k reads and writes; X is k itself for a ket."""
        x = k if ket else scratch
        s3, x3 = src.reshape(dim, -1, n_cells), x.reshape(dim, -1, n_cells)
        diag = [(x[::dim + 1][o], src[::dim + 1][s], np.array([[jumps[j][2]] for j in terms]),
                 tmp[0, :len(terms)]) for o, s, terms in jump_runs]
        return (src, x, [(x3[o], s3[s], tmp[:len(terms)]) for o, s, terms in runs], diag,
                k, k.reshape(dim, -1, n_cells), x3.swapaxes(0, 1))

    def rhs(coefs, i, v):
        """A ket's X into k; a density matrix's into scratch, then k = X + X^H."""
        ya, xa, couple, diag, k, k3, xt = v
        np.multiply(ldiag, ya, out=xa)
        for (x, ys, t), c in zip(couple, coefs):
            np.add(x, np.multiply(ys, c[i], out=t), out=x)
        for x, ys, rate, t in diag:
            np.add(x, np.multiply(ys, rate, out=t), out=x)
        if not ket:
            np.conjugate(xt, out=k3)
            np.add(k, xa, out=k)

    sample_i = 0

    def record(step: int):
        nonlocal sample_i
        p, drift, eig, bad = _sample_checks(y, dim, ket, np.full(n_cells, step), grid)
        np.maximum(max_drift, drift, out=max_drift)
        np.minimum(min_eig, eig, out=min_eig)
        for c, message in bad.items():
            if failed_step[c] < 0:
                failed_step[c] = step
                messages[c] = message
        times[sample_i] = grid.t_start + step * dt
        pops[:, sample_i, :] = p.T
        if store_states:
            states[:, sample_i, :] = y.T
        sample_i += 1

    k1, k2, k3, k4, yt = (np.empty_like(y) for _ in range(5))
    v1, v2, v3, v4 = (views(src, k) for src, k in ((y, k1), (yt, k2), (yt, k3), (yt, k4)))
    left_coefs = {i: coefficients(r01[None], r12[None]) for i, (r01, r12) in left.items()}
    # a diverged cell overflows on its way to inf/nan; record() reports it
    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for step in range(n):
            if step % DRIVE_BLOCK == 0:  # the block's substeps, two per step, and its end
                lo, hi = 2 * step, 2 * min(step + DRIVE_BLOCK, n) + 1
                coefs = coefficients(a01[lo:hi], a12[lo:hi])
            i = 2 * step - lo
            rhs(coefs, i, v1)
            np.multiply(k1, 0.5 * dt, out=yt)
            yt += y
            rhs(coefs, i + 1, v2)
            np.multiply(k2, 0.5 * dt, out=yt)
            yt += y
            rhs(coefs, i + 1, v3)
            np.multiply(k3, dt, out=yt)
            yt += y
            end = 2 * step + 2  # on a FastPulse edge, the last stage takes the left limit
            rhs(*((left_coefs[end], 0) if end in left_coefs else (coefs, i + 2)), v4)
            # y += dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt / 6.0
            y += k1
            if (step + 1) in sample_steps:
                record(step + 1)

    return BatchResult(
        times=times,
        populations=pops,
        trace_drift=max_drift,
        min_eig=min_eig,
        failed_step=failed_step,
        failures=tuple(sorted(messages.items())),
        states=states,
    )


def run_batch(
    seqs: Sequence[PulseSequence],
    params: TransmonParams,
    grid: TimeGrid,
    dim: int = 3,
    dissipative: bool = True,
    rho0: Optional[np.ndarray] = None,
    workers: int = 1,
    chunk_size: int = CHUNK_SIZE,
) -> BatchResult:
    """Run all cells chunk by chunk, optionally over a process pool.

    The chunk partition is independent of the worker count, so serial and
    parallel runs produce identical bytes.  A failed cell is recorded in
    failures while the others run on; when every cell fails,
    IntegrationFailureError names the first one's step and time.
    """
    for seq in seqs:
        check_step(seq, grid)
    chunks = [list(range(i, min(i + chunk_size, len(seqs)))) for i in range(0, len(seqs), chunk_size)]
    args = [([seqs[i] for i in ch], params, grid, dim, dissipative, rho0) for ch in chunks]
    if workers > 1 and len(chunks) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=min(workers, len(chunks))) as pool:
            results = list(pool.map(_run_one_chunk, args))
    else:
        results = [_run_one_chunk(a) for a in args]

    failures: List[Tuple[int, str]] = []
    for ch, r in zip(chunks, results):
        failures.extend((ch[c], msg) for c, msg in r.failures)
    result = BatchResult(
        times=results[0].times,
        populations=np.concatenate([r.populations for r in results], axis=0),
        trace_drift=np.concatenate([r.trace_drift for r in results]),
        min_eig=np.concatenate([r.min_eig for r in results]),
        failed_step=np.concatenate([r.failed_step for r in results]),
        failures=tuple(failures),
    )
    raise_if_all_failed(result, grid)
    return result


def _run_one_chunk(args) -> BatchResult:
    seqs, params, grid, dim, dissipative, rho0 = args
    return evolve_chunk(seqs, params, grid, dim, dissipative, rho0)
