"""Vectorized many-trajectory RK4: the package's one integrator.

Integrates a batch of independent systems that share the time grid, the
transmon and its dissipator (lindblad.dissipator) but differ in their
pulse sequences (amplitudes, detunings, timing).  The transmon fixes the
level count d (TransmonParams.n_levels): 3, or 4 with a split |1>.  A
density matrix is held cells-last, shape (d*d, n_cells); a dissipationless
run from a state vector, |0> by default, propagates the vector, shape
(d, n_cells), by the Schrodinger equation, with RHS -iH psi.

The RK4 has two realisations, and both run through one block loop
(_integrate) that judges the sampled states, a buffer of at most
SAMPLE_ENTRIES entries at a time, by one _sample_checks call.
evolve_chunk's row kernel uses that the Lindblad generator
preserves Hermiticity: a density matrix's RHS is X + X^H with
X = -iH rho + D(rho)/2 (D's diagonal is real and symmetric in (a, b) and
its jumps move population only), so both modes run only row updates from
the fixed sparsity of H and D, one group of terms with a common row offset
per call (_offset_groups), and every state is exactly Hermitian.  A chunk
builds its RK4 step once, as (ufunc, operands) calls over fixed views with
out positional: 49 (d = 3) or 73 (d = 4) per density-matrix step, plus
three copies of a substep's drive coefficients into one buffer.  No step
calls BLAS and each cell's arithmetic is independent of its chunk, so
results are bit-identical at any chunk size and however chunks are
distributed over workers.  evolve runs one cell as the same RK4 written as
step matrices (y <- M y per step), whose M for a block of steps come from
a few batched matrix products; it takes run_batch's arguments for one
sequence and returns the same BatchResult with every sample's state.

H(t) is sampled at every RK4 substep time (t, t+dt/2, t+dt), which keeps
the scheme 4th order for smooth drives.  Both realisations sample it one
block of steps at a time (_drive_block), and a FastPulse edge on a grid point
starts a block: the block ending there takes its last sample from the left
limit of the drive and the next its first from the right limit, so no stage
straddles the discontinuity; lindblad.check_step rejects an edge off the grid.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from functools import partial
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError, NumericalError
from .hamiltonian import TransmonParams
from .lindblad import TimeGrid, check_step, dissipator
from .pulses import PulseSequence, Transition

CHUNK_SIZE = 128  # fewest cells a default chunk of a larger batch holds
BLOCK = 256  # steps whose drive is sampled at a time
SAMPLE_ENTRIES = 1 << 16  # most sampled state entries held before they are judged
DRIVE_BLOCK = 32  # steps whose drive coefficients evolve_chunk tabulates at a time
EDGE_CLIP = 1e-9  # a FastPulse edge is sampled this many steps dt to each side
# no entry of a state within the drift and eigenvalue (or norm) bounds exceeds
# about 1 + 4e-6, so this names a divergence before round-off hides it
DIVERGED = 2.0
# Largest deviation from Hermiticity an initial density matrix may carry.
HERMITICITY_TOL = 1e-10
# Bound on an integrated state's trace (or norm) drift and negative
# eigenvalues.  Fixed-step RK4 is not positivity-preserving and a run adds
# round-off over thousands of steps, so only a run going unstable leaves it.
INTEGRATION_TOL = 1e-6


@dataclass
class BatchResult:
    times: np.ndarray  # (n_samples,)
    populations: Optional[np.ndarray]  # (n_cells, n_samples, dim); None unless the series is kept
    final: np.ndarray  # (n_cells, dim) populations at the last sample
    peak: np.ndarray  # (n_cells, dim) each level's largest sampled population, NaN if any is
    trace_drift: np.ndarray  # (n_cells,) max |trace - 1|, or |norm^2 - 1| for a ket
    min_eig: np.ndarray  # (n_cells,)
    failures: Tuple[Tuple[int, int, str], ...] = ()  # (cell, first failing sampled step, message)
    states: Optional[np.ndarray] = None  # (n_cells, n_samples, dim*dim or dim); evolve keeps them


def raise_if_all_failed(result: BatchResult) -> None:
    """Raise the first cell's failure, which names its step and time, when every cell failed."""
    if len(result.failures) == len(result.final):
        raise NumericalError(result.failures[0][2])


def _couplings(params: TransmonParams):
    """(row, col, transition, weight) with H[row, col] = weight * A_transition / 2.

    Each intermediate level couples to |0> by the 0-1 drive, then to the
    top level by the 1-2 drive, with its branch weight; H[col, row] is the
    complex conjugate.
    """
    top = params.n_levels - 1
    return tuple((level, col, tr, w) for col, tr in ((0, 0), (top, 1))
                 for level, (_, w) in enumerate(params.branches, start=1))


def _offset_groups(terms: Sequence[Tuple[int, int]]):
    """(out slice, source slice, term indices) per offset out row - source row, largest first.

    A group is one multiply-add on basic slices.  At 3 and 4 levels it holds
    at most two out rows, so both slices step forward, and each out row
    lists its sources in ascending order, so it still sums its terms in
    list order."""
    groups = []
    for offset in sorted({r - s for r, s in terms}, reverse=True):
        idx = sorted((j for j, (r, s) in enumerate(terms) if r - s == offset), key=terms.__getitem__)
        rows = [terms[j][0] for j in idx]
        groups.append((_slice(rows), _slice([r - offset for r in rows]), idx))
    return groups


def _slice(rows: Sequence[int]) -> slice:
    """The basic slice through ascending, evenly stepped rows."""
    return slice(rows[0], rows[-1] + 1, (rows[-1] - rows[0]) // max(len(rows) - 1, 1) or None)


def _chunk_drive(seqs: Sequence[PulseSequence], grid: TimeGrid, params: TransmonParams):
    """The drive columns, the time blocks and the level energies, cells last.

    A drive column is (sequence, its edge steps, from lindblad.check_step):
    one column when every cell has the same pulses, so the cells share one
    drive (their detunings enter only the energies), and one per cell
    otherwise.  The blocks [k0, k1) are cut every BLOCK steps and at every
    column's edge steps.  The energies have shape (params.n_levels, n_cells):
    0, d01 plus each branch's offset, and d01 + d12.
    """
    drive = [(seq, check_step(seq, grid))
             for seq in (seqs[:1] if all(s.pulses == seqs[0].pulses for s in seqs[1:]) else seqs)]
    cuts = sorted(set(range(0, grid.n_steps, BLOCK)).union(*(edges for _, edges in drive)))
    blocks = list(zip(cuts, cuts[1:] + [grid.n_steps]))
    d01 = np.array([seq.delta01 for seq in seqs])
    energies = np.zeros((params.n_levels, len(seqs)))
    energies[1:-1] = d01 + np.array([[offset] for offset, _ in params.branches])
    energies[-1] = d01 + np.array([seq.delta12 for seq in seqs])
    return drive, blocks, energies


def _drive_block(drive, grid: TimeGrid, k0: int, k1: int) -> np.ndarray:
    """(A01, A12) at t_start + dt/2 * j for j = 2 k0 ... 2 k1, shape (2, 2 (k1 - k0) + 1, m).

    In a column with an edge at k0 the first sample lies EDGE_CLIP * dt right
    of it, and with an edge at k1 the last sample EDGE_CLIP * dt left of it.
    """
    t = grid.t_start + 0.5 * grid.dt * np.arange(2 * k0, 2 * k1 + 1)
    rows = np.empty((2, t.size, len(drive)), dtype=complex)
    for c, (seq, edges) in enumerate(drive):
        tc = t.copy()  # t[0] is t_start + k0 dt and t[-1] t_start + k1 dt, exactly
        if k0 in edges:
            tc[0] += EDGE_CLIP * grid.dt
        if k1 in edges:
            tc[-1] -= EDGE_CLIP * grid.dt
        rows[:, :, c] = [seq.complex_amplitude(tr, tc) for tr in (Transition.T01, Transition.T12)]
    return rows


def _initial_state(params: TransmonParams, dissipative: bool, rho0: Optional[np.ndarray]):
    """The validated initial state and the dissipator superoperator, None for a ket.

    rho0 is |0><0| by default with dissipation and the ket |0> without; with
    d = params.n_levels, one of a shape other than (d,) or (d, d) raises
    ConfigurationError, a matrix not Hermitian to HERMITICITY_TOL
    NumericalError.  A state vector without dissipation is propagated as
    a ket; with dissipation it stands for its projector.  A matrix without
    dissipation runs with a zero dissipator.
    """
    dim = params.n_levels
    if rho0 is None:
        rho0 = np.diag(np.eye(dim)[0]) if dissipative else np.eye(dim)[0]
    init = np.asarray(rho0, dtype=complex)
    if init.shape not in ((dim,), (dim, dim)):
        raise ConfigurationError(f"rho0 of shape {init.shape} does not fit dimension {dim}")
    if init.ndim == 1 and dissipative:
        init = np.outer(init, init.conj())
    if init.ndim == 1:
        return init, None
    if (dev := np.abs(init - init.conj().T).max()) > HERMITICITY_TOL:
        raise NumericalError(f"rho0 not Hermitian: deviation {dev:.3e} > {HERMITICITY_TOL:.1e}")
    dsup = dissipator(params) if dissipative else np.zeros((dim * dim, dim * dim), dtype=complex)
    # exactly Hermitian, which X + X^H keeps
    return 0.5 * (init + init.conj().T), dsup


def _sample_checks(y: np.ndarray, ket: bool, steps: np.ndarray, grid: TimeGrid):
    """Check each column of y, the state (vec of rho, or a ket) at step steps[i].

    Returns the populations (d, m), the trace (or norm) drift and the
    minimum eigenvalue clamped at 0 (0 for a ket or a non-finite state) per
    column, and {column: message} for the columns with a non-finite state,
    an entry above DIVERGED in magnitude, a drift above INTEGRATION_TOL or
    an eigenvalue below -INTEGRATION_TOL, checked in that order.

    A Hermitian matrix is positive definite iff every pivot of its LDL^H
    factorisation without pivoting is > 0 (Golub & Van Loan, Matrix
    Computations, 4.1-4.2), and then its clamped minimum is 0; only the
    finite matrices those pivots do not prove go to eigvalsh.  Both read the
    lower triangle and the real diagonal.
    """
    dim = y.shape[0] if ket else math.isqrt(y.shape[0])
    finite = np.isfinite(y).all(axis=0)
    peak = np.abs(y).max(axis=0)
    eig = np.zeros(y.shape[1])
    if ket:
        p = np.abs(y) ** 2
    else:
        p = y[::dim + 1].real
        rho = s = y.reshape(dim, dim, -1)
        proven = finite.copy()
        with np.errstate(all="ignore"):  # a zero, tiny or non-finite pivot only fails the proof
            for _ in range(dim):  # s is the Schur complement left to factor
                pivot, col = s[0, 0].real, s[1:, 0]
                proven &= pivot > 0
                s = s[1:, 1:] - (col / pivot)[:, None] * col.conj()[None]
        check = finite & ~proven
        eig[check] = np.minimum(0.0, np.linalg.eigvalsh(rho[:, :, check].transpose(2, 0, 1))[:, 0])
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


def _integrate(seqs: Sequence[PulseSequence], params: TransmonParams, grid: TimeGrid,
               dissipative: bool, rho0: Optional[np.ndarray], store_states: bool, series: bool,
               realisation) -> BatchResult:
    """The block loop both realisations run through.

    realisation(y, dsup, energies, params, dt, n_drive) returns advance(rows),
    which takes y, the cells-last initial state, through one _chunk_drive
    block given its _drive_block rows (n_drive columns) and yields the state
    after each step.  The states at the sampled steps (step 0 first) are
    copied into one buffer of at most SAMPLE_ENTRIES entries (and at least
    one sample) or a block's samples, judged by one _sample_checks call
    when it is full or at a block's end, and folded into the result: each
    cell's final and peak populations, maximum drift and minimum
    eigenvalue, its first failing sample's step and message, and, with
    series, its populations at every sample; a failed cell runs on.  No
    sequence raises ConfigurationError.
    """
    if not seqs:
        raise ConfigurationError("a batch needs at least one pulse sequence")
    init, dsup = _initial_state(params, dissipative, rho0)
    n_cells, dim = len(seqs), params.n_levels
    y = np.repeat(init.reshape(-1, 1), n_cells, axis=1)
    steps = grid.sample_steps
    sampled = set(steps.tolist())
    pops = np.empty((n_cells, steps.size, dim)) if series else None
    states = np.empty((n_cells, steps.size, y.shape[0]), dtype=complex) if store_states else None
    final, peak = np.empty((n_cells, dim)), np.full((n_cells, dim), -np.inf)
    max_drift, min_eig = np.zeros(n_cells), np.zeros(n_cells)
    failed: Dict[int, Tuple[int, str]] = {}  # each failed cell's first (step, message)
    # sample-major columns; a block holds at most BLOCK // sample_stride + 2 samples
    cap = min(BLOCK // grid.sample_stride + 2, max(1, SAMPLE_ENTRIES // y.size))
    buf = np.empty((y.shape[0], cap * n_cells), dtype=complex)
    held = done = 0  # samples in buf, and samples judged before them

    def judge():
        nonlocal held, done
        at, block = steps[done:done + held], buf[:, :held * n_cells]
        p, drift, eig, bad = _sample_checks(block, dsup is None, np.repeat(at, n_cells), grid)
        p = p.reshape(dim, held, n_cells)
        if series:
            pops[:, done:done + held] = p.T
        if store_states:
            states[:, done:done + held] = block.reshape(-1, held, n_cells).T
        final[:] = p[:, -1].T
        np.maximum(peak, p.max(axis=1).T, out=peak)
        np.maximum(max_drift, drift.reshape(held, n_cells).max(axis=0), out=max_drift)
        np.minimum(min_eig, eig.reshape(held, n_cells).min(axis=0), out=min_eig)
        for col, message in bad.items():  # sample by sample, so a cell's first comes first
            failed.setdefault(col % n_cells, (int(at[col // n_cells]), message))
        done, held = done + held, 0

    def take(yk):
        nonlocal held
        buf[:, held * n_cells:(held + 1) * n_cells] = yk
        held += 1
        if held == cap:
            judge()

    # a diverged cell, or one whose energies or drive leave float64's range, goes to
    # inf/nan; _sample_checks reports it
    with np.errstate(over="ignore", invalid="ignore"):
        drive, blocks, energies = _chunk_drive(seqs, grid, params)
        advance = realisation(y, dsup, energies, params, grid.dt, len(drive))
        take(y)  # step 0
        for k0, k1 in blocks:
            for k, yk in zip(range(k0 + 1, k1 + 1), advance(_drive_block(drive, grid, k0, k1))):
                if k in sampled:
                    take(yk)
            if held:
                judge()
    return BatchResult(grid.t_start + steps * grid.dt, pops, final, peak, max_drift, min_eig,
                       tuple((c, *failed[c]) for c in sorted(failed)), states)


def _step_matrices(y: np.ndarray, dsup: Optional[np.ndarray], energies: np.ndarray,
                   params: TransmonParams, dt: float, n_drive: int):
    """evolve's realisation: one cell's RK4 as a product of step matrices.

    For y' = G(t) y (G = -iH for a ket, the Liouvillian
    -i(H (x) I - I (x) H^T) + D on the row-major vec of rho) one RK4 step is
    y <- M y, M = I + dt/6 (G_a + 2 G_b B1 + 2 G_b B2 + G_c B3) with
    B1 = I + dt/2 G_a, B2 = I + dt/2 G_b B1, B3 = I + dt G_b B2 (Hairer,
    Norsett & Wanner, Solving ODEs I, II.1); a block's M come from a few
    batched matrix products.
    """
    eye_h = np.eye(params.n_levels)

    def liouvillian(h: np.ndarray) -> np.ndarray:
        """-iH for a ket; -i(H (x) I - I (x) H^T) on the row-major vec of rho."""
        return -1j * h if dsup is None else -1j * (np.kron(h, eye_h) - np.kron(eye_h, h.T))

    # H is linear in the drive, so G(t) = G0 + sum_j (A_j(t) P_j + conj(A_j(t)) Q_j)
    g0 = liouvillian(np.diag(energies[:, 0])) + (0.0 if dsup is None else dsup)
    couplings = _couplings(params)
    basis = np.array([liouvillian(0.5 * w * np.outer(eye_h[i], eye_h[j])).ravel()
                      for r, c, _, w in couplings for i, j in ((r, c), (c, r))])

    def generators(rows: np.ndarray) -> np.ndarray:
        coefs = np.stack([f(rows[tr]) for _, _, tr, _ in couplings for f in (np.asarray, np.conj)], axis=1)
        return g0 + (coefs @ basis).reshape(-1, *g0.shape)

    eye = np.eye(len(y))
    v = y[:, 0]

    def advance(rows: np.ndarray):
        nonlocal v
        rows = rows[:, :, 0]  # each step's start, midpoint, end
        ga = generators(rows[:, :-1:2])
        gb = generators(rows[:, 1::2])
        gb_b1 = gb @ (eye + (0.5 * dt) * ga)
        gb_b2 = gb @ (eye + (0.5 * dt) * gb_b1)
        gc_b3 = generators(rows[:, 2::2]) @ (eye + dt * gb_b2)
        for m in eye + (dt / 6.0) * (ga + 2.0 * gb_b1 + 2.0 * gb_b2 + gc_b3):
            v = m @ v
            yield v[:, None]

    return advance


def _row_kernel(y: np.ndarray, dsup: Optional[np.ndarray], energies: np.ndarray,
                params: TransmonParams, dt: float, n_drive: int):
    """evolve_chunk's realisation: RK4 by row updates on the cells-last y, in place."""
    ket = dsup is None
    dim, n_cells = params.n_levels, y.shape[1]
    couplings = _couplings(params)

    if ket:
        ldiag, jumps = -1j * energies, []
    else:
        # X's diagonal at vec index a*dim + b: (-i(E_a - E_b) + D[k, k]) / 2
        ldiag = (-0.5j * (energies[:, None, :] - energies[None, :, :])).reshape(dim * dim, n_cells)
        ldiag += 0.5 * np.diag(dsup)[:, None]
        jumps = [(k, l, 0.5 * dsup[k, l]) for k, l in zip(*np.nonzero(dsup)) if k != l]

    # term 2j adds -i H[r, c] y[c, :] to row r of X and term 2j + 1 -i H[c, r] y[r, :]
    # to row c, for coupling j, and a jump its rate times rho_ll to rho_kk; a row of X
    # sums its diagonal term, then its coupling terms and its jumps, each in list order
    groups = _offset_groups([t for r, c, _, _ in couplings for t in ((r, c), (c, r))])
    jump_groups = _offset_groups([(k // (dim + 1), l // (dim + 1)) for k, l, _ in jumps])
    terms = [j for _, _, idx in groups for j in idx]  # group by group

    def coefficients(rows: np.ndarray) -> np.ndarray:
        """Each term's -i H[row, col] on each substep, shape (substeps, terms, 1, m)."""
        tab = np.empty((rows.shape[1], len(terms), 1, rows.shape[2]), dtype=complex)
        for t, j in enumerate(terms):
            _, _, tr, w = couplings[j // 2]
            np.multiply(-0.5j * w, np.conj(rows[tr]) if j % 2 else rows[tr], out=tab[:, t, 0])
        return tab

    coef = np.empty((len(terms), 1, n_drive), dtype=complex)  # the substep being taken
    tmp = np.empty((dim, y.shape[0] // dim, n_cells), dtype=complex)
    scratch = None if ket else np.empty_like(y)

    def rhs(src: np.ndarray, k: np.ndarray) -> list:
        """The (ufunc, operands) calls of one RHS from src into k: a ket's X into k,
        a density matrix's into scratch, then k = X + X^H."""
        x = k if ket else scratch
        s3, x3 = src.reshape(dim, -1, n_cells), x.reshape(dim, -1, n_cells)
        sd, xd = src[::dim + 1], x[::dim + 1]
        calls, t0 = [(np.multiply, (ldiag, src, x))], 0
        for o, s, idx in groups:
            t, c = tmp[:len(idx)], coef[t0:t0 + len(idx)]
            calls += [(np.multiply, (s3[s], c, t)), (np.add, (x3[o], t, x3[o]))]
            t0 += len(idx)
        for o, s, idx in jump_groups:
            t, rate = tmp[0, :len(idx)], np.array([[jumps[j][2]] for j in idx])
            calls += [(np.multiply, (sd[s], rate, t)), (np.add, (xd[o], t, xd[o]))]
        if not ket:
            calls += [(np.conjugate, (x3.swapaxes(0, 1), k.reshape(dim, -1, n_cells))), (np.add, (k, x, k))]
        return calls

    k1, k2, k3, k4, yt = (np.empty_like(y) for _ in range(5))
    half, whole, sixth, two = (np.complex128(c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    # one RK4 step as three runs of calls, each after its substep's coefficients:
    # k1 and y + dt/2 k1; k2, y + dt/2 k2, k3 and y + dt k3; k4 and
    # y += dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
    runs = (rhs(y, k1) + [(np.multiply, (k1, half, yt)), (np.add, (yt, y, yt))],
            rhs(yt, k2) + [(np.multiply, (k2, half, yt)), (np.add, (yt, y, yt))]
            + rhs(yt, k3) + [(np.multiply, (k3, whole, yt)), (np.add, (yt, y, yt))],
            rhs(yt, k4) + [(np.multiply, (k2, two, k2)), (np.add, (k1, k2, k1)),
                           (np.multiply, (k3, two, k3)), (np.add, (k1, k3, k1)),
                           (np.add, (k1, k4, k1)), (np.multiply, (k1, sixth, k1)), (np.add, (y, k1, y))])

    def advance(rows: np.ndarray):
        for step in range(rows.shape[1] // 2):
            i = 2 * (step % DRIVE_BLOCK)
            if i == 0:  # the next DRIVE_BLOCK steps' substeps, two per step, and their end
                tab = coefficients(rows[:, 2 * step:2 * (step + DRIVE_BLOCK) + 1])
            for substep, calls in zip((i, i + 1, i + 2), runs):
                np.copyto(coef, tab[substep])
                for f, args in calls:
                    f(*args)
            yield y

    return advance


def evolve(seq: PulseSequence, params: TransmonParams, grid: TimeGrid,
           dissipative: bool = True, rho0: Optional[np.ndarray] = None) -> BatchResult:
    """Integrate one cell by step matrices, keeping every sample's state: a batch of one.

    rho0 is read as _initial_state says.  Raises NumericalError at the
    first sample that fails _sample_checks.
    """
    result = _integrate([seq], params, grid, dissipative, rho0, True, True, _step_matrices)
    raise_if_all_failed(result)
    return result


def evolve_chunk(seqs: Sequence[PulseSequence], params: TransmonParams, grid: TimeGrid,
                 dissipative: bool = True, rho0: Optional[np.ndarray] = None,
                 store_states: bool = False, series: bool = True) -> BatchResult:
    """Integrate one chunk of cells on a shared grid by the row kernel.

    rho0 is every cell's initial state, read as _initial_state says.  Each
    cell's first sample failing _sample_checks is recorded as its failure;
    the other cells run on.  Without series the populations are None.
    """
    return _integrate(seqs, params, grid, dissipative, rho0, store_states, series, _row_kernel)


def run_batch(seqs: Sequence[PulseSequence], params: TransmonParams, grid: TimeGrid,
              dissipative: bool = True, rho0: Optional[np.ndarray] = None,
              workers: int = 1, chunk_size: Optional[int] = None, series: bool = True) -> BatchResult:
    """Run all cells chunk by chunk, optionally over a process pool.

    One width sizes the chunks and the pool: min(workers, the CPUs the
    process may run on), counted by os.sched_getaffinity, else
    os.cpu_count().  A chunk is a slice of chunk_size cells.  By default the
    cells fall into min(width, n_cells // CHUNK_SIZE) chunks, at least one,
    of equal size but the last, which may hold fewer: a worker process pays
    the kernel's per-step numpy dispatch in full, so a chunk of fewer than
    CHUNK_SIZE cells would not repay its fork, and a chunk beyond the width
    would only wait for a CPU.  The pool has one process per chunk, at most
    the width, and is not started when that is one.  Each cell's arithmetic
    is independent of its chunk, so every partition, serial or parallel,
    produces identical bytes.  A chunk whose cells do not share a drive
    holds a drive block of (2, 2 BLOCK + 1, cells) complex values, 16 kB per
    cell.  Without series each cell keeps only its final and peak
    populations, so the result, and each worker's, holds O(cells) data.  A
    failed cell is recorded in failures while the others run on; when every
    cell fails, NumericalError names the first one's step and time.
    No sequence, or a chunk_size that is not an integer >= 1, raises
    ConfigurationError.
    """
    if not seqs:
        raise ConfigurationError("a batch needs at least one pulse sequence")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    width = min(workers, cpus)
    if chunk_size is None:
        chunk_size = -(-len(seqs) // max(1, min(width, len(seqs) // CHUNK_SIZE)))
    elif not (isinstance(chunk_size, numbers.Integral) and chunk_size >= 1):
        raise ConfigurationError(f"chunk_size must be an integer >= 1, got {chunk_size!r}")
    chunks = [seqs[a:a + chunk_size] for a in range(0, len(seqs), chunk_size)]
    run = partial(evolve_chunk, params=params, grid=grid, dissipative=dissipative, rho0=rho0, series=series)
    procs = min(width, len(chunks))
    if procs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=procs) as pool:
            results = list(pool.map(run, chunks))
    else:
        results = list(map(run, chunks))

    result = results[0] if len(results) == 1 else BatchResult(results[0].times, *(
        None if getattr(results[0], f) is None else np.concatenate([getattr(r, f) for r in results])
        for f in ("populations", "final", "peak", "trace_drift", "min_eig")),
        tuple((k * chunk_size + c, *rest) for k, r in enumerate(results) for c, *rest in r.failures))
    raise_if_all_failed(result)
    return result
