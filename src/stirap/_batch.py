"""Vectorized many-trajectory RK4: the package's one integrator.

Integrates a batch of independent cells (a Cells record) that share the
time grid, the transmon and its loss channels (lindblad.dissipator) but
differ in their drive and detunings.  The transmon fixes the level count d
(TransmonParams.n_levels): 3, or 4 with a split |1>.  A density matrix is
held cells-last, shape (d*d, n_cells); a dissipationless run from a state
vector, |0> by default, propagates the vector, shape (d, n_cells), by the
Schrodinger equation, with RHS -iH psi.

RK4 and the generator are written once, as the row kernel's calls, which
run two ways through one block loop (_integrate) that judges the sampled
states, a buffer of at most SAMPLE_ENTRIES entries at a time, by one
_sample_checks call.  The row kernel uses that the Lindblad generator
preserves Hermiticity: a density matrix's RHS is X + X^H with
X = -iH rho + D(rho)/2 (a channel damps each entry at a real rate symmetric
in (a, b), and its jump moves population only), so both modes run only row
updates from H's couplings and D's channels, one group of terms with a
common row offset per call (_offset_groups), and every state is exactly
Hermitian.  A chunk builds its RK4 step once, as (ufunc, operands) calls
over fixed views with out positional: 49 (d = 3) or 73 (d = 4) per
density-matrix step, plus three copies of a substep's drive coefficients
into one buffer.  No step calls BLAS and each cell's arithmetic is
independent of its chunk, so results are bit-identical at any chunk size
and however chunks are distributed over workers.  evolve_chunk steps its
cells by these calls, and evolve one cell by step matrices (y <- M y per
step) whose columns are the calls' step of a basis, DRIVE_BLOCK steps at a
time; evolve takes run_batch's arguments for one sequence and keeps every
sample's state.  run_batch chunks the cells, integrating only the first
half of point-symmetric ones, and _assemble builds every result, evolve's
a batch of one, in which a failed cell reads NaN.

H(t) is sampled at every RK4 substep time (t, t+dt/2, t+dt), which keeps
the scheme 4th order for smooth drives.  Both ways sample it one block
of steps at a time (_drive_block), and a FastPulse edge on a grid point ends
a block: the block ending there takes its last sample from the left limit of
the drive and the next its first from the right limit, so no stage straddles
the discontinuity; lindblad.check_step rejects an edge off the grid.
"""

from __future__ import annotations

import contextlib
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
from .pulses import GaussianPulse, PulseSequence, Transition

CHUNK_SIZE = 128  # fewest cells a default chunk of a larger batch holds
BLOCK = 256  # steps whose drive is sampled at a time
SAMPLE_ENTRIES = 1 << 16  # most sampled state entries held before they are judged
DRIVE_BLOCK = 32  # steps whose drive coefficients the row kernel tabulates at a time
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
    final: np.ndarray  # (n_cells, dim) populations at the last sample, NaN for a cell run_batch failed
    peak: np.ndarray  # (n_cells, dim) each level's largest sampled population, NaN if any is
    trace_drift: np.ndarray  # (n_cells,) max |trace - 1|, or |norm^2 - 1| for a ket
    min_eig: np.ndarray  # (n_cells,)
    failures: Tuple[Tuple[int, int, str], ...] = ()  # (cell, first failing sampled step, message)
    states: Optional[np.ndarray] = None  # (n_cells, n_samples, dim*dim or dim); evolve keeps them


@dataclass(frozen=True, eq=False)
class Cells:
    """A batch's cells: drive holds a pulse sequence per cell, or one whose pulses all
    share, and delta01 and delta12 each cell's detunings, rad/ns, as float64 arrays
    (a drive sequence's own go unread).  len() counts them, at least one; a slice is a chunk."""

    drive: Tuple[PulseSequence, ...]
    delta01: np.ndarray
    delta12: np.ndarray

    def __post_init__(self):
        if not len(self):
            raise ConfigurationError("a batch needs at least one pulse sequence")

    @classmethod
    def of(cls, seqs: Sequence[PulseSequence]) -> "Cells":
        """One cell per sequence, at its own detunings."""
        return cls(tuple(seqs), *(np.array([getattr(s, d) for s in seqs], float) for d in ("delta01", "delta12")))

    def __len__(self) -> int:
        return len(self.delta01)

    def __getitem__(self, s: slice) -> "Cells":
        return Cells(self.drive if len(self.drive) == 1 else self.drive[s], self.delta01[s], self.delta12[s])


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


def _chunk_drive(cells: Cells, grid: TimeGrid, params: TransmonParams):
    """The drive columns, the time blocks and the level energies, cells last.

    A drive column is (sequence, its edge steps, from lindblad.check_step), one per sequence
    of cells.drive.  The blocks [k0, k1) are cut every BLOCK steps and at every column's edge
    step but n_steps.  The energies, (n_levels, n_cells), are 0, d01 + each branch's offset, d01 + d12.
    """
    drive = [(seq, check_step(seq, grid)) for seq in cells.drive]
    cuts = sorted(set(range(0, grid.n_steps, BLOCK)).union(*(edges for _, edges in drive)) - {grid.n_steps})
    blocks = list(zip(cuts, cuts[1:] + [grid.n_steps]))
    energies = np.zeros((params.n_levels, len(cells)))
    energies[1:-1] = cells.delta01 + np.array([[offset] for offset, _ in params.branches])
    energies[-1] = cells.delta01 + cells.delta12
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
    """The validated initial state and the dissipator's channels, None for a ket.

    rho0 is |0><0| by default with dissipation and the ket |0> without; with
    d = params.n_levels, one of a shape other than (d,) or (d, d) raises
    ConfigurationError, a matrix not Hermitian to HERMITICITY_TOL
    NumericalError.  A state vector without dissipation is propagated as
    a ket; with dissipation it stands for its projector.  A matrix without
    dissipation runs with no channel.
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
    # exactly Hermitian, which X + X^H keeps
    return 0.5 * (init + init.conj().T), dissipator(params) if dissipative else ()


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


def _integrate(cells: Cells, params: TransmonParams, grid: TimeGrid,
               dissipative: bool, rho0: Optional[np.ndarray], store_states: bool, series: bool,
               realisation) -> BatchResult:
    """The block loop both ways of stepping run through.

    realisation(y, channels, energies, params, dt, n_drive) returns advance(rows),
    which takes y, the cells-last initial state, through one _chunk_drive
    block given its _drive_block rows (n_drive columns) and yields the state
    after each step.  The states at the sampled steps (step 0 first) are
    copied into one buffer of at most SAMPLE_ENTRIES entries (and at least
    one sample) or a block's samples, judged by one _sample_checks call
    when it is full or at a block's end, and folded into the result: each
    cell's final and peak populations, maximum drift and minimum
    eigenvalue, its first failing sample's step and message, and, with
    series, its populations at every sample; a failed cell runs on.
    """
    init, channels = _initial_state(params, dissipative, rho0)
    n_cells, dim = len(cells), params.n_levels
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
        p, drift, eig, bad = _sample_checks(block, channels is None, np.repeat(at, n_cells), grid)
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
        drive, blocks, energies = _chunk_drive(cells, grid, params)
        advance = realisation(y, channels, energies, params, grid.dt, len(drive))
        take(y)  # step 0
        for k0, k1 in blocks:
            for k, yk in zip(range(k0 + 1, k1 + 1), advance(_drive_block(drive, grid, k0, k1))):
                if k in sampled:
                    take(yk)
            if held:
                judge()
    return BatchResult(grid.t_start + steps * grid.dt, pops, final, peak, max_drift, min_eig,
                       tuple((c, *failed[c]) for c in sorted(failed)), states)


def _step_matrices(y: np.ndarray, channels: Optional[tuple], energies: np.ndarray,
                   params: TransmonParams, dt: float, n_drive: int):
    """evolve's realisation: one cell's RK4 as step matrices, y <- M y per step.

    An RK4 step is linear in the state, so M's columns are the row kernel's
    step of a basis: the unit vectors for a ket, and for a density matrix,
    which the kernel steps only when Hermitian, E_aa, E_ab + E_ba and
    i(E_ab - E_ba) for a < b, M first mapping vec rho to their coordinates.
    One kernel step of DRIVE_BLOCK * len(y) columns, column (k, j) basis
    state j driven by the substeps of step k, gives DRIVE_BLOCK steps' M.
    """
    n, e = len(y), np.eye(params.n_levels)
    if channels is None:
        basis = np.eye(n, dtype=complex)
    else:
        basis = np.array([(s * np.outer(e[a], e[b]) + np.conj(s) * np.outer(e[b], e[a])).ravel()
                          for a in range(len(e)) for b in range(a, len(e))
                          for s in ((0.5,) if a == b else (1.0, 1j))]).T
        coords = basis.conj().T / (np.abs(basis) ** 2).sum(axis=0)[:, None]  # exactly basis^-1
    cols = np.tile(basis, DRIVE_BLOCK)  # column k * n + j holds basis state j
    yb = cols.copy()
    kernel = _row_kernel(yb, channels, np.repeat(energies, cols.shape[1], axis=1), params, dt, cols.shape[1])
    drive = np.zeros((2, 3, DRIVE_BLOCK, n), dtype=complex)  # each column's start, midpoint, end
    v = y[:, 0]

    def advance(rows: np.ndarray):
        nonlocal v
        steps = rows.shape[1] // 2
        substeps = np.stack([rows[:, s:s + 2 * steps:2, 0] for s in range(3)], axis=1)
        for k0 in range(0, steps, DRIVE_BLOCK):
            run = substeps[:, :, k0:k0 + DRIVE_BLOCK]
            drive[:, :, :run.shape[2]] = run[..., None]
            np.copyto(yb, cols)
            next(kernel(drive.reshape(2, 3, -1)))
            ms = yb.reshape(n, DRIVE_BLOCK, n).transpose(1, 0, 2)[:run.shape[2]]
            for m in (ms if channels is None else ms @ coords):
                v = m @ v
                yield v[:, None]

    return advance


def _row_kernel(y: np.ndarray, channels: Optional[tuple], energies: np.ndarray,
                params: TransmonParams, dt: float, n_drive: int):
    """The one RK4 step, by row updates on the cells-last y, in place."""
    ket = channels is None
    dim, n_cells = params.n_levels, y.shape[1]
    couplings = _couplings(params)

    if ket:
        ldiag, jumps = -1j * energies, []
    else:
        # X's diagonal at vec index a*dim + b: (-i(E_a - E_b) + D_ab) / 2, where channel
        # (i, j, rate) adds rate * ([a = b = i = j] - ([a = j] + [b = j]) / 2) to D_ab
        e, d = np.eye(dim), np.zeros((dim, dim))
        for i, j, rate in channels:
            d += rate * (np.outer(e[i], e[i]) * (i == j) - 0.5 * (e[j][:, None] + e[j]))
        ldiag = (-0.5j * (energies[:, None, :] - energies[None, :, :])).reshape(dim * dim, n_cells)
        ldiag += 0.5 * d.reshape(-1, 1)
        jumps = [(i, j, complex(0.5 * rate)) for i, j, rate in channels if i != j]  # complex: no cast per call

    # term 2j adds -i H[r, c] y[c, :] to row r of X and term 2j + 1 -i H[c, r] y[r, :]
    # to row c, for coupling j, and a jump its rate times rho_ll to rho_kk; a row of X
    # sums its diagonal term, then its coupling terms and its jumps, each in list order
    groups = _offset_groups([t for r, c, _, _ in couplings for t in ((r, c), (c, r))])
    jump_groups = _offset_groups([(i, j) for i, j, _ in jumps])
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

    rho0 is read as _initial_state says.  _assemble builds the result, and raises
    NumericalError at the first sample that fails _sample_checks.
    """
    return _assemble([_integrate(Cells.of([seq]), params, grid, dissipative, rho0, True, True, _step_matrices)],
                     1, params, grid)


def evolve_chunk(seqs: Cells, params: TransmonParams, grid: TimeGrid,
                 dissipative: bool = True, rho0: Optional[np.ndarray] = None,
                 store_states: bool = False, series: bool = True) -> BatchResult:
    """Integrate one chunk of cells on a shared grid by the row kernel.

    rho0 is every cell's initial state, read as _initial_state says.  Each
    cell's first sample failing _sample_checks is recorded as its failure;
    the other cells run on.  Without series the populations are None.
    """
    return _integrate(seqs, params, grid, dissipative, rho0, store_states, series, _row_kernel)


def _point_symmetric(cells: Cells, params: TransmonParams) -> bool:
    """Whether cell K-1-k has cell k's populations, the branches swapped by offset negation.

    Negating both detunings maps the master equation onto its complex conjugate, up to a
    diagonal gauge, when every drive phase is constant and the (-offset, weight) pairs are
    the (offset, weight) pairs; decay and dephasing commute with both, and both fix |0>.
    So it holds when the cells share one drive of constant-phase Gaussians and each
    detuning array is its reverse negated, compared a block at a time (no O(cells) temporary).
    """
    return (len(cells.drive) == 1
            and all(np.array_equal(d[a:a + SAMPLE_ENTRIES], -d[::-1][a:a + SAMPLE_ENTRIES])
                    for d in (cells.delta01, cells.delta12) for a in range(0, len(d), SAMPLE_ENTRIES))
            and all(isinstance(p, GaussianPulse) and p.phase_ramp is None for p in cells.drive[0].pulses)
            and sorted((-o, w) for o, w in params.branches) == sorted(params.branches))


def _assemble(results, n_cells: int, params: TransmonParams, grid: TimeGrid) -> BatchResult:
    """The BatchResult of n_cells cells, run_batch's or evolve's, from its chunks', which hold the first ones in
    order.  Each cell n_cells-1-k past them mirrors cell k (_point_symmetric): its branch columns swapped,
    its failure record under its own cell.  A failed cell's final and peak, and its populations from its
    first failing sample on, read NaN.  A single chunk with no mirrored cell comes back uncopied."""
    starts = np.cumsum([0, *(len(r.final) for r in results)]).tolist()  # each chunk's first cell, then ran
    ran, branches = starts[-1], params.branches
    back = np.arange(n_cells - ran)[::-1]  # the cells each mirrored cell copies, in cell order
    cols = [0, *(1 + (branches.index((-o, w)) if o else i) for i, (o, w) in enumerate(branches)),
            len(branches) + 1] if back.size else slice(None)

    def join(name):
        parts = [getattr(r, name) for r in results]
        if parts[0] is None or (len(parts) == 1 and not back.size):
            return parts[0]
        out = np.empty((n_cells, *parts[0].shape[1:]), dtype=parts[0].dtype)
        np.concatenate(parts, out=out[:ran])
        out[ran:] = out[back] if out.ndim == 1 else out[back][..., cols]
        return out

    failures = tuple((a + c, *rest) for a, r in zip(starts, results) for c, *rest in r.failures)
    if len(failures) == ran:  # the first names its step and time
        raise NumericalError(failures[0][2])
    failures = tuple(sorted(failures + tuple((n_cells - 1 - c, *rest) for c, *rest in failures if c < back.size)))
    pops, final, peak, drift, min_eig, states = map(join, ("populations", "final", "peak", "trace_drift",
                                                           "min_eig", "states"))
    for c, step, _ in failures:
        final[c] = peak[c] = np.nan
        if pops is not None:
            pops[c, np.searchsorted(grid.sample_steps, step):] = np.nan
    return BatchResult(results[0].times, pops, final, peak, drift, min_eig, failures, states)


def run_batch(seqs: Cells, params: TransmonParams, grid: TimeGrid,
              dissipative: bool = True, rho0: Optional[np.ndarray] = None,
              workers: int = 1, chunk_size: Optional[int] = None, series: bool = True) -> BatchResult:
    """Run all cells chunk by chunk, optionally over a process pool, and _assemble the result.

    From the default rho0, cells that are _point_symmetric integrate only the first
    ceil(n_cells / 2).  One width sizes the chunks and the pool: min(workers, the CPUs
    the process may run on), counted by os.sched_getaffinity, else os.cpu_count().  A
    chunk is a slice of chunk_size integrated cells.  By default they fall into
    min(width, n // CHUNK_SIZE) chunks, at least one, of equal size but the last, which
    may hold fewer: a worker process pays the kernel's per-step numpy dispatch in full,
    so a chunk of fewer than CHUNK_SIZE cells would not repay its fork, and a chunk
    beyond the width would only wait for a CPU.  The pool has one process per chunk, at
    most the width, and is not started when that is one.  Each cell's arithmetic is
    independent of its chunk, so every partition, serial or parallel, produces identical
    bytes.  A chunk whose cells do not share a drive holds a drive block of
    (2, 2 BLOCK + 1, cells) complex values, 16 kB per cell.  Without series each cell
    keeps only its final and peak populations, so the result, and each worker's, holds
    O(cells) data.  A failed cell is recorded in failures while the others run on; when
    every cell fails, NumericalError names the first one's step and time, and a chunk
    that runs out of memory or whose worker process dies raises NumericalError naming
    its cells.  A chunk_size that is not an integer >= 1 raises ConfigurationError.
    """
    n_cells = len(seqs)
    ran = n_cells - n_cells // 2 if rho0 is None and _point_symmetric(seqs, params) else n_cells
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    width = min(workers, cpus)
    if chunk_size is None:
        chunk_size = -(-ran // max(1, min(width, ran // CHUNK_SIZE)))
    elif not (isinstance(chunk_size, numbers.Integral) and chunk_size >= 1):
        raise ConfigurationError(f"chunk_size must be an integer >= 1, got {chunk_size!r}")
    chunks = [seqs[a:min(a + chunk_size, ran)] for a in range(0, ran, chunk_size)]
    run = partial(evolve_chunk, params=params, grid=grid, dissipative=dissipative, rho0=rho0, series=series)
    procs = min(width, len(chunks))
    if procs > 1:
        import concurrent.futures as cf
    results = []
    with cf.ProcessPoolExecutor(max_workers=procs) if procs > 1 else contextlib.nullcontext() as pool:
        try:
            for r in (pool.map if pool else map)(run, chunks):
                results.append(r)
        # numpy's _ArrayMemoryError is a MemoryError, and a pool's BrokenProcessPool a BrokenExecutor
        except (MemoryError, cf.BrokenExecutor if pool else MemoryError) as exc:
            a = len(results) * chunk_size
            what = "memory ran out" if isinstance(exc, MemoryError) else "a worker process died"
            raise NumericalError(f"cells {a} to {min(a + chunk_size, ran) - 1}: {what} ({exc})") from None
    return _assemble(results, n_cells, params, grid)
