"""Vectorized many-trajectory RK4 for parameter sweeps.

Integrates a batch of independent systems that share the time grid and
dissipator but differ in their pulse sequences (amplitudes, detunings,
timing).  The state is held cells-last, shape (dim*dim, n_cells), and the
right-hand side is written out entry by entry from the fixed sparsity of
H and of the dissipator, so no step calls BLAS and each cell's arithmetic
does not depend on the other cells of its chunk.  Cells are processed in
fixed-size chunks so results are bit-identical regardless of how chunks
are distributed over workers.  For sequences of Gaussian pulses the
numerics match lindblad.evolve step for step; the batch does not split
the grid at FastPulse edges as evolve does, so HYBRID sequences differ.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigurationError
from .hamiltonian import TransmonParams
from .lindblad import LindbladSpec, TimeGrid, build_dissipators, check_step
from .pulses import PulseSequence, Transition
from .units import mhz_to_rad_ns

CHUNK_SIZE = 128


@dataclass
class BatchResult:
    times: np.ndarray  # (n_samples,)
    populations: np.ndarray  # (n_cells, n_samples, dim)
    trace_drift: np.ndarray  # (n_cells,)
    min_eig: np.ndarray  # (n_cells,)
    failures: Tuple[Tuple[int, str], ...] = ()

    def peak(self, level: int) -> np.ndarray:
        return self.populations[:, :, level].max(axis=1)

    def final(self, level: int) -> np.ndarray:
        return self.populations[:, -1, level]


def _couplings(dim: int, params: TransmonParams):
    """(row, col, transition, weight) with H[row, col] = weight * A_transition / 2.

    The only dimension-specific data of the kernel; H[col, row] is the
    complex conjugate.
    """
    if dim == 3:
        return ((1, 0, 0, 1.0), (1, 2, 1, 1.0))
    wa, wb = params.split.branch_weights
    return ((1, 0, 0, wa), (2, 0, 0, wb), (1, 3, 1, wa), (2, 3, 1, wb))


def _envelopes(seq: PulseSequence) -> tuple:
    """The pulses without their detunings, which enter only the diagonal of H."""
    return tuple(replace(p, detuning=0.0) for p in seq.pulses)


def _chunk_drive(seqs: Sequence[PulseSequence], t_half: np.ndarray, dim: int,
                 params: TransmonParams):
    """Drive amplitudes on the half-step grid and level energies, cells last.

    a01 and a12 have shape (n_sub, m): m = 1 when every cell's pulses are
    equal apart from their detunings, so the cells share one drive, and
    m = n_cells otherwise.  The energies have shape (dim, n_cells).
    """
    shared = _envelopes(seqs[0])
    drive_seqs = seqs[:1] if all(_envelopes(s) == shared for s in seqs[1:]) else seqs
    a01 = np.empty((t_half.size, len(drive_seqs)), dtype=complex)
    a12 = np.empty_like(a01)
    for c, seq in enumerate(drive_seqs):
        a01[:, c] = seq.complex_amplitude(Transition.T01, t_half)
        a12[:, c] = seq.complex_amplitude(Transition.T12, t_half)
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
    return a01, a12, energies


def evolve_chunk(
    seqs: Sequence[PulseSequence],
    params: TransmonParams,
    grid: TimeGrid,
    dim: int = 3,
    dissipative: bool = True,
    rho0: Optional[np.ndarray] = None,
) -> BatchResult:
    """Integrate one chunk of cells on a shared grid; density-matrix path.

    A cell whose state stops being finite is recorded as failed at the
    first sampled step where that shows; the other cells run on.
    """
    if dim == 4 and params.split is None:
        raise ConfigurationError("4-level batch needs transmon split parameters")
    n_cells = len(seqs)
    n = grid.n_steps
    dt = grid.dt
    t_half = grid.t_start + 0.5 * dt * np.arange(2 * n + 1)
    a01, a12, energies = _chunk_drive(seqs, t_half, dim, params)
    drives = (a01, a12)
    couplings = _couplings(dim, params)

    spec = build_dissipators(params, dim) if dissipative else LindbladSpec(jumps=())
    dsup = spec.superoperator(dim)
    # Liouvillian diagonal at vec index a*dim + b: -i(E_a - E_b) + D[k, k]
    ldiag = (-1j * (energies[:, None, :] - energies[None, :, :])).reshape(dim * dim, n_cells)
    ldiag += np.diag(dsup)[:, None]
    off = dsup != 0
    np.fill_diagonal(off, False)
    jumps = [(k, l, dsup[k, l]) for k, l in zip(*np.nonzero(off))]

    if rho0 is None:
        rho0 = np.zeros((dim, dim), dtype=complex)
        rho0[0, 0] = 1.0
    rho = np.repeat(np.asarray(rho0, dtype=complex).reshape(-1, 1), n_cells, axis=1)

    sample_steps = set(range(0, n + 1, grid.sample_stride)) | {n}
    n_samples = len(sample_steps)
    times = np.empty(n_samples)
    pops = np.empty((n_cells, n_samples, dim))
    max_drift = np.zeros(n_cells)
    min_eig = np.zeros(n_cells)
    diverged = {}

    tmp = np.empty((dim, n_cells), dtype=complex)

    def coefficients(i_sub: int):
        """(-i H[row, col], -i H[col, row]) per coupling at one substep."""
        return [((-0.5j * w) * drives[tr][i_sub], (-0.5j * w) * np.conj(drives[tr][i_sub]))
                for _, _, tr, w in couplings]

    def views(a: np.ndarray):
        """The array with its rows [k, :] and columns [:, k] as (dim, n_cells) views."""
        a3 = a.reshape(dim, dim, n_cells)
        return a, [a3[k] for k in range(dim)], [a3[:, k] for k in range(dim)]

    def rhs(coefs, y, out):
        (ya, yr, yc), (oa, orow, ocol) = y, out
        np.multiply(ldiag, ya, out=oa)
        for (r, c, _, _), (p, q) in zip(couplings, coefs):
            np.add(orow[r], np.multiply(yr[c], p, out=tmp), out=orow[r])
            np.add(orow[c], np.multiply(yr[r], q, out=tmp), out=orow[c])
            np.subtract(ocol[c], np.multiply(yc[r], p, out=tmp), out=ocol[c])
            np.subtract(ocol[r], np.multiply(yc[c], q, out=tmp), out=ocol[r])
        for k, l, v in jumps:
            np.add(oa[k], np.multiply(ya[l], v, out=tmp[0]), out=oa[k])

    sample_i = 0

    def record(step: int):
        nonlocal sample_i
        t = grid.t_start + step * dt
        finite = np.isfinite(rho).all(axis=0)
        for c in np.flatnonzero(~finite):
            diverged.setdefault(int(c), f"non-finite state at step {step} (t = {t:.3f} ns)")
        diag = rho[::dim + 1]
        tr = diag.sum(axis=0)
        drift = np.abs(tr.real - 1.0) + np.abs(tr.imag)
        r = rho.reshape(dim, dim, n_cells)[:, :, finite].transpose(2, 0, 1)
        herm = 0.5 * (r + np.conj(np.swapaxes(r, 1, 2)))
        eigs = np.linalg.eigvalsh(herm)
        np.maximum(max_drift, drift, out=max_drift)
        min_eig[finite] = np.minimum(min_eig[finite], eigs[:, 0])
        times[sample_i] = t
        pops[:, sample_i, :] = diag.real.T
        sample_i += 1

    k1, k2, k3, k4, yt = (np.empty_like(rho) for _ in range(5))
    v_rho, v_yt, v1, v2, v3, v4 = (views(a) for a in (rho, yt, k1, k2, k3, k4))
    c_next = coefficients(0)
    # a diverged cell overflows on its way to inf/nan; record() reports it
    with np.errstate(over="ignore", invalid="ignore"):
        record(0)
        for step in range(n):
            i = 2 * step
            c_start, c_mid, c_next = c_next, coefficients(i + 1), coefficients(i + 2)
            rhs(c_start, v_rho, v1)
            np.multiply(k1, 0.5 * dt, out=yt)
            yt += rho
            rhs(c_mid, v_yt, v2)
            np.multiply(k2, 0.5 * dt, out=yt)
            yt += rho
            rhs(c_mid, v_yt, v3)
            np.multiply(k3, dt, out=yt)
            yt += rho
            rhs(c_next, v_yt, v4)
            # rho += dt/6 * (k1 + 2 k2 + 2 k3 + k4), summed left to right
            k2 *= 2.0
            k1 += k2
            k3 *= 2.0
            k1 += k3
            k1 += k4
            k1 *= dt / 6.0
            rho += k1
            if (step + 1) in sample_steps:
                record(step + 1)

    failures = []
    for c in range(n_cells):
        if c in diverged:
            failures.append((c, diverged[c]))
        elif max_drift[c] > 1e-6:
            failures.append((c, f"trace drift {max_drift[c]:.3e}"))
        elif min_eig[c] < -1e-6:
            failures.append((c, f"negative eigenvalue {min_eig[c]:.3e}"))
    return BatchResult(
        times=times,
        populations=pops,
        trace_drift=max_drift,
        min_eig=min_eig,
        failures=tuple(failures),
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
    parallel runs produce identical bytes.
    """
    for seq in seqs:
        check_step(seq, grid)
    chunks = [list(range(i, min(i + chunk_size, len(seqs)))) for i in range(0, len(seqs), chunk_size)]
    args = [([seqs[i] for i in ch], params, grid, dim, dissipative, rho0) for ch in chunks]
    if workers > 1 and len(chunks) > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_one_chunk, args))
    else:
        results = [_run_one_chunk(a) for a in args]

    times = results[0].times
    pops = np.concatenate([r.populations for r in results], axis=0)
    drift = np.concatenate([r.trace_drift for r in results])
    min_eig = np.concatenate([r.min_eig for r in results])
    failures: List[Tuple[int, str]] = []
    for ch, r in zip(chunks, results):
        failures.extend((ch[c], msg) for c, msg in r.failures)
    return BatchResult(times=times, populations=pops, trace_drift=drift,
                       min_eig=min_eig, failures=tuple(failures))


def _run_one_chunk(args) -> BatchResult:
    seqs, params, grid, dim, dissipative, rho0 = args
    return evolve_chunk(seqs, params, grid, dim, dissipative, rho0)
