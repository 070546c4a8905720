"""Complex linear-algebra primitives and density-matrix validity machinery.

States are small (3x3 or 4x4 for physics use) and immutable: wrapped
arrays are marked read-only so values can be shared freely between
concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidStateError

# Default validity tolerances for physical density matrices.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-9
# Bound on an integrated state's trace (or norm) drift and negative
# eigenvalues.  Looser than the construction tolerances above: fixed-step
# RK4 is not positivity-preserving and a run adds round-off over thousands
# of steps, so only a run going unstable leaves it.
INTEGRATION_TOL = 1e-6

ComplexMatrix = np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def sigma_op(i: int, j: int, dim: int = 3) -> ComplexMatrix:
    """Operator |i><j| as a dim x dim complex matrix."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


@dataclass(frozen=True)
class Ket:
    """A pure state; amplitudes must be normalized to 1e-8."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidStateError("ket amplitudes must be a nonempty 1-D array")
        norm2 = float(np.sum(np.abs(amps) ** 2))
        if abs(norm2 - 1.0) > 1e-8:
            raise InvalidStateError(f"ket not normalized: |norm^2 - 1| = {abs(norm2 - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_ket(j: int, dim: int = 3) -> Ket:
    amps = np.zeros(dim, dtype=complex)
    amps[j] = 1.0
    return Ket(amps)


@dataclass(frozen=True)
class ValidityReport:
    """Diagnostic output of validate_density_matrix; never raises."""

    hermiticity_dev: float
    trace_dev: float
    min_eigenvalue: float
    valid: bool
    violations: tuple = ()


def validate_density_matrix(
    rho,
    tol_trace: float = TRACE_TOL,
    tol_pos: float = POSITIVITY_TOL,
    tol_herm: float = HERMITICITY_TOL,
) -> ValidityReport:
    """Check hermiticity, unit trace, and positivity of a candidate state.

    Accepts a DensityMatrix or a raw square array so that invalid
    candidates can be diagnosed without constructing a wrapper.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag))
    herm = 0.5 * (m + m.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm)[0])
    violations = []
    if herm_dev > tol_herm:
        violations.append(f"hermiticity deviation {herm_dev:.3e} > {tol_herm:.1e}")
    if trace_dev > tol_trace:
        violations.append(f"trace deviation {trace_dev:.3e} > {tol_trace:.1e}")
    if min_eig < -tol_pos:
        violations.append(f"negative eigenvalue {min_eig:.3e} < -{tol_pos:.1e}")
    return ValidityReport(
        hermiticity_dev=herm_dev,
        trace_dev=trace_dev,
        min_eigenvalue=min_eig,
        valid=not violations,
        violations=tuple(violations),
    )


@dataclass(frozen=True)
class DensityMatrix:
    """An N x N density matrix, validated at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidStateError("density matrix must be square")
        report = validate_density_matrix(m)
        if not report.valid:
            raise InvalidStateError("invalid density matrix: " + "; ".join(report.violations))
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def dm_from_ket(psi: Ket) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    amps = psi.amplitudes
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(norm2 - 1.0) > 1e-8:
        raise InvalidStateError("ket not normalized")
    return DensityMatrix(np.outer(amps, amps.conj()))


def populations(rho: DensityMatrix) -> np.ndarray:
    """p_j = Re rho_jj for a valid density matrix."""
    report = validate_density_matrix(rho)
    if not report.valid:
        raise InvalidStateError("populations of invalid state: " + "; ".join(report.violations))
    return np.real(np.diag(rho.matrix)).copy()

