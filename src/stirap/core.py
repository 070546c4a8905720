"""State-validity tolerances and the |i><j| operator.

States are plain numpy arrays: a ket of shape (dim,) or a density
matrix of shape (dim, dim).  The batch kernel checks them against the
tolerances below.
"""

from __future__ import annotations

import numpy as np

# Largest deviation from Hermiticity an initial density matrix may carry.
HERMITICITY_TOL = 1e-10
# Bound on an integrated state's trace (or norm) drift and negative
# eigenvalues.  Fixed-step RK4 is not positivity-preserving and a run adds
# round-off over thousands of steps, so only a run going unstable leaves it.
INTEGRATION_TOL = 1e-6


def sigma_op(i: int, j: int, dim: int = 3) -> np.ndarray:
    """Operator |i><j| as a dim x dim complex matrix."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m
