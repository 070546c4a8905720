"""Dense reference forms of the rotating-frame Hamiltonians and the master equation.

The batch kernel assembles its right-hand side from a coupling list and a
superoperator; these are the textbook matrices the tests check it against.
They import nothing from stirap._batch or stirap.experiments, so an error
in the kernel cannot leak into its references.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from stirap.errors import ConfigurationError
from stirap.hamiltonian import DriveSample, SplitSpec
from stirap.lindblad import LindbladSpec
from stirap.units import mhz_to_rad_ns


def build_rotating_hamiltonian(s: DriveSample) -> np.ndarray:
    """Three-level rotating-frame Hamiltonian, rad/ns (hbar = 1).

    H = (1/2) [[0,         A01*,      0     ],
               [A01,       2 d01,     A12   ],
               [0,         A12*,      2(d01+d12)]],
    with A_ij = Omega_ij exp(-i phi_ij).  Hermitian by construction.
    """
    a01 = s.omega01 * np.exp(-1j * s.phi01)
    a12 = s.omega12 * np.exp(-1j * s.phi12)
    h = np.zeros((3, 3), dtype=complex)
    h[1, 0] = 0.5 * a01
    h[0, 1] = np.conj(h[1, 0])
    h[1, 2] = 0.5 * a12
    h[2, 1] = np.conj(h[1, 2])
    h[1, 1] = s.delta01
    h[2, 2] = s.delta01 + s.delta12
    return h


def build_split_hamiltonian(s: DriveSample, split: Optional[SplitSpec]) -> np.ndarray:
    """4-level Hamiltonian in the basis {|0>, |1a>, |1b>, |2>}, rad/ns.

    The intermediate branches sit at delta01 -+ omega_split/2 and couple
    to |0> and |2> with the branch-weighted drive amplitudes.
    """
    if split is None:
        raise ConfigurationError("split spec required for the 4-level Hamiltonian")
    wa, wb = split.branch_weights
    omega_split = mhz_to_rad_ns(split.delta_split_mhz)
    a01 = s.omega01 * np.exp(-1j * s.phi01)
    a12 = s.omega12 * np.exp(-1j * s.phi12)
    h = np.zeros((4, 4), dtype=complex)
    h[1, 0] = 0.5 * wa * a01
    h[2, 0] = 0.5 * wb * a01
    h[1, 3] = 0.5 * wa * a12
    h[2, 3] = 0.5 * wb * a12
    h[0, 1] = np.conj(h[1, 0])
    h[0, 2] = np.conj(h[2, 0])
    h[3, 1] = np.conj(h[1, 3])
    h[3, 2] = np.conj(h[2, 3])
    h[1, 1] = s.delta01 - omega_split / 2.0
    h[2, 2] = s.delta01 + omega_split / 2.0
    h[3, 3] = s.delta01 + s.delta12
    return h


def lindblad_rhs(rho, h: np.ndarray, spec: LindbladSpec) -> np.ndarray:
    """Right-hand side of the master equation; traceless and Hermitian."""
    r = np.asarray(rho, dtype=complex)
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
