"""Dense reference forms of the rotating-frame Hamiltonians and the master equation.

The batch kernel assembles its right-hand side from a coupling list and the
loss channels of stirap.lindblad.dissipator; these are the textbook matrices,
built from the complex drive amplitudes and detunings, the jump operators
the tests check those channels against, and dop853_populations, the tests' one DOP853
solution of the master equation they define.  They import nothing from
stirap._batch, stirap.lindblad or stirap.experiments, so an error in the
kernel or its dissipator cannot leak into its references.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from stirap.errors import ConfigurationError
from stirap.hamiltonian import SplitSpec, TransmonParams
from stirap.pulses import PulseSequence, Transition
from stirap.units import mhz_to_rad_ns


def build_rotating_hamiltonian(a01, a12, delta01=0.0, delta12=0.0) -> np.ndarray:
    """Three-level rotating-frame Hamiltonian, rad/ns (hbar = 1).

    H = (1/2) [[0,         A01*,      0     ],
               [A01,       2 d01,     A12   ],
               [0,         A12*,      2(d01+d12)]],
    with the complex drive amplitudes A_ij = Omega_ij exp(-i phi_ij).
    Hermitian by construction.
    """
    h = np.zeros((3, 3), dtype=complex)
    h[1, 0] = 0.5 * a01
    h[0, 1] = np.conj(h[1, 0])
    h[1, 2] = 0.5 * a12
    h[2, 1] = np.conj(h[1, 2])
    h[1, 1] = delta01
    h[2, 2] = delta01 + delta12
    return h


def build_split_hamiltonian(a01, a12, split: Optional[SplitSpec], delta01=0.0,
                            delta12=0.0) -> np.ndarray:
    """4-level Hamiltonian in the basis {|0>, |1a>, |1b>, |2>}, rad/ns.

    The intermediate branches sit at delta01 -+ omega_split/2 and couple
    to |0> and |2> with the branch-weighted drive amplitudes.
    """
    if split is None:
        raise ConfigurationError("split spec required for the 4-level Hamiltonian")
    wa, wb = split.branch_weights
    omega_split = mhz_to_rad_ns(split.delta_split_mhz)
    h = np.zeros((4, 4), dtype=complex)
    h[1, 0] = 0.5 * wa * a01
    h[2, 0] = 0.5 * wb * a01
    h[1, 3] = 0.5 * wa * a12
    h[2, 3] = 0.5 * wb * a12
    h[0, 1] = np.conj(h[1, 0])
    h[0, 2] = np.conj(h[2, 0])
    h[3, 1] = np.conj(h[1, 3])
    h[3, 2] = np.conj(h[2, 3])
    h[1, 1] = delta01 - omega_split / 2.0
    h[2, 2] = delta01 + omega_split / 2.0
    h[3, 3] = delta01 + delta12
    return h


def sequence_hamiltonian(seq: PulseSequence, t: float, split: Optional[SplitSpec] = None):
    """The dense Hamiltonian of a pulse sequence at time t: 3-level, or 4-level with a split."""
    a01, a12 = (complex(seq.complex_amplitude(tr, t)) for tr in (Transition.T01, Transition.T12))
    detunings = seq.delta01, seq.delta12
    if split is None:
        return build_rotating_hamiltonian(a01, a12, *detunings)
    return build_split_hamiltonian(a01, a12, split, *detunings)


def jump_operators(params: TransmonParams) -> List[Tuple[float, np.ndarray]]:
    """The transmon's loss channels as (rate in 1/ns, jump operator L).

    Relaxation |1> -> |0> at Gamma10 and |2> -> |1> at Gamma21, and pure
    dephasing by the projectors |1><1| and |2><2| at twice the dephasing
    rates, so that the 0-1 coherence decays at gamma_phi10.  In the split
    basis {|0>, |1a>, |1b>, |2>} the branch with weight w relaxes at
    w^2 Gamma10 and w^2 Gamma21 and both branches dephase at 2 gamma_phi10;
    the split basis is used when params.split is set.
    """
    dephasing10, dephasing21 = 2.0 * params.gamma_phi10, 2.0 * params.gamma_phi21
    if params.split is None:
        g0, g1, g2 = np.eye(3, dtype=complex)
        return [(params.gamma10, np.outer(g0, g1)), (params.gamma21, np.outer(g1, g2)),
                (dephasing10, np.outer(g1, g1)), (dephasing21, np.outer(g2, g2))]
    wa, wb = params.split.branch_weights
    g0, g1a, g1b, g2 = np.eye(4, dtype=complex)
    return [(wa ** 2 * params.gamma10, np.outer(g0, g1a)),
            (wb ** 2 * params.gamma10, np.outer(g0, g1b)),
            (wa ** 2 * params.gamma21, np.outer(g1a, g2)),
            (wb ** 2 * params.gamma21, np.outer(g1b, g2)),
            (dephasing10, np.outer(g1a, g1a)), (dephasing10, np.outer(g1b, g1b)),
            (dephasing21, np.outer(g2, g2))]


def lindblad_rhs(rho, h: np.ndarray, jumps: List[Tuple[float, np.ndarray]]) -> np.ndarray:
    """Right-hand side of the master equation; traceless and Hermitian.

    jumps holds (rate, L) pairs, as jump_operators returns them.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != h.shape:
        raise ConfigurationError("state and Hamiltonian dimensions disagree")
    out = -1j * (h @ r - r @ h)
    for rate, ll in jumps:
        if ll.shape != r.shape:
            raise ConfigurationError("jump operator dimension mismatch")
        lld = ll.conj().T @ ll
        out += rate * (ll @ r @ ll.conj().T - 0.5 * (lld @ r + r @ lld))
    return out


def dop853_populations(seq, params, times, ket=False, edges=()):
    """Populations at the given times from scipy's DOP853 (rtol 1e-11).

    An independent oracle for the batch kernel: the dense Hamiltonian of
    sequence_hamiltonian (3-level, or 4-level for a split transmon) with
    lindblad_rhs and jump_operators, or the Schrodinger equation for a ket.  The
    integration restarts at each time in edges, and inside a piece the drive
    is sampled 1e-9 ns inside it, so no step straddles a FastPulse edge.
    """
    from scipy.integrate import solve_ivp

    jumps = jump_operators(params)
    dim = 3 if params.split is None else 4
    y = np.zeros(dim if ket else dim * dim, dtype=complex)
    y[0] = 1.0
    bounds = [times[0], *edges, times[-1]]
    pops = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        def rhs(t, yr, lo=lo, hi=hi):
            h = sequence_hamiltonian(seq, min(max(t, lo + 1e-9), hi - 1e-9), params.split)
            z = yr.view(complex)
            out = -1j * (h @ z) if ket else lindblad_rhs(z.reshape(dim, dim), h, jumps).ravel()
            return out.view(float)

        inside = times[(times >= lo) & (times < hi)] if hi < times[-1] else times[times >= lo]
        sol = solve_ivp(rhs, (lo, hi), y.view(float), method="DOP853", rtol=1e-11,
                        atol=1e-13, t_eval=inside, dense_output=True)
        assert sol.success
        states = sol.y.T.copy().view(complex)
        pops.append(np.abs(states) ** 2 if ket else states[:, ::dim + 1].real)
        y = sol.sol(hi).view(complex)
    return np.vstack(pops)
