import math

import numpy as np
import pytest

from stirap.errors import ConfigurationError, NumericalError
from stirap.hamiltonian import (
    CavityParams,
    SplitSpec,
    TransmonParams,
    dark_state,
    dispersive_shifts,
)
from stirap.units import TWO_PI, mhz_to_rad_ns

from oracles import build_rotating_hamiltonian, build_split_hamiltonian


def amplitude(omega, phi=0.0):
    """The complex drive amplitude A = Omega exp(-i phi)."""
    return omega * np.exp(-1j * np.asarray(phi))


def random_drives(rng, n):
    """n resonant drives: amplitudes A01, A12 and detunings d01 = -d12."""
    om01, om12 = rng.uniform(0.01, 0.5, (2, n))
    d01 = rng.uniform(-0.3, 0.3, n)
    phi01, phi12 = rng.uniform(-math.pi, math.pi, (2, n))
    return amplitude(om01, phi01), amplitude(om12, phi12), d01


class TestBuildRotatingHamiltonian:
    def test_zero_drive_zero_matrix(self):
        h = build_rotating_hamiltonian(0.0, 0.0)
        assert np.all(h == 0)

    def test_paper_couplings(self):
        h = build_rotating_hamiltonian(mhz_to_rad_ns(43.4), mhz_to_rad_ns(38.2))
        # couplings are Omega/2 = pi * f * 1e-3
        assert abs(h[0, 1] - math.pi * 43.4e-3) < 1e-15
        assert abs(h[1, 2] - math.pi * 38.2e-3) < 1e-15
        assert np.all(np.diag(h) == 0)

    def test_exact_hermiticity(self, rng):
        for _ in range(50):
            om = rng.uniform(0, 0.5, 2)
            deltas = rng.uniform(-0.2, 0.2, 2)
            a01, a12 = amplitude(om, rng.uniform(-math.pi, math.pi, 2))
            h = build_rotating_hamiltonian(a01, a12, *deltas)
            assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_eigenvalues_match_methods_formula(self, rng):
        # at two-photon resonance the spectrum is {0, omega_pm / 2} with
        # omega_pm = d01 +- sqrt(d01^2 + O01^2 + O12^2) as conventionally
        # quoted (the Hamiltonian itself carries the factor 1/2)
        for _ in range(1000):
            om01, om12 = rng.uniform(0, 0.5, 2)
            d01 = rng.uniform(-0.3, 0.3)
            phi01, phi12 = rng.uniform(-math.pi, math.pi, 2)
            h = build_rotating_hamiltonian(amplitude(om01, phi01), amplitude(om12, phi12),
                                           d01, -d01)
            root = math.sqrt(d01**2 + om01**2 + om12**2)
            expected = np.sort([0.0, (d01 - root) / 2.0, (d01 + root) / 2.0])
            assert np.max(np.abs(np.linalg.eigvalsh(h) - expected)) < 1e-10

    def test_eigensolver_cross_check(self):
        h = build_rotating_hamiltonian(amplitude(0.3, 0.4), amplitude(0.2, -0.9), 0.1, -0.1)
        vals, vecs = np.linalg.eigh(h)
        # independent oracle: roots of the characteristic polynomial det(h - x I)
        assert np.allclose(vals, np.sort(np.roots(np.poly(h)).real), atol=1e-12)
        assert np.max(np.abs(h @ vecs - vecs * vals)) < 1e-12


class TestAdiabaticFrame:
    def test_stirap_start(self):
        d = dark_state(np.zeros(3), amplitude(np.array([0.25, 0.1, 0.4]), [0.0, 1.0, -2.0]))
        assert d.shape == (3, 3)
        assert np.all(d[:, 0] == 1.0) and np.all(d[:, 2] == 0.0)  # Theta = 0 exactly
        # a scalar sample gives one state
        assert np.array_equal(dark_state(0.0, 0.25), [1, 0, 0])

    def test_equal_amplitudes_zero_detuning(self):
        om = mhz_to_rad_ns(np.array([40.0, 5.0, 200.0]))
        d = dark_state(om, om)
        # Theta = pi/4 and phi = 0 at every sample
        assert np.max(np.abs(d[:, 0] - math.cos(math.pi / 4))) < 1e-12
        assert np.max(np.abs(d[:, 2] + math.sin(math.pi / 4))) < 1e-12

    def test_stirap_end(self):
        phi01, phi12 = np.array([0.3, -1.0, 2.5]), np.array([0.5, 3.0, -0.5])
        # an A12 of 0 carries no phase, so phi = -phi01
        d = dark_state(amplitude(np.full(3, 0.25), phi01), np.zeros(3))
        assert np.max(np.abs(d[:, 2] + np.exp(-1j * phi01))) < 1e-12
        assert np.max(np.abs(d[:, 0])) < 1e-12
        # a vanishing A12 still sets phi12, as at the end of a transfer
        d = dark_state(amplitude(np.full(3, 0.25), phi01), amplitude(np.full(3, 1e-9), phi12))
        assert np.max(np.abs(d[:, 2] + np.exp(1j * (phi12 - phi01)))) < 1e-12

    def test_dark_state_annihilated(self, rng):
        a01, a12, d01 = random_drives(rng, 200)
        dark = dark_state(a01, a12)
        for k in range(200):
            h = build_rotating_hamiltonian(a01[k], a12[k], d01[k], -d01[k])
            assert np.max(np.abs(h @ dark[k])) < 1e-10

    def test_frame_orthonormal_and_eigen(self, rng):
        a01, a12, d01 = random_drives(rng, 100)
        dark = dark_state(a01, a12)
        assert np.max(np.abs(np.einsum("ij,ij->i", dark.conj(), dark) - 1.0)) < 1e-12
        assert np.all(dark[:, 1] == 0.0)  # never touches |1>
        for k, d in enumerate(dark):
            assert np.array_equal(d, dark_state(a01[k], a12[k]))  # one sample at a time
            # orthogonal to the two bright-type eigenvectors of an independent solver
            vals, vecs = np.linalg.eigh(build_rotating_hamiltonian(a01[k], a12[k], d01[k], -d01[k]))
            others = vecs[:, np.argsort(np.abs(vals))[1:]]
            assert np.max(np.abs(others.conj().T @ d)) < 1e-10

    def test_undefined_frame(self):
        with pytest.raises(NumericalError, match="dark state undefined with both drives off"):
            dark_state(0.0, 0.0)
        # one both-off sample among defined ones is named
        with pytest.raises(NumericalError, match=r"undefined with both drives off \(sample 1\)"):
            dark_state(np.array([0.1, 0.0, 0.2]), np.array([0.3, 0.0, 0.0]))


class TestDispersiveShifts:
    def test_simple_ratio(self):
        # one transition pulls |1> by chi_01 from |0>'s -chi_01: 2 g^2 / Delta
        cav = CavityParams(f_res_mhz=6000.0, g_mhz=(50.0,), kappa_mhz=1.0)
        assert dispersive_shifts(cav, [7000.0]) == (0.0, 2 * 50.0**2 / 1000.0)

    def test_zero_coupling(self):
        cav = CavityParams(f_res_mhz=7000.0, g_mhz=(0.0, 0.0), kappa_mhz=1.0)
        assert dispersive_shifts(cav, [5270.0, 4820.0]) == (0.0, 0.0, 0.0)

    def test_lamb_shift_composition(self):
        cav = CavityParams(f_res_mhz=7000.0, g_mhz=(80.0, 113.1), kappa_mhz=1.0)
        # each level's cavity pull composes the shifts of the transitions beside it
        chi01, chi12 = 80.0**2 / (5270.0 - 7000.0), 113.1**2 / (4820.0 - 7000.0)
        assert dispersive_shifts(cav, [5270.0, 4820.0]) == pytest.approx(
            (0.0, 2 * chi01 - chi12, chi12 + chi01), rel=0, abs=1e-12)

    def test_non_dispersive_guard(self):
        cav = CavityParams(f_res_mhz=5000.0, g_mhz=(80.0,), kappa_mhz=1.0)
        with pytest.raises(NumericalError, match="transition at 5300.0 MHz too close to cavity"):
            dispersive_shifts(cav, [5300.0])

    def test_against_jaynes_cummings_diagonalization(self):
        # oracle: diagonalize the ladder Jaynes-Cummings Hamiltonian with a
        # photon cutoff and read the per-state cavity pull from the dressed
        # energies E(j, n=1) - E(j, n=0), referenced to the j=0 pull.
        f_res = 7000.0
        transitions = [5270.0, 4820.0]
        gs = (50.0, 70.71)
        n_lvl, n_ph = 3, 6

        energies = [0.0]
        for f in transitions:
            energies.append(energies[-1] + f)

        dim = n_lvl * n_ph
        h = np.zeros((dim, dim))

        def idx(j, n):
            return j * n_ph + n

        for j in range(n_lvl):
            for n in range(n_ph):
                h[idx(j, n), idx(j, n)] = energies[j] + f_res * n
        for j in range(n_lvl - 1):
            for n in range(n_ph - 1):
                # g (|j+1><j| a + h.c.): couples (j, n+1) <-> (j+1, n)
                amp = gs[j] * math.sqrt(n + 1)
                h[idx(j + 1, n), idx(j, n + 1)] = amp
                h[idx(j, n + 1), idx(j + 1, n)] = amp

        vals, vecs = np.linalg.eigh(h)

        def dressed_energy(j, n):
            overlaps = np.abs(vecs[idx(j, n), :])
            return vals[int(overlaps.argmax())]

        pulls_jc = []
        for j in range(3):
            cav_freq = dressed_energy(j, 1) - dressed_energy(j, 0)
            pulls_jc.append(cav_freq)
        pulls_jc = [p - pulls_jc[0] for p in pulls_jc]

        cav = CavityParams(f_res_mhz=f_res, g_mhz=gs, kappa_mhz=1.0)
        for mine, oracle in zip(dispersive_shifts(cav, transitions)[1:], pulls_jc[1:]):
            assert abs(mine - oracle) <= 0.05 * abs(oracle)


class TestSplitHamiltonian:
    def test_degenerate_limit_embeds_three_level(self):
        drive = (amplitude(0.3, 0.2), amplitude(0.25, -0.4), 0.05, -0.05)
        h4 = build_split_hamiltonian(*drive[:2], SplitSpec(0.0, (1.0, 0.0)), *drive[2:])
        h3 = build_rotating_hamiltonian(*drive)
        keep = np.ix_([0, 1, 3], [0, 1, 3])
        assert np.max(np.abs(h4[keep] - h3)) < 1e-15
        assert np.max(np.abs(h4[2, [0, 3]])) == 0.0  # |1b> decoupled

    def test_fifteen_megahertz_separation(self):
        h4 = build_split_hamiltonian(0.2, 0.2, SplitSpec(15.0))
        assert abs((h4[2, 2] - h4[1, 1]).real - TWO_PI * 0.015) < 1e-15
        # the transmon lays its branches out as the oracle does
        h4 = build_split_hamiltonian(0.2, 0.2, SplitSpec(15.0, (0.8, 0.6)))
        assert TransmonParams(split=SplitSpec(15.0, (0.8, 0.6))).branches == \
            ((h4[1, 1].real, 0.8), (h4[2, 2].real, 0.6))
        assert TransmonParams().branches == ((0.0, 1.0),)

    def test_midpoint_gap_collapse(self):
        # Both branches couple with the same Omega01:Omega12 ratio, so the
        # dark vector (cos, 0, 0, -sin) survives the split exactly.  What
        # breaks at the midpoint drive is the adiabatic protection: a second
        # eigenvalue collapses onto the dark state's zero, removing the gap.
        om01, om12 = mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0)
        h4 = build_split_hamiltonian(om01, om12, SplitSpec(15.0))
        theta = math.atan2(om01, om12)
        dark = np.array([math.cos(theta), 0.0, 0.0, -math.sin(theta)], dtype=complex)
        assert np.max(np.abs(h4 @ dark)) < 1e-15
        gaps = np.sort(np.abs(np.linalg.eigvalsh(h4)))
        assert gaps[1] < 1e-12  # degenerate with the dark state: no gap
        # at the branch-a resonance the degeneracy lifts
        h4_res = build_split_hamiltonian(om01, om12, SplitSpec(15.0),
                                         mhz_to_rad_ns(7.5), -mhz_to_rad_ns(7.5))
        gaps_res = np.sort(np.abs(np.linalg.eigvalsh(h4_res)))
        assert gaps_res[1] > mhz_to_rad_ns(1.0)

    def test_eigenvalue_convergence_to_three_level(self):
        h3 = build_rotating_hamiltonian(0.3, 0.25, 0.07, -0.07)
        vals3 = np.sort(np.linalg.eigvalsh(h3))
        h4 = build_split_hamiltonian(0.3, 0.25, SplitSpec(0.0, (1.0, 0.0)), 0.07, -0.07)
        vals4 = np.sort(np.linalg.eigvalsh(h4))
        # three-level spectrum plus the decoupled |1b> at its diagonal
        expected = np.sort(np.concatenate([vals3, [0.07]]))
        assert np.max(np.abs(vals4 - expected)) < 1e-10

    def test_missing_split(self):
        with pytest.raises(ConfigurationError):
            build_split_hamiltonian(0.1, 0.1, None)

    def test_weight_normalization(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(15.0, (1.0, 1.0))


class TestTransmonParams:
    def test_rate_conversion(self):
        p = TransmonParams()
        assert abs(p.gamma10 - 2.4e-3) < 1e-15
        assert abs(p.gamma21 - 5.2e-3) < 1e-15

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            TransmonParams(gamma10_mhz=-0.1)

    def test_nan_rate_rejected(self):
        # lindblad.dissipator keeps rates > 0, so a NaN rate would drop its channel
        with pytest.raises(ConfigurationError, match="gamma_phi21_mhz"):
            TransmonParams(gamma_phi21_mhz=float("nan"))

    def test_anharmonicity_sign(self):
        with pytest.raises(ConfigurationError):
            TransmonParams(f01_mhz=4000.0, f12_mhz=5000.0)
