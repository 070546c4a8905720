import numpy as np
import pytest

from stirap.core import (
    DensityMatrix,
    Ket,
    basis_ket,
    dm_from_ket,
    populations,
    validate_density_matrix,
)
from stirap.errors import InvalidStateError


def random_ket(rng, dim=3):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(amps / np.linalg.norm(amps))


def charpoly_roots(h):
    """Independent eigenvalue oracle: roots of det(h - x I)."""
    coeffs = np.poly(h)
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-8
    return np.sort(roots.real)


class TestDmFromKet:
    def test_ground_state_projector(self):
        rho = dm_from_ket(basis_ket(0))
        assert np.allclose(rho.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_dark_state_at_theta_pi_over_4(self):
        psi = Ket(np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0))
        rho = dm_from_ket(psi).matrix
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 0] = expected[2, 2] = 0.5
        expected[0, 2] = expected[2, 0] = -0.5
        assert np.allclose(rho, expected, atol=1e-14)

    def test_random_ket_rank_one(self, rng):
        # oracle: eigendecomposition must give spectrum {1, 0, 0}
        for _ in range(20):
            rho = dm_from_ket(random_ket(rng))
            vals = np.linalg.eigvalsh(rho.matrix)
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12
            assert np.allclose(np.sort(vals), [0.0, 0.0, 1.0], atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError):
            Ket(np.array([1.0, 1.0, 0.0]))
        psi = basis_ket(0)
        object.__setattr__(psi, "amplitudes", np.array([1.0 + 5e-5, 0, 0], dtype=complex))
        with pytest.raises(InvalidStateError):
            dm_from_ket(psi)


class TestValidateDensityMatrix:
    def test_valid_projector(self):
        report = validate_density_matrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        assert report.valid
        assert report.hermiticity_dev == 0.0
        assert abs(report.min_eigenvalue) < 1e-12

    def test_trace_violation(self):
        report = validate_density_matrix(np.diag([0.5, 0.5, 0.1]).astype(complex))
        assert not report.valid
        assert any("trace" in v for v in report.violations)
        assert abs(report.trace_dev - 0.1) < 1e-12

    def test_negative_eigenvalue(self):
        report = validate_density_matrix(np.diag([1.1, -0.1, 0.0]).astype(complex))
        assert not report.valid
        assert any("eigenvalue" in v for v in report.violations)
        assert abs(report.min_eigenvalue + 0.1) < 1e-12

    def test_never_raises(self):
        validate_density_matrix(np.full((3, 3), 7.0 + 3.0j))  # wildly invalid, no exception

    def test_min_eigenvalue_matches_characteristic_polynomial(self, rng):
        for dim in (3, 4):
            for _ in range(50):
                m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = m + m.conj().T
                report = validate_density_matrix(h)
                assert abs(report.min_eigenvalue - charpoly_roots(h)[0]) < 1e-9


class TestPopulations:
    def test_basis_state(self):
        assert np.allclose(populations(dm_from_ket(basis_ket(0))), [1, 0, 0])

    def test_dark_state_half_half(self):
        psi = Ket(np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0))
        assert np.allclose(populations(dm_from_ket(psi)), [0.5, 0.0, 0.5], atol=1e-14)

    def test_mid_stirap_step_sums_to_one(self, device_params, stirap_sequence):
        from stirap._batch import evolve
        from stirap.lindblad import TimeGrid

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=100)
        res = evolve(stirap_sequence, device_params, grid)
        mid = res.states[0][len(res.states[0]) // 2]
        p = populations(DensityMatrix(mid.reshape(3, 3)))
        assert abs(p.sum() - 1.0) < 1e-8

    def test_invalid_state_rejected(self):
        bad = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        object.__setattr__(bad, "matrix", np.diag([0.7, 0.5, 0.0]).astype(complex))
        with pytest.raises(InvalidStateError):
            populations(bad)

    def test_matches_amplitude_squares(self, rng):
        for _ in range(200):
            psi = random_ket(rng, dim=int(rng.integers(2, 5)))
            p = populations(dm_from_ket(psi))
            assert np.max(np.abs(p - np.abs(psi.amplitudes) ** 2)) < 1e-12


class TestImmutability:
    def test_arrays_are_read_only(self):
        rho = dm_from_ket(basis_ket(1))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 5.0
        psi = basis_ket(0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 2.0
