import numpy as np


class TestPopulations:
    def test_mid_stirap_step_sums_to_one(self, device_params, stirap_sequence):
        from stirap._batch import evolve
        from stirap.lindblad import TimeGrid

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=100)
        res = evolve(stirap_sequence, device_params, grid)
        mid = res.states[0][len(res.states[0]) // 2].reshape(3, 3)
        # a valid density matrix: Hermitian, unit trace, positive semidefinite
        assert np.max(np.abs(mid - mid.conj().T)) <= 1e-10
        assert abs(np.trace(mid).real - 1.0) + abs(np.trace(mid).imag) <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))[0] >= -1e-9
        p = np.real(np.diag(mid))
        assert abs(p.sum() - 1.0) < 1e-8
