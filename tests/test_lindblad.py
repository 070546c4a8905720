import math

import numpy as np
import pytest

from stirap.core import DensityMatrix, Ket, basis_ket, dm_from_ket, sigma_op
from stirap.errors import ConfigurationError, IntegrationFailureError
from stirap.hamiltonian import TransmonParams, SplitSpec, adiabatic_frame
from stirap.lindblad import (
    Jump,
    LindbladSpec,
    TimeGrid,
    build_dissipators,
    evolve,
    lindblad_rhs,
)
from stirap.pulses import two_pulse_sequence
from stirap.units import mhz_to_rad_ns

OM01 = mhz_to_rad_ns(43.4)
OM12 = mhz_to_rad_ns(38.2)


def no_drive_sequence(sigma=45.0):
    return two_pulse_sequence(0.0, 0.0, sigma, 0.0)


class TestBuildDissipators:
    def test_single_channel_exponential_decay(self):
        # Gamma10 only: p1(t) = exp(-Gamma10 t) with Gamma10 = 2.4e-3 / ns
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(0.0, 400.0, dt=0.5, sample_stride=20)
        res = evolve(dm_from_ket(basis_ket(1)), no_drive_sequence(), params, grid)
        expected = np.exp(-params.gamma10 * res.times)
        assert np.max(np.abs(res.populations[:, 1] - expected)) < 1e-6

    def test_zero_rates_match_unitary(self, stirap_sequence):
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=50)
        res_dm = evolve(dm_from_ket(basis_ket(0)), stirap_sequence, params, grid,
                        dissipative=True)
        res_ket = evolve(basis_ket(0), stirap_sequence, params, grid, dissipative=False)
        assert np.max(np.abs(res_dm.populations - res_ket.populations)) < 1e-9

    def test_cascade_two_stage_decay(self):
        # Gamma21 only, initial |2>: p2 = e^{-G21 t}, p1 = 1 - e^{-G21 t}
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=5.2,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(0.0, 400.0, dt=0.5, sample_stride=20)
        res = evolve(dm_from_ket(basis_ket(2)), no_drive_sequence(), params, grid)
        p2 = np.exp(-params.gamma21 * res.times)
        assert np.max(np.abs(res.populations[:, 2] - p2)) < 1e-6
        assert np.max(np.abs(res.populations[:, 1] - (1 - p2))) < 1e-6
        assert np.max(np.abs(res.populations[:, 0])) < 1e-9

    def test_full_cascade_closed_form(self):
        # both relaxation channels: the classic two-exponential solution
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=5.2,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        g10, g21 = params.gamma10, params.gamma21
        grid = TimeGrid(0.0, 600.0, dt=0.5, sample_stride=20)
        res = evolve(dm_from_ket(basis_ket(2)), no_drive_sequence(), params, grid)
        t = res.times
        p2 = np.exp(-g21 * t)
        p1 = g21 / (g10 - g21) * (np.exp(-g21 * t) - np.exp(-g10 * t))
        p0 = 1.0 - p1 - p2
        assert np.max(np.abs(res.populations - np.column_stack([p0, p1, p2]))) < 1e-6

    def test_dephasing_rate_on_01_coherence(self):
        # projector jump at rate 2*gamma_phi makes rho01 decay at gamma_phi
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.4, gamma_phi21_mhz=0.0)
        psi = Ket(np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0))
        grid = TimeGrid(0.0, 500.0, dt=0.5, sample_stride=100)
        res = evolve(dm_from_ket(psi), no_drive_sequence(), params, grid,
                     store_states=True)
        rho01 = np.array([s.matrix[0, 1] for s in res.states])
        expected = 0.5 * np.exp(-params.gamma_phi10 * res.times)
        assert np.max(np.abs(rho01 - expected)) < 1e-8

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            Jump(sigma_op(0, 1), -0.1)

    def test_split_system_weighted_rates(self):
        params = TransmonParams(split=SplitSpec(15.0, (1.0, 0.0)))
        spec = build_dissipators(params, dim=4)
        # with weights (1, 0) only the |1a> branch keeps relaxation jumps
        rates = {tuple(np.argwhere(j.operator).flatten()): j.rate for j in spec.jumps}
        assert abs(rates[(0, 1)] - params.gamma10) < 1e-15
        assert (0, 2) not in rates  # zero-rate jumps dropped
        assert abs(rates[(1, 3)] - params.gamma21) < 1e-15


class TestLindbladRhs:
    def test_zero_everything(self):
        rho = dm_from_ket(basis_ket(0))
        out = lindblad_rhs(rho, np.zeros((3, 3), dtype=complex), LindbladSpec(()))
        assert np.all(out == 0)

    def test_traceless_and_hermitian(self, rng):
        spec = build_dissipators(TransmonParams(), dim=3)
        for _ in range(50):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = m @ m.conj().T
            rho = rho / np.trace(rho).real
            hm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = hm + hm.conj().T
            out = lindblad_rhs(rho, h, spec)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_pure_decay_direction(self):
        gamma = 0.3
        spec = LindbladSpec((Jump(sigma_op(0, 1), gamma),))
        out = lindblad_rhs(dm_from_ket(basis_ket(1)), np.zeros((3, 3), dtype=complex), spec)
        expected = gamma * (np.diag([1.0, -1.0, 0.0]).astype(complex))
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            lindblad_rhs(dm_from_ket(basis_ket(0, dim=4)), np.zeros((3, 3)), LindbladSpec(()))

    def test_superoperator_matches_direct_form(self, rng):
        spec = build_dissipators(TransmonParams(), dim=3)
        sup = spec.superoperator(3)
        for _ in range(20):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = m @ m.conj().T
            rho /= np.trace(rho).real
            direct = lindblad_rhs(rho, np.zeros((3, 3), dtype=complex), spec)
            via_sup = (sup @ rho.reshape(-1)).reshape(3, 3)
            assert np.max(np.abs(direct - via_sup)) < 1e-14


class TestEvolve:
    def test_ground_state_stationary(self, device_params):
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        res = evolve(dm_from_ket(basis_ket(0)), no_drive_sequence(), device_params, grid)
        assert res.trace_drift < 1e-12
        assert np.max(np.abs(res.populations[:, 0] - 1.0)) < 1e-12

    def test_dissipationless_transfer(self, device_params, stirap_sequence):
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(basis_ket(0), stirap_sequence, device_params, grid, dissipative=False)
        assert res.populations[-1, 2] >= 0.99
        # cross-check with halved step
        res2 = evolve(basis_ket(0), stirap_sequence, device_params,
                      TimeGrid(-225.0, 225.0, dt=0.05, sample_stride=20), dissipative=False)
        assert abs(res.populations[-1, 2] - res2.populations[-1, 2]) < 1e-9

    def test_paper_rates_transfer(self, device_params, stirap_sequence):
        from stirap.experiments import overlap_window

        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(dm_from_ket(basis_ket(0)), stirap_sequence, device_params, grid)
        peak = res.populations[:, 2].max()
        assert 0.78 <= peak <= 0.88
        lo, hi = overlap_window(stirap_sequence)
        mask = (res.times >= lo) & (res.times <= hi)
        assert res.populations[mask, 1].max() <= 0.1

    def test_trace_and_hermiticity_preserved(self, device_params, stirap_sequence):
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(dm_from_ket(basis_ket(0)), stirap_sequence, device_params, grid,
                     store_states=True)
        assert res.trace_drift <= 1e-8
        for s in res.states[:: len(res.states) // 7]:
            assert np.max(np.abs(s.matrix - s.matrix.conj().T)) <= 1e-10
        assert res.min_eig >= -1e-6

    def test_purity_conserved_without_dissipation(self, stirap_sequence):
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=100)
        res = evolve(dm_from_ket(basis_ket(0)), stirap_sequence, params, grid,
                     dissipative=True, store_states=True)
        for s in res.states:
            assert abs(s.purity() - 1.0) < 1e-8

    def test_rk4_order(self, device_params, stirap_sequence):
        def final_state(dt):
            grid = TimeGrid(-225.0, 225.0, dt=dt, sample_stride=10**9)
            res = evolve(dm_from_ket(basis_ket(0)), stirap_sequence, device_params,
                         grid, store_states=True)
            return res.states[-1].matrix

        ref = final_state(0.9 / 8.0)
        e1 = np.max(np.abs(final_state(0.9) - ref))
        e2 = np.max(np.abs(final_state(0.45) - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_dark_state_following(self, device_params, stirap_sequence):
        # At the factor-4 adiabatic margin the instantaneous dark overlap
        # dips transiently to 0.9415 at peak mixing (t ~ +4 ns) before the
        # +- admixture interferes back; the state ends dark to 0.994.
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(basis_ket(0), stirap_sequence, device_params, grid,
                     dissipative=False, store_states=True)
        t12, t01 = -45.0, 45.0
        overlaps = []
        for t, state in zip(res.times, res.states):
            if t12 <= t <= t01:
                dark = adiabatic_frame(stirap_sequence.drive_sample(float(t))).dark
                overlaps.append(abs(dark.overlap(state)) ** 2)
        assert min(overlaps) >= 0.93
        assert overlaps[-1] >= 0.98

    def test_detailed_balance_endpoint(self):
        # Gamma10 only, initial mixed state in the 0-1 subspace
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        rho0 = DensityMatrix(np.diag([0.3, 0.7, 0.0]).astype(complex))
        eps = 1e-6
        horizon = math.log(1.0 / eps) / params.gamma10
        grid = TimeGrid(0.0, float(math.ceil(horizon)) + 10.0, dt=1.0, sample_stride=10**9)
        res = evolve(rho0, no_drive_sequence(sigma=60.0), params, grid)
        assert abs(res.populations[-1, 0] - 1.0) < 2 * eps
        assert res.populations[-1, 1] < 2 * eps

    def test_dt_guard(self, device_params, stirap_sequence):
        with pytest.raises(ConfigurationError):
            evolve(dm_from_ket(basis_ket(0)), stirap_sequence, device_params,
                   TimeGrid(-225.0, 225.0, dt=2.0, sample_stride=10))

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 1.0, dt=0.5)
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 10.0, dt=-0.1)

    def test_split_evolution_requires_split_params(self, device_params):
        seq = no_drive_sequence()
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        with pytest.raises(ConfigurationError):
            evolve(dm_from_ket(basis_ket(0, dim=4)), seq, device_params, grid)

    def test_four_level_populations(self):
        params = TransmonParams(split=SplitSpec(15.0))
        seq = two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.25, sample_stride=100)
        res = evolve(dm_from_ket(basis_ket(0, dim=4)), seq, params, grid)
        assert res.populations.shape[1] == 4
        assert np.max(np.abs(res.populations.sum(axis=1) - 1.0)) < 1e-6

    def test_integration_failure_names_step(self, device_params):
        # force a failure by corrupting the initial state's trace
        bad = DensityMatrix(np.diag([1.5, -0.25, -0.25]).astype(complex), check=False)
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        with pytest.raises(IntegrationFailureError) as err:
            evolve(bad, no_drive_sequence(), device_params, grid)
        assert err.value.step == 0


class TestBatchAgreement:
    def test_batch_matches_single(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        mixed = np.diag([0.7, 0.3, 0.0]).astype(complex)

        def detuned(ts, d01_mhz, d12_mhz, om01=OM01, om12=OM12):
            return two_pulse_sequence(om01, om12, 45.0, ts, delta01=mhz_to_rad_ns(d01_mhz),
                                      delta12=mhz_to_rad_ns(d12_mhz))

        cases = {
            "separations": (device_params, 3, True, None,
                            [two_pulse_sequence(OM01, OM12, 45.0, ts) for ts in (-90.0, -60.0)]),
            # one shared drive, dim-4 coupling list and dissipator
            "split system": (split, 4, True, None,
                             [detuned(-90.0, d, -d, mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0))
                              for d in (-6.0, 0.0, 4.0)]),
            # a mixed state keeps evolve on its density-matrix path
            "dissipationless": (device_params, 3, False, mixed,
                                [detuned(-90.0, d, 2.0) for d in (-3.0, 5.0)]),
            # equal envelopes at several detunings beside other separations
            "shared and unshared": (device_params, 3, True, None,
                                    [detuned(-90.0, -4.0, 1.0), detuned(-90.0, 3.0, 0.0),
                                     detuned(-60.0, -4.0, 1.0), detuned(-120.0, 0.0, 0.0)]),
        }
        for name, (params, dim, dissipative, rho0, seqs) in cases.items():
            batch = run_batch(seqs, params, grid, dim=dim, dissipative=dissipative, rho0=rho0)
            state0 = (dm_from_ket(basis_ket(0, dim=dim)) if rho0 is None
                      else DensityMatrix(rho0))
            assert not batch.failures, name
            for i, seq in enumerate(seqs):
                single = evolve(state0, seq, params, grid, dissipative=dissipative,
                                store_states=False)
                err = np.max(np.abs(batch.populations[i] - single.populations))
                assert err < 1e-12, (name, i, err)

    def test_batch_rerun_is_bitwise_identical(self, device_params):
        # chunk partition is fixed, so reruns (and worker splits) reproduce
        # bit for bit; each cell's arithmetic is independent of its chunk,
        # so different chunk sizes reproduce bit for bit too
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts)
                for ts in np.linspace(-120, -30, 7)]
        a = run_batch(seqs, device_params, grid, chunk_size=3)
        b = run_batch(seqs, device_params, grid, chunk_size=3)
        assert np.array_equal(a.populations, b.populations)
        c = run_batch(seqs, device_params, grid, chunk_size=100)
        assert np.array_equal(a.populations, c.populations)

    def test_diverged_cell_is_isolated(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        good = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        wild = two_pulse_sequence(mhz_to_rad_ns(5000.0), mhz_to_rad_ns(5000.0), 45.0, -90.0)
        batch = run_batch([good, wild], device_params, grid)
        alone = run_batch([good], device_params, grid)
        assert np.array_equal(batch.populations[0], alone.populations[0])
        assert [c for c, _ in batch.failures] == [1]
        assert "non-finite state at step" in batch.failures[0][1]

    def test_batch_rejects_coarse_step(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=2.0, sample_stride=10)
        with pytest.raises(ConfigurationError, match="sigma/50"):
            run_batch([two_pulse_sequence(OM01, OM12, 45.0, -90.0)], device_params, grid)
