import dataclasses
import math

import numpy as np
import pytest

from stirap.core import DensityMatrix, Ket, basis_ket, dm_from_ket, sigma_op
from stirap.errors import ConfigurationError, IntegrationFailureError, InvalidStateError
from stirap.hamiltonian import (
    SplitSpec,
    TransmonParams,
    adiabatic_frame,
    build_rotating_hamiltonian,
    build_split_hamiltonian,
)
from stirap.lindblad import (
    Jump,
    LindbladSpec,
    TimeGrid,
    build_dissipators,
    evolve,
    lindblad_rhs,
)
from stirap.pulses import PhaseRamp, SequenceKind, build_sequence, two_pulse_sequence
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


def dop853_populations(seq, params, times, dim=3, ket=False, edges=()):
    """Populations at the given times from scipy's DOP853 (rtol 1e-11).

    An independent oracle for the batch kernel: the dense Hamiltonian of
    build_rotating_hamiltonian (or build_split_hamiltonian) with lindblad_rhs,
    or the Schrodinger equation for a ket.  The integration restarts at each
    time in edges, and inside a piece the drive is sampled 1e-9 ns inside it,
    so no step straddles a FastPulse edge.
    """
    from scipy.integrate import solve_ivp

    spec = build_dissipators(params, dim)
    y = np.zeros(dim if ket else dim * dim, dtype=complex)
    y[0] = 1.0
    bounds = [times[0], *edges, times[-1]]
    pops = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        def rhs(t, yr, lo=lo, hi=hi):
            sample = seq.drive_sample(min(max(t, lo + 1e-9), hi - 1e-9))
            h = (build_rotating_hamiltonian(sample) if dim == 3
                 else build_split_hamiltonian(sample, params.split))
            z = yr.view(complex)
            out = -1j * (h @ z) if ket else lindblad_rhs(z.reshape(dim, dim), h, spec).ravel()
            return out.view(float)

        inside = times[(times >= lo) & (times < hi)] if hi < times[-1] else times[times >= lo]
        sol = solve_ivp(rhs, (lo, hi), y.view(float), method="DOP853", rtol=1e-11,
                        atol=1e-13, t_eval=inside, dense_output=True)
        assert sol.success
        states = sol.y.T.copy().view(complex)
        pops.append(np.abs(states) ** 2 if ket else states[:, ::dim + 1].real)
        y = sol.sol(hi).view(complex)
    return np.vstack(pops)


class TestBatchAgreement:
    def test_split_system_matches_dop853(self):
        # one shared drive at several detunings, dim-4 coupling list and dissipator
        from stirap._batch import run_batch

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        seqs = [two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0,
                                   delta01=mhz_to_rad_ns(d), delta12=mhz_to_rad_ns(-d))
                for d in (-6.0, 4.0)]
        batch = run_batch(seqs, params, grid, dim=4)
        assert not batch.failures
        for i, seq in enumerate(seqs):
            want = dop853_populations(seq, params, batch.times, dim=4)
            assert np.max(np.abs(batch.populations[i] - want)) <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4])
    def test_dissipationless_ket_matches_dop853(self, device_params, dim):
        # a state vector without dissipation is propagated by the Schrodinger
        # equation, at 3 levels and on the 4-level split; a winding drive phase
        # makes the populations depend on the sign of the detunings
        from stirap._batch import run_batch

        params = device_params if dim == 3 else TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts, delta01=mhz_to_rad_ns(d),
                                   delta12=mhz_to_rad_ns(2.0), phase_ramp12=ramp)
                for ts, d, ramp in ((-90.0, -3.0, None),
                                    (-60.0, 5.0, PhaseRamp(-45.0, 45.0, math.pi)))]
        batch = run_batch(seqs, params, grid, dim=dim, dissipative=False,
                          rho0=basis_ket(0, dim=dim).amplitudes)
        assert not batch.failures
        for i, seq in enumerate(seqs):
            want = dop853_populations(seq, params, batch.times, dim=dim, ket=True)
            assert np.max(np.abs(batch.populations[i] - want)) <= 1e-8

    def test_hybrid_matches_piecewise_dop853(self, device_params):
        # the fast pulse ends on a grid point; no RK4 stage may straddle that edge
        from stirap._batch import run_batch

        seq = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                             t_s=-90.0, theta_fast=math.pi)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=50)
        batch = run_batch([seq], device_params, grid)
        fast = seq.pulses[0]
        want = dop853_populations(seq, device_params, batch.times,
                                  edges=(fast.start_ns + fast.duration_ns,))
        assert np.max(np.abs(batch.populations[0] - want)) <= 5e-8

    def test_batch_rerun_is_bitwise_identical(self, device_params):
        # chunk partition is fixed, so reruns (and worker splits) reproduce
        # bit for bit; each cell's arithmetic, FastPulse edges included, is
        # independent of its chunk, so every cell equals a run of itself alone
        from stirap._batch import run_batch

        grid = TimeGrid(-235.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts)
                for ts in np.linspace(-120, -30, 7)]
        for k, theta in ((2, math.pi / 2), (5, math.pi)):
            seqs.insert(k, build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12,
                                          sigma=45.0, t_s=-90.0, theta_fast=theta))
        a = run_batch(seqs, device_params, grid, chunk_size=3)
        b = run_batch(seqs, device_params, grid, chunk_size=3)
        assert np.array_equal(a.populations, b.populations)
        c = run_batch(seqs, device_params, grid, chunk_size=100)
        assert np.array_equal(a.populations, c.populations)
        for i, seq in enumerate(seqs):
            alone = run_batch([seq], device_params, grid)
            assert np.array_equal(c.populations[i], alone.populations[0]), i

    def test_shared_drive_split_plane_is_chunk_independent(self):
        # 4-level cells that differ only in detuning share one drive column;
        # every field is the same at any chunk width, serial or over a pool
        from stirap._batch import _chunk_drive, run_batch

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0,
                                   delta01=mhz_to_rad_ns(d01), delta12=mhz_to_rad_ns(d12))
                for d01 in (-6.0, 0.0, 4.0) for d12 in (-3.0, 5.0)]
        assert _chunk_drive(seqs, grid, 4, params)[0].shape[1] == 1
        want = run_batch(seqs, params, grid, dim=4, chunk_size=len(seqs))
        for chunk in (1, 3, len(seqs)):
            for workers in (1, 2):
                got = run_batch(seqs, params, grid, dim=4, workers=workers, chunk_size=chunk)
                for f in dataclasses.fields(want):
                    assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (f.name, chunk)

    def test_pool_is_capped_at_the_chunk_count(self, device_params, monkeypatch):
        # a fork-started pool starts all max_workers processes at the first
        # submit, so workers beyond the chunk count would only sit idle
        import concurrent.futures

        from stirap._batch import run_batch

        asked = []

        class RecordingPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts) for ts in (-90.0, -60.0, -30.0)]
        got = run_batch(seqs, device_params, grid, workers=8, chunk_size=2)
        assert asked == [2]
        assert np.array_equal(got.populations, run_batch(seqs, device_params, grid).populations)

    def test_evolve_matches_one_cell_chunk(self, device_params):
        # evolve's RK4 step matrices are the kernel's RK4 on one cell, with the
        # same drive samples, FastPulse edges and checks, equal up to round-off
        from stirap._batch import _edge_steps, evolve_chunk

        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        stirap = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        hybrid = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                                t_s=-90.0, theta_fast=math.pi)
        cases = (
            (dm_from_ket(basis_ket(0)), stirap, device_params, True),
            (basis_ket(0), stirap, device_params, False),
            (dm_from_ket(basis_ket(0, dim=4)),
             two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0), split, True),
            (dm_from_ket(basis_ket(0)), hybrid, device_params, True),
        )
        for state0, seq, params, dissipative in cases:
            grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=25)
            if seq is hybrid:
                assert _edge_steps(seq, grid)  # the fast pulse's edge lies on the grid
            got = evolve(state0, seq, params, grid, dissipative=dissipative)
            ket = isinstance(state0, Ket)
            want = evolve_chunk([seq], params, grid, state0.dim, dissipative,
                                state0.amplitudes if ket else state0.matrix, store_states=True)
            assert not want.failures
            if ket:  # evolve returns normalised kets
                want_states = want.states[0] / np.linalg.norm(want.states[0], axis=1)[:, None]
                got_states = np.array([k.amplitudes for k in got.states])
            else:
                want_states = want.states[0]
                got_states = np.array([r.matrix.ravel() for r in got.states])
            assert np.array_equal(got.times, want.times)
            assert np.max(np.abs(got_states - want_states)) <= 1e-12
            assert np.max(np.abs(got.populations - want.populations[0])) <= 1e-12
            assert abs(got.trace_drift - want.trace_drift[0]) <= 1e-12
            assert abs(got.min_eig - want.min_eig[0]) <= 1e-12

    @pytest.mark.parametrize("case", ["trace", "eigenvalue", "diverging drive",
                                      "diverged 5000 MHz", "diverged 1000 MHz"])
    def test_evolve_fails_like_one_cell_chunk(self, device_params, case):
        # evolve raises for the sample, with the message, that the kernel records.
        # Samples every 10 steps catch the divergence while the state is still
        # of order 1; every 50 steps the first failing sample holds entries
        # near 3e56 (5000 MHz) or 3e9 (1000 MHz), whose drift and eigenvalue
        # are round-off in either method, so both report the entry
        from stirap._batch import evolve_chunk

        stride = 50 if case.startswith("diverged") else 10
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=stride)
        seq, rho0 = two_pulse_sequence(OM01, OM12, 45.0, -90.0), np.diag([1.0, 0.0, 0.0])
        if case == "trace":
            rho0 = np.diag([1.5, 0.0, 0.0])
        elif case == "eigenvalue":
            rho0 = np.diag([1.2, -0.2, 0.0])
        else:
            drive = mhz_to_rad_ns(1000.0 if "1000" in case else 5000.0)
            seq = two_pulse_sequence(drive, drive, 45.0, -90.0)
        want = evolve_chunk([seq], device_params, grid, rho0=rho0)
        assert len(want.failures) == 1
        with pytest.raises(IntegrationFailureError) as err:
            evolve(DensityMatrix(rho0.astype(complex), check=False), seq, device_params, grid)
        step = int(want.failed_step[0])
        assert str(err.value) == want.failures[0][1]
        assert err.value.step == step and err.value.t_ns == grid.t_start + step * grid.dt
        assert str(err.value).startswith({
            "trace": "trace drift 5.000e-01 at step 0 ",
            "eigenvalue": "negative eigenvalue -2.000e-01 at step 0 ",
            "diverging drive": "negative eigenvalue ",
            "diverged 5000 MHz": "diverged: max |entry| 2.821e+56 at step 250 ",
            "diverged 1000 MHz": "diverged: max |entry| 2.656e+09 at step 400 "}[case])

    def test_evolve_memory_is_bounded_by_time_blocks(self):
        # the step matrices are built in time blocks: a whole 22 500-step run of
        # 16 x 16 matrices would hold 92 MB per array; only the drive samples
        # (about 3 MB here) grow with the run
        import tracemalloc

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        seq = two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0)
        grid = TimeGrid(-2250.0, 2250.0, dt=0.2, sample_stride=100)
        assert grid.n_steps >= 20000
        tracemalloc.start()
        try:
            evolve(dm_from_ket(basis_ket(0, dim=4)), seq, params, grid, store_states=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_diverged_cell_is_isolated(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        good = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        wild = two_pulse_sequence(mhz_to_rad_ns(5000.0), mhz_to_rad_ns(5000.0), 45.0, -90.0)
        batch = run_batch([good, wild], device_params, grid)
        alone = run_batch([good], device_params, grid)
        assert np.array_equal(batch.populations[0], alone.populations[0])
        assert [c for c, _ in batch.failures] == [1]
        # the message names the first sampled step where the cell failed a check
        drift = np.abs(batch.populations[1].sum(axis=1) - 1.0)
        first = int(np.argmax(~(drift <= 1e-6)))
        step = first * grid.sample_stride
        assert first > 0 and batch.failed_step[1] == step
        assert batch.failures[0][1].endswith(
            f" at step {step} (t = {grid.t_start + step * grid.dt:.3f} ns)")
        # when every cell fails, the run raises for the first one
        with pytest.raises(IntegrationFailureError) as err:
            run_batch([wild, wild], device_params, grid)
        assert err.value.step == step
        assert err.value.t_ns == grid.t_start + step * grid.dt
        assert str(err.value) == batch.failures[0][1]

    def test_drift_failure_names_step(self, device_params):
        # a state off unit trace (or norm) fails the drift check at step 0
        from stirap._batch import run_batch

        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        seq = no_drive_sequence()
        for rho0, dissipative, what in ((np.diag([1.5, 0.0, 0.0]), True, "trace drift"),
                                        (np.array([1.2, 0.0, 0.0]), False, "norm drift")):
            with pytest.raises(IntegrationFailureError, match=f"^{what} .* at step 0 ") as err:
                run_batch([seq], device_params, grid, dissipative=dissipative, rho0=rho0)
            assert err.value.step == 0 and err.value.t_ns == 0.0

    def test_non_hermitian_rho0_is_rejected(self, device_params):
        from stirap._batch import run_batch

        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho0[0, 1], rho0[1, 0] = 0.1, 0.2
        with pytest.raises(InvalidStateError, match="not Hermitian: deviation 1.000e-01"):
            run_batch([no_drive_sequence()], device_params, TimeGrid(0.0, 100.0, dt=0.5), rho0=rho0)

    def test_dissipator_has_the_structure_the_kernel_assumes(self, device_params):
        # the kernel's RHS X + X^H with X = -iH rho + D(rho)/2 is exact only when
        # D's diagonal is real and symmetric in (a, b) and its off-diagonal
        # entries are real rates from one population to another
        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        for params, dim in ((device_params, 3), (split, 4)):
            sup = build_dissipators(params, dim).superoperator(dim)
            diag = np.diag(sup).reshape(dim, dim)
            assert np.all(diag.imag == 0.0) and np.array_equal(diag, diag.T)
            k, l = np.nonzero(sup - np.diag(np.diag(sup)))
            assert len(k) == 2 * (dim - 2)
            assert np.all(k % (dim + 1) == 0) and np.all(l % (dim + 1) == 0)
            assert np.all(sup[k, l].imag == 0.0)

    def test_density_matrix_states_are_exactly_hermitian(self, device_params):
        # with RHS X + X^H every stored state is Hermitian bit for bit and its
        # trace exactly real, at 3 levels and on the 4-level split
        from stirap._batch import evolve_chunk

        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        for params, dim in ((device_params, 3), (split, 4)):
            seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0, delta01=mhz_to_rad_ns(d),
                                       delta12=mhz_to_rad_ns(-d))
                    for d in (-6.0, 0.0, 4.0)]
            res = evolve_chunk(seqs, params, grid, dim=dim, store_states=True)
            assert not res.failures
            rho = res.states.reshape(len(seqs), -1, dim, dim)
            assert np.array_equal(rho, np.conj(np.swapaxes(rho, 2, 3)))
            assert np.all(np.trace(rho, axis1=2, axis2=3).imag == 0.0)

    def test_batch_rejects_coarse_step(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=2.0, sample_stride=10)
        with pytest.raises(ConfigurationError, match="sigma/50"):
            run_batch([two_pulse_sequence(OM01, OM12, 45.0, -90.0)], device_params, grid)
