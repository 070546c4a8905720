import dataclasses
import math

import numpy as np
import pytest

from stirap._batch import Cells, evolve
from stirap.config import GridConfig, PulseConfig
from stirap.errors import ConfigurationError, NumericalError
from stirap.hamiltonian import SplitSpec, TransmonParams, dark_state
from stirap.lindblad import MAX_POINTS, TimeGrid, check_step, dissipator
from stirap.pulses import (FastPulse, GaussianPulse, PhaseRamp, PulseSequence, SequenceKind, Transition,
                           build_sequence, two_pulse_sequence)
from stirap.units import mhz_to_rad_ns

from oracles import dop853_populations, jump_operators, lindblad_rhs, sequence_hamiltonian

OM01 = mhz_to_rad_ns(43.4)
OM12 = mhz_to_rad_ns(38.2)
STRIDE = GridConfig().sample_stride
FAST = PulseConfig().fast_duration_ns


def no_drive_sequence(sigma=45.0):
    return two_pulse_sequence(0.0, 0.0, sigma, 0.0)


def oracle_channels(params):
    """(i, j, rate) of each of tests/oracles.jump_operators' |i><j| of rate > 0, in its order."""
    return tuple((*map(int, np.argwhere(ll)[0]), rate) for rate, ll in jump_operators(params) if rate > 0)


class TestBuildDissipators:
    def test_single_channel_exponential_decay(self):
        # Gamma10 only: p1(t) = exp(-Gamma10 t) with Gamma10 = 2.4e-3 / ns
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(0.0, 400.0, dt=0.5, sample_stride=20)
        res = evolve(no_drive_sequence(), params, grid, rho0=np.diag([0.0, 1.0, 0.0]))
        expected = np.exp(-params.gamma10 * res.times)
        assert np.max(np.abs(res.populations[0][:, 1] - expected)) < 1e-6

    def test_zero_rates_match_unitary(self, stirap_sequence):
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=50)
        res_dm = evolve(stirap_sequence, params, grid, dissipative=True)
        res_ket = evolve(stirap_sequence, params, grid, dissipative=False,
                         rho0=np.eye(3)[0])
        assert np.max(np.abs(res_dm.populations[0] - res_ket.populations[0])) < 1e-9

    def test_cascade_two_stage_decay(self):
        # Gamma21 only, initial |2>: p2 = e^{-G21 t}, p1 = 1 - e^{-G21 t}
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=5.2,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(0.0, 400.0, dt=0.5, sample_stride=20)
        res = evolve(no_drive_sequence(), params, grid, rho0=np.diag([0.0, 0.0, 1.0]))
        p2 = np.exp(-params.gamma21 * res.times)
        assert np.max(np.abs(res.populations[0][:, 2] - p2)) < 1e-6
        assert np.max(np.abs(res.populations[0][:, 1] - (1 - p2))) < 1e-6
        assert np.max(np.abs(res.populations[0][:, 0])) < 1e-9

    def test_full_cascade_closed_form(self):
        # both relaxation channels: the classic two-exponential solution
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=5.2,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        g10, g21 = params.gamma10, params.gamma21
        grid = TimeGrid(0.0, 600.0, dt=0.5, sample_stride=20)
        res = evolve(no_drive_sequence(), params, grid, rho0=np.diag([0.0, 0.0, 1.0]))
        t = res.times
        p2 = np.exp(-g21 * t)
        p1 = g21 / (g10 - g21) * (np.exp(-g21 * t) - np.exp(-g10 * t))
        p0 = 1.0 - p1 - p2
        assert np.max(np.abs(res.populations[0] - np.column_stack([p0, p1, p2]))) < 1e-6

    def test_dephasing_rate_on_01_coherence(self):
        # projector jump at rate 2*gamma_phi makes rho01 decay at gamma_phi
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.4, gamma_phi21_mhz=0.0)
        psi = np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
        grid = TimeGrid(0.0, 500.0, dt=0.5, sample_stride=100)
        res = evolve(no_drive_sequence(), params, grid, rho0=np.outer(psi, psi.conj()))
        rho01 = np.array([s.reshape(3, 3)[0, 1] for s in res.states[0]])
        expected = 0.5 * np.exp(-params.gamma_phi10 * res.times)
        assert np.max(np.abs(rho01 - expected)) < 1e-8
        # with dissipation a state vector stands for its projector, bit for bit
        assert np.array_equal(evolve(no_drive_sequence(), params, grid, rho0=psi).states, res.states)

    def test_split_system_weighted_rates(self):
        # with weights (1, 0) only the |1a> branch relaxes: the oracle's zero-rate
        # jumps |0><1b| and |1b><2| are no channel, and the others are the channels
        params = TransmonParams(split=SplitSpec(15.0, (1.0, 0.0)))
        channels = dissipator(params)
        assert channels == oracle_channels(params)
        assert [(i, j) for i, j, _ in channels] == [(0, 1), (1, 3), (1, 1), (2, 2), (3, 3)]
        assert channels[:2] == ((0, 1, params.gamma10), (1, 3, params.gamma21))


class TestLindbladRhs:
    def test_zero_everything(self):
        rho = np.diag([1.0, 0.0, 0.0])
        out = lindblad_rhs(rho, np.zeros((3, 3), dtype=complex), [])
        assert np.all(out == 0)

    def test_traceless_and_hermitian(self, rng):
        jumps = jump_operators(TransmonParams())
        for _ in range(50):
            m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            rho = m @ m.conj().T
            rho = rho / np.trace(rho).real
            hm = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            h = hm + hm.conj().T
            out = lindblad_rhs(rho, h, jumps)
            assert abs(np.trace(out)) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12

    def test_pure_decay_direction(self):
        gamma = 0.3
        lower = np.zeros((3, 3), dtype=complex)
        lower[0, 1] = 1.0
        out = lindblad_rhs(np.diag([0.0, 1.0, 0.0]), np.zeros((3, 3), dtype=complex), [(gamma, lower)])
        expected = gamma * (np.diag([1.0, -1.0, 0.0]).astype(complex))
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            lindblad_rhs(np.diag([1.0, 0.0, 0.0, 0.0]), np.zeros((3, 3)), [])

    def test_superoperator_matches_direct_form(self):
        # the dissipator, stated as its channels, against the oracle's own jump
        # operators, at 3 levels and on the 4-level split with unequal branch weights
        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        for params, n_channels in ((TransmonParams(), 4), (split, 7)):
            assert dissipator(params) == oracle_channels(params)
            assert len(dissipator(params)) == n_channels


class TestEvolve:
    def test_ground_state_stationary(self, device_params):
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        res = evolve(no_drive_sequence(), device_params, grid)
        assert res.trace_drift[0] < 1e-12
        assert np.max(np.abs(res.populations[0][:, 0] - 1.0)) < 1e-12

    def test_dissipationless_transfer(self, device_params, stirap_sequence):
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(stirap_sequence, device_params, grid, dissipative=False,
                     rho0=np.eye(3)[0])
        assert res.populations[0][-1, 2] >= 0.99
        # cross-check with halved step
        res2 = evolve(stirap_sequence, device_params,
                      TimeGrid(-225.0, 225.0, dt=0.05, sample_stride=20), dissipative=False,
                      rho0=np.eye(3)[0])
        assert abs(res.populations[0][-1, 2] - res2.populations[0][-1, 2]) < 1e-9

    def test_paper_rates_transfer(self, device_params, stirap_sequence):
        from stirap.experiments import overlap_window

        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(stirap_sequence, device_params, grid)
        peak = res.populations[0][:, 2].max()
        assert 0.78 <= peak <= 0.88
        lo, hi = overlap_window(stirap_sequence)
        mask = (res.times >= lo) & (res.times <= hi)
        assert res.populations[0][mask, 1].max() <= 0.1

    def test_trace_and_hermiticity_preserved(self, device_params, stirap_sequence):
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(stirap_sequence, device_params, grid)
        assert res.trace_drift[0] <= 1e-8
        for s in res.states[0][:: len(res.states[0]) // 7]:
            rho = s.reshape(3, 3)
            assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
        assert res.min_eig[0] >= -1e-6

    def test_purity_conserved_without_dissipation(self, stirap_sequence):
        params = TransmonParams(gamma10_mhz=0.0, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=100)
        res = evolve(stirap_sequence, params, grid, dissipative=True)
        for rho in res.states[0].reshape(-1, 3, 3):
            assert abs(np.trace(rho @ rho).real - 1.0) < 1e-8

    def test_rk4_order(self, device_params, stirap_sequence):
        def final_state(dt):
            grid = TimeGrid(-225.0, 225.0, dt=dt, sample_stride=10**9)
            res = evolve(stirap_sequence, device_params, grid)
            return res.states[0][-1].reshape(3, 3)

        ref = final_state(0.9 / 8.0)
        e1 = np.max(np.abs(final_state(0.9) - ref))
        e2 = np.max(np.abs(final_state(0.45) - ref))
        assert 12.0 <= e1 / e2 <= 20.0

    def test_dark_state_following(self, device_params, stirap_sequence):
        # At the factor-4 adiabatic margin the instantaneous dark overlap
        # dips transiently to 0.9415 at peak mixing (t ~ +4 ns) before the
        # +- admixture interferes back; the state ends dark to 0.994.
        grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
        res = evolve(stirap_sequence, device_params, grid, dissipative=False,
                     rho0=np.eye(3)[0])
        t12, t01 = -45.0, 45.0
        inside = (res.times >= t12) & (res.times <= t01)
        dark = dark_state(stirap_sequence.complex_amplitude(Transition.T01, res.times[inside]),
                          stirap_sequence.complex_amplitude(Transition.T12, res.times[inside]))
        overlaps = np.abs(np.einsum("ij,ij->i", dark.conj(), res.states[0][inside])) ** 2
        assert min(overlaps) >= 0.93
        assert overlaps[-1] >= 0.98

    def test_detailed_balance_endpoint(self):
        # Gamma10 only, initial mixed state in the 0-1 subspace
        params = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=0.0,
                                gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
        rho0 = np.diag([0.3, 0.7, 0.0])
        eps = 1e-6
        horizon = math.log(1.0 / eps) / params.gamma10
        grid = TimeGrid(0.0, float(math.ceil(horizon)) + 10.0, dt=1.0, sample_stride=10**9)
        res = evolve(no_drive_sequence(sigma=60.0), params, grid, rho0=rho0)
        assert abs(res.populations[0][-1, 0] - 1.0) < 2 * eps
        assert res.populations[0][-1, 1] < 2 * eps

    def test_dt_guard(self, device_params, stirap_sequence):
        with pytest.raises(ConfigurationError):
            evolve(stirap_sequence, device_params,
                   TimeGrid(-225.0, 225.0, dt=2.0, sample_stride=10))

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 1.0, dt=0.5, sample_stride=STRIDE)
        with pytest.raises(ConfigurationError):
            TimeGrid(0.0, 10.0, dt=-0.1, sample_stride=STRIDE)

    @pytest.mark.parametrize("t_start, t_end, dt, stride", [
        (0.0, 100.0, math.nan, 10), (math.nan, 100.0, 0.1, 10), (0.0, math.nan, 0.1, 10),
        (0.0, math.inf, 0.1, 10), (-math.inf, 100.0, 0.1, 10), (0.0, 100.0, math.inf, 10),
        (0.0, 100.0, 0.1, math.nan), (0.0, 1e308, 1e-300, 10)])
    def test_grid_rejects_non_finite_fields(self, t_start, t_end, dt, stride):
        # every check is phrased so that NaN fails it, and no step count overflows
        with pytest.raises(ConfigurationError):
            TimeGrid(t_start, t_end, dt=dt, sample_stride=stride)

    def test_grid_holds_at_most_max_points_steps(self):
        # a grid allocates nothing; the kernel's per-step bookkeeping would
        assert TimeGrid(0.0, 5e5, dt=0.5, sample_stride=STRIDE).n_steps == MAX_POINTS
        with pytest.raises(ConfigurationError, match=r"between 10 and 1000000 steps, got 1000001 "):
            TimeGrid(0.0, 5e5 + 0.5, dt=0.5, sample_stride=STRIDE)
        with pytest.raises(ConfigurationError, match=r"got 4\.5e\+14 \(dt = 1e-12 ns"):
            TimeGrid(-225.0, 225.0, dt=1e-12, sample_stride=STRIDE)

    @pytest.mark.parametrize("stride", [2.5, 2.0, "2"])
    def test_grid_rejects_non_integer_stride(self, stride):
        # a fractional stride would reach range() in the kernel as a raw TypeError
        with pytest.raises(ConfigurationError, match="sample_stride"):
            TimeGrid(0.0, 100.0, dt=0.5, sample_stride=stride)

    def test_stride_past_int64_samples_the_ends(self):
        # the config fuzz's grid.sample_stride = 10**300 made an object array of steps
        steps = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10**300).sample_steps
        assert steps.dtype.kind == "i" and steps.tolist() == [0, 200]

    def test_grid_accepts_numpy_integer_stride(self, device_params):
        seq = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        want = evolve(seq, device_params, TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=100))
        for stride in (np.int64(100), np.int32(100)):
            got = evolve(seq, device_params, TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=stride))
            assert np.array_equal(got.times, want.times)
            assert np.array_equal(got.populations, want.populations)

    def test_mid_stirap_step_sums_to_one(self, device_params, stirap_sequence):
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=100)
        res = evolve(stirap_sequence, device_params, grid)
        mid = res.states[0][len(res.states[0]) // 2].reshape(3, 3)
        # a valid density matrix: Hermitian, unit trace, positive semidefinite
        assert np.max(np.abs(mid - mid.conj().T)) <= 1e-10
        assert abs(np.trace(mid).real - 1.0) + abs(np.trace(mid).imag) <= 1e-8
        assert np.linalg.eigvalsh(0.5 * (mid + mid.conj().T))[0] >= -1e-9
        p = np.real(np.diag(mid))
        assert abs(p.sum() - 1.0) < 1e-8

    def test_four_level_populations(self):
        params = TransmonParams(split=SplitSpec(15.0))
        seq = two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0)
        grid = TimeGrid(-225.0, 225.0, dt=0.25, sample_stride=100)
        res = evolve(seq, params, grid)
        assert res.populations[0].shape[1] == 4
        assert np.max(np.abs(res.populations[0].sum(axis=1) - 1.0)) < 1e-6

    def test_samples_end_at_the_last_step(self, device_params):
        # a stride that does not divide the step count still samples the last step
        from stirap._batch import evolve_chunk

        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=30)
        assert grid.sample_steps.tolist() == [0, 30, 60, 90, 120, 150, 180, 200]
        for res in (evolve(no_drive_sequence(), device_params, grid),
                    evolve_chunk(Cells.of([no_drive_sequence()]), device_params, grid)):
            assert np.array_equal(res.times, grid.times[grid.sample_steps])

    def test_integration_failure_names_step(self, device_params):
        # force a failure by corrupting the initial state's trace
        bad = np.diag([1.5, -0.25, -0.25]).astype(complex)
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        with pytest.raises(NumericalError, match=r" at step 0 \(t = 0\.000 ns\)$"):
            evolve(no_drive_sequence(), device_params, grid, rho0=bad)


@pytest.fixture
def inline_pool(monkeypatch):
    """Run run_batch's process pool in-process; the list of each pool's max_workers."""
    import concurrent.futures

    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return asked


# run_batch's default chunks: n_cells, workers, chunk_size, chunk sizes and
# the CPUs the process may run on; ids name a row by its first three values
# and its index
CHUNK_ROWS = [
    (300, 2, None, [150, 150], 8), (1000, 3, None, [334, 334, 332], 8), (300, 1, None, [300], 8),
    (130, 2, None, [130], 8), (100, 2, None, [100], 8), (20, 2, 7, [7, 7, 6], 8),
    (128, 2, None, [128], 8), (127, 2, None, [127], 8), (255, 2, None, [255], 8),
    (256, 2, None, [128, 128], 8), (1201, 8, None, [601, 600], 2), (841, 8, None, [421, 420], 2)]
CHUNK_IDS = [f"{n}-{w}-{c}-sizes{i}" for i, (n, w, c, _, _) in enumerate(CHUNK_ROWS)]


class TestBatchAgreement:
    def test_split_system_matches_dop853(self):
        # one shared drive at several detunings, dim-4 coupling list and dissipator
        from stirap._batch import run_batch

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        seqs = [two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0,
                                   delta01=mhz_to_rad_ns(d), delta12=mhz_to_rad_ns(-d))
                for d in (-6.0, 4.0)]
        batch = run_batch(Cells.of(seqs), params, grid)
        assert not batch.failures
        for i, seq in enumerate(seqs):
            want = dop853_populations(seq, params, batch.times)
            assert np.max(np.abs(batch.populations[i] - want)) <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4])
    def test_dissipationless_ket_matches_dop853(self, device_params, dim):
        # a state vector without dissipation is propagated by the Schrodinger
        # equation, at 3 levels and on the 4-level split; a winding drive phase
        # makes the populations depend on the sign of the detunings
        from stirap._batch import run_batch

        params = device_params if dim == 3 else TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=25)
        ramped = GaussianPulse(Transition.T12, OM12, -30.0, 45.0, phase_ramp=PhaseRamp(-45.0, 45.0, math.pi))
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0, delta01=mhz_to_rad_ns(-3.0),
                                   delta12=mhz_to_rad_ns(2.0)),
                PulseSequence((ramped, GaussianPulse(Transition.T01, OM01, 30.0, 45.0)),
                              mhz_to_rad_ns(5.0), mhz_to_rad_ns(2.0))]
        batch = run_batch(Cells.of(seqs), params, grid, dissipative=False, rho0=np.eye(dim)[0])
        assert not batch.failures
        for i, seq in enumerate(seqs):
            want = dop853_populations(seq, params, batch.times, ket=True)
            assert np.max(np.abs(batch.populations[i] - want)) <= 1e-8

    @pytest.mark.parametrize("dim", [3, 4])
    def test_dissipationless_default_is_the_ground_ket(self, device_params, dim):
        # without dissipation rho0=None is the ket |0>, bit for bit.  RK4 on the
        # ket and on the projector |0><0| under a zero dissipator are two
        # discretisations of one solution: they differ by O(dt^4), not more
        from stirap._batch import run_batch

        params = device_params if dim == 3 else TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0, delta01=mhz_to_rad_ns(d))
                for d in (-3.0, 0.0, 5.0)]
        gaps = []
        for dt in (0.2, 0.1):
            grid = TimeGrid(-225.0, 225.0, dt=dt, sample_stride=round(5.0 / dt))
            default = run_batch(Cells.of(seqs), params, grid, dissipative=False)
            ket = run_batch(Cells.of(seqs), params, grid, dissipative=False, rho0=np.eye(dim)[0])
            matrix = run_batch(Cells.of(seqs), params, grid, dissipative=False, rho0=np.diag(np.eye(dim)[0]))
            assert np.array_equal(default.populations, ket.populations)
            assert np.array_equal(default.trace_drift, ket.trace_drift)
            gaps.append(np.max(np.abs(default.populations - matrix.populations)))
        assert gaps[0] <= 1e-8 and gaps[1] <= gaps[0] / 10.0, gaps

    @pytest.mark.parametrize("fast_duration", [10.0, 25.6])
    def test_hybrid_matches_piecewise_dop853(self, device_params, fast_duration):
        # the fast pulse ends on a grid point; no RK4 stage may straddle that edge.
        # At 25.6 ns the edge is step 256, which is also the first BLOCK boundary
        from stirap._batch import run_batch

        seq = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                             t_s=-90.0, theta_fast=math.pi, fast_duration=fast_duration)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=50)
        batch = run_batch(Cells.of([seq]), device_params, grid)
        fast = seq.pulses[0]
        want = dop853_populations(seq, device_params, batch.times,
                                  edges=(fast.start_ns + fast.duration_ns,))
        assert np.max(np.abs(batch.populations[0] - want)) <= 5e-8

    def test_batch_rerun_is_bitwise_identical(self, device_params):
        # chunk partition is fixed, so reruns (and worker splits) reproduce
        # bit for bit; each cell's arithmetic, FastPulse edges included, is
        # independent of its chunk, so every cell equals a run of itself alone.
        # The t_s = -60 cell's fast pulse runs from step 30 to 50, edges that
        # cut its chunk's blocks but are no edge of the other hybrid cells (step 20)
        from stirap._batch import run_batch

        grid = TimeGrid(-235.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts)
                for ts in np.linspace(-120, -30, 7)]
        for k, theta, ts in ((2, math.pi / 2, -90.0), (5, math.pi, -90.0), (7, math.pi, -60.0)):
            seqs.insert(k, build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12,
                                          sigma=45.0, t_s=ts, theta_fast=theta, fast_duration=FAST))
        a = run_batch(Cells.of(seqs), device_params, grid, chunk_size=3)
        b = run_batch(Cells.of(seqs), device_params, grid, chunk_size=3)
        assert np.array_equal(a.populations, b.populations)
        c = run_batch(Cells.of(seqs), device_params, grid, chunk_size=100)
        assert np.array_equal(a.populations, c.populations)
        for i, seq in enumerate(seqs):
            alone = run_batch(Cells.of([seq]), device_params, grid)
            assert np.array_equal(c.populations[i], alone.populations[0]), i

    def test_shared_drive_split_plane_is_chunk_independent(self):
        # 4-level cells that differ only in detuning share one drive column;
        # every field is the same at any chunk width, serial or over a pool,
        # and the same as with each cell's own sequence in a column of its own
        from stirap._batch import _chunk_drive, run_batch

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        pairs = [(d01, d12) for d01 in (-6.0, 0.0, 4.0) for d12 in (-3.0, 5.0)]
        d01, d12 = (mhz_to_rad_ns(np.array(d)) for d in zip(*pairs))
        cells = Cells((two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0),), d01, d12)
        assert len(_chunk_drive(cells, grid, params)[0]) == 1  # one drive column
        per_cell = Cells.of([PulseSequence(cells.drive[0].pulses, a, b) for a, b in zip(d01.tolist(), d12.tolist())])
        assert len(_chunk_drive(per_cell, grid, params)[0]) == len(pairs)
        want = run_batch(per_cell, params, grid, chunk_size=len(pairs))
        for chunk in (1, 3, len(pairs)):
            for workers in (1, 2):
                got = run_batch(cells, params, grid, workers=workers, chunk_size=chunk)
                for f in dataclasses.fields(want):
                    assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (f.name, chunk)

    def test_plane_is_the_same_at_every_chunk_size(self, device_params):
        # a t_s x detuning plane, one drive column per cell, over more than
        # CHUNK_SIZE cells: every field is the same at any chunk size, at the
        # default work-sized chunks, serially and over a pool
        from stirap._batch import CHUNK_SIZE, run_batch

        grid = TimeGrid(-90.0, 90.0, dt=0.9, sample_stride=20)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts, delta01=mhz_to_rad_ns(d))
                for ts in np.linspace(-100.0, -20.0, 13) for d in np.linspace(-5.0, 5.0, 10)]
        assert len(seqs) > CHUNK_SIZE
        want = run_batch(Cells.of(seqs), device_params, grid, chunk_size=len(seqs))
        for chunk in (1, 7, CHUNK_SIZE, len(seqs), None):
            for workers in (1, 2):
                got = run_batch(Cells.of(seqs), device_params, grid, workers=workers, chunk_size=chunk)
                for f in dataclasses.fields(want):
                    assert np.array_equal(getattr(got, f.name), getattr(want, f.name)), (f.name, chunk)

    @pytest.mark.parametrize("n_cells, workers, chunk_size, sizes, cpus", CHUNK_ROWS, ids=CHUNK_IDS)
    def test_default_chunks_are_work_sized(self, device_params, monkeypatch, inline_pool,
                                           n_cells, workers, chunk_size, sizes, cpus):
        # one chunk per unit of width, min(workers, usable CPUs), of equal
        # size, but only as many chunks as there are whole CHUNK_SIZE-cell
        # shares, and at least one; an explicit chunk_size wins.  The shipped
        # planes' 1201 and 841 integrated cells at 8 workers on 2 CPUs run as
        # two chunks, not eight
        import os

        from stirap import _batch

        def stub(seqs, *args, **kwargs):  # a chunk's result shape without integrating it
            n = len(seqs)
            asked.append(n)
            return _batch.BatchResult(np.zeros(1), np.zeros((n, 1, 3)), np.zeros((n, 3)), np.zeros((n, 3)),
                                      np.zeros(n), np.zeros(n))

        asked = []
        monkeypatch.setattr(_batch, "evolve_chunk", stub)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0)] * n_cells
        got = _batch.run_batch(Cells.of(seqs), device_params, TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=STRIDE),
                               workers=workers, chunk_size=chunk_size)
        assert asked == sizes and got.populations.shape[0] == n_cells
        procs = min(workers, cpus, len(sizes))
        assert inline_pool == ([procs] if procs > 1 else [])

    def test_split_plane_is_the_same_at_any_workers(self, monkeypatch, inline_pool):
        # a 4-level split plane over several chunks on 2 usable CPUs: 1, 2 and
        # 8 workers give the same bytes, and 2 and 8 workers both ask for a
        # 2-process pool
        import os

        from stirap import _batch, experiments
        from stirap.config import Experiment, ExperimentConfig

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(_batch, "CHUNK_SIZE", 16)  # the 85 integrated cells make 5 shares
        axis = tuple(np.linspace(-6.0, 6.0, 13))
        cfg = ExperimentConfig(experiment=Experiment.SPLIT_MAP, transmon=TransmonParams(split=SplitSpec(15.0)),
                               grid=GridConfig(dt_ns=0.5, sample_stride=50),
                               sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis})
        p = experiments.plan(cfg)
        batches = [experiments._sweep(dataclasses.replace(cfg, workers=w), p, series=False)[0] for w in (1, 2, 8)]
        assert inline_pool == [2, 2]
        for name in ("final", "peak", "trace_drift", "min_eig"):
            want = getattr(batches[0], name).tobytes()
            assert [getattr(b, name).tobytes() for b in batches[1:]] == [want, want], name

    def test_failures_inside_a_block_match_chunks_of_one(self, device_params):
        # two cells fail at different samples in the middle of one block, among
        # healthy cells: each cell's verdict is the one it gets alone, bit for bit
        from stirap._batch import _chunk_drive, evolve_chunk

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=10)
        wild = [two_pulse_sequence(mhz_to_rad_ns(mhz), mhz_to_rad_ns(mhz), 45.0, ts)
                for mhz, ts in ((1500.0, -90.0), (1000.0, -30.0))]
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0), wild[0],
                two_pulse_sequence(OM01, OM12, 45.0, -60.0), wild[1]]
        chunk = evolve_chunk(Cells.of(seqs), device_params, grid)
        assert [c for c, _, _ in chunk.failures] == [1, 3]
        steps = [step for _, step, _ in chunk.failures]
        block = next(b for b in _chunk_drive(Cells.of(seqs), grid, device_params)[1] if b[0] < steps[0] <= b[1])
        first = block[0] + grid.sample_stride - block[0] % grid.sample_stride
        assert first < steps[0] < steps[1] <= block[1], (steps, block)
        for c, seq in enumerate(seqs):
            alone = evolve_chunk(Cells.of([seq]), device_params, grid)
            assert [(c, *rest) for _, *rest in alone.failures] == [f for f in chunk.failures if f[0] == c]
            assert alone.trace_drift.tobytes() == chunk.trace_drift[c:c + 1].tobytes()
            assert alone.min_eig.tobytes() == chunk.min_eig[c:c + 1].tobytes()
            assert alone.populations.tobytes() == chunk.populations[c:c + 1].tobytes()

    def test_assembled_chunks_of_any_lengths_match_one_chunk(self, device_params):
        # _assemble offsets each chunk's failures by the cells of the chunks before
        # it, whatever their lengths, and joins their states, complex, as one chunk holds them
        from stirap._batch import _assemble, evolve_chunk

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=10)
        cells = Cells.of([two_pulse_sequence(OM01, OM12, 45.0, -90.0),
                          two_pulse_sequence(mhz_to_rad_ns(1500.0), mhz_to_rad_ns(1500.0), 45.0, -90.0),
                          two_pulse_sequence(OM01, OM12, 45.0, -60.0)])
        whole = evolve_chunk(cells, device_params, grid, store_states=True)
        parts = [evolve_chunk(cells[a:b], device_params, grid, store_states=True) for a, b in ((0, 1), (1, 3))]
        got = _assemble(parts, 3, device_params, grid)
        assert [c for c, _, _ in whole.failures] == [1] and got.failures == whole.failures
        assert got.states.dtype == complex and got.states.tobytes() == whole.states.tobytes()
        assert got.final[[0, 2]].tobytes() == whole.final[[0, 2]].tobytes() and np.isnan(got.final[1]).all()

    @pytest.mark.parametrize("dim", [3, 4])
    def test_offset_groups_step_forward_in_list_order(self, device_params, dim):
        # the row kernel's groups: both slices step forward, and each out row
        # meets its coupling terms, and its jumps, in list order
        from stirap._batch import _couplings, _offset_groups

        params = device_params if dim == 3 else TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        assert _couplings(params) == {3: ((1, 0, 0, 1.0), (1, 2, 1, 1.0)),
                                      4: ((1, 0, 0, 0.8), (2, 0, 0, 0.6), (1, 3, 1, 0.8), (2, 3, 1, 0.6))}[dim]
        coupling_terms = [t for r, c, _, _ in _couplings(params) for t in ((r, c), (c, r))]
        jump_terms = [(i, j) for i, j, _ in dissipator(params) if i != j]
        for terms, n_groups in ((coupling_terms, 2 if dim == 3 else 4), (jump_terms, 1 if dim == 3 else 2)):
            groups = _offset_groups(terms)
            assert len(groups) == n_groups
            met = {}
            for out, src, idx in groups:
                assert (out.step or 1) > 0 and src.step == out.step
                assert [terms[j] for j in idx] == list(zip(range(dim)[out], range(dim)[src]))
                for j in idx:
                    met.setdefault(terms[j][0], []).append(j)
            assert sorted(j for js in met.values() for j in js) == list(range(len(terms)))
            assert all(js == sorted(js) for js in met.values()), met

    def test_pool_is_capped_at_the_chunk_count(self, device_params, monkeypatch, inline_pool):
        # a fork-started pool starts all max_workers processes at the first
        # submit, so workers beyond the chunk count, or beyond the CPUs, would
        # only sit idle; the cap is on the pool, so the chunks stay the same,
        # and one allowed process runs them serially
        import os

        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts) for ts in (-90.0, -60.0, -30.0)]
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # os.cpu_count() counts the CPUs
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        got = run_batch(Cells.of(seqs), device_params, grid, workers=8, chunk_size=2)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        capped = run_batch(Cells.of(seqs), device_params, grid, workers=100000, chunk_size=1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        unknown = run_batch(Cells.of(seqs), device_params, grid, workers=4, chunk_size=1)
        assert inline_pool == [2, 3]
        serial = run_batch(Cells.of(seqs), device_params, grid).populations
        for res in (got, capped, unknown):
            assert np.array_equal(res.populations, serial)

    def test_pool_is_capped_at_the_usable_cpus(self, device_params, monkeypatch, inline_pool):
        # under taskset or a cpuset the process may run on fewer CPUs than the
        # machine has: pinned to one, two workers start no pool
        import os

        from stirap import _batch

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts) for ts in (-90.0, -60.0, -30.0)]
        got = _batch.run_batch(Cells.of(seqs), device_params, grid, workers=2, chunk_size=2)
        assert inline_pool == []
        assert np.array_equal(got.populations, _batch.run_batch(Cells.of(seqs), device_params, grid).populations)

    def test_evolve_matches_one_cell_chunk(self, device_params):
        # evolve's RK4 step matrices are the kernel's RK4 on one cell, with the
        # same drive samples, FastPulse edges and checks, equal up to round-off
        from stirap._batch import evolve_chunk

        split = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        stirap = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        hybrid = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                                t_s=-90.0, theta_fast=math.pi, fast_duration=FAST)
        cases = (
            (np.diag([1.0, 0.0, 0.0]), stirap, device_params, True),
            (np.eye(3)[0], stirap, device_params, False),
            (np.diag([1.0, 0.0, 0.0, 0.0]),
             two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0), split, True),
            (np.diag([1.0, 0.0, 0.0]), hybrid, device_params, True),
        )
        for rho0, seq, params, dissipative in cases:
            grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=25)
            if seq is hybrid:
                assert check_step(seq, grid)  # the fast pulse's edge lies on the grid
            got = evolve(seq, params, grid, dissipative, rho0)
            want = evolve_chunk(Cells.of([seq]), params, grid, dissipative, rho0, store_states=True)
            assert not want.failures and not got.failures
            assert np.array_equal(got.times, want.times)
            assert got.states.shape == want.states.shape
            assert np.max(np.abs(got.states - want.states)) <= 1e-12
            assert np.max(np.abs(got.populations - want.populations)) <= 1e-12
            assert abs(got.trace_drift[0] - want.trace_drift[0]) <= 1e-12
            assert abs(got.min_eig[0] - want.min_eig[0]) <= 1e-12

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
        want = evolve_chunk(Cells.of([seq]), device_params, grid, rho0=rho0)
        assert len(want.failures) == 1
        with pytest.raises(NumericalError) as err:
            evolve(seq, device_params, grid, rho0=rho0.astype(complex))
        _, step, message = want.failures[0]
        assert str(err.value) == message
        assert message.endswith(f" at step {step} (t = {grid.t_start + step * grid.dt:.3f} ns)")
        assert str(err.value).startswith({
            "trace": "trace drift 5.000e-01 at step 0 ",
            "eigenvalue": "negative eigenvalue -2.000e-01 at step 0 ",
            "diverging drive": "negative eigenvalue ",
            "diverged 5000 MHz": "diverged: max |entry| 2.821e+56 at step 250 ",
            "diverged 1000 MHz": "diverged: max |entry| 2.656e+09 at step 400 "}[case])

    def test_drive_is_sampled_one_block_at_a_time(self, device_params, monkeypatch):
        # neither realisation holds the drive of the whole run (2401 half steps here)
        from stirap import _batch
        from stirap.pulses import PulseSequence

        sizes = []
        sample = PulseSequence.complex_amplitude

        def spy(self, transition, t):
            sizes.append(np.size(t))
            return sample(self, transition, t)

        monkeypatch.setattr(PulseSequence, "complex_amplitude", spy)
        grid = TimeGrid(-240.0, 240.0, dt=0.4, sample_stride=50)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, ts) for ts in (-120.0, -90.0, -60.0)]
        _batch.run_batch(Cells.of(seqs), device_params, grid)
        evolve(seqs[1], device_params, grid)
        assert sizes and max(sizes) <= 2 * _batch.BLOCK + 1

    def test_evolve_memory_is_bounded_by_time_blocks(self):
        # the step matrices and the drive samples are built in time blocks: a
        # whole 22 500-step run of 16 x 16 matrices would hold 92 MB per array,
        # and one kernel step of DRIVE_BLOCK copies of the basis stays under 4 MB
        import tracemalloc

        params = TransmonParams(split=SplitSpec(15.0, (0.8, 0.6)))
        seq = two_pulse_sequence(mhz_to_rad_ns(25.0), mhz_to_rad_ns(22.0), 45.0, -90.0)
        grid = TimeGrid(-2250.0, 2250.0, dt=0.2, sample_stride=100)
        assert grid.n_steps >= 20000
        tracemalloc.start()
        try:
            evolve(seq, params, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_diverged_cell_is_isolated(self, device_params):
        from stirap import _batch
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=50)
        good = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        wild = two_pulse_sequence(mhz_to_rad_ns(5000.0), mhz_to_rad_ns(5000.0), 45.0, -90.0)
        batch = run_batch(Cells.of([good, wild]), device_params, grid)
        alone = run_batch(Cells.of([good]), device_params, grid)
        assert np.array_equal(batch.populations[0], alone.populations[0])
        assert [c for c, _, _ in batch.failures] == [1]
        # the message names the first sampled step where the cell failed a check
        raw = _batch.evolve_chunk(Cells.of([good, wild]), device_params, grid)
        drift = np.abs(raw.populations[1].sum(axis=1) - 1.0)
        first = int(np.argmax(~(drift <= 1e-6)))
        step = first * grid.sample_stride
        assert first > 0 and batch.failures[0][1] == step
        assert batch.failures[0][2].endswith(
            f" at step {step} (t = {grid.t_start + step * grid.dt:.3f} ns)")
        # the failed cell reads NaN from that sample on, its drift and eigenvalue as measured
        assert np.array_equal(batch.populations[1][:first], raw.populations[1][:first])
        assert np.isnan(batch.populations[1][first:]).all()
        assert np.isnan(batch.final[1]).all() and np.isnan(batch.peak[1]).all()
        for name in ("trace_drift", "min_eig"):
            assert np.array_equal(getattr(batch, name), getattr(raw, name), equal_nan=True), name
        # in a later chunk the failed cell keeps its index in the batch
        chunked = run_batch(Cells.of([good, good, wild, good]), device_params, grid, chunk_size=2)
        assert list(chunked.failures) == [(2, *batch.failures[0][1:])]
        # when every cell fails, the run raises for the first one
        with pytest.raises(NumericalError) as err:
            run_batch(Cells.of([wild, wild]), device_params, grid)
        assert str(err.value) == batch.failures[0][2]  # which names the step and time, as asserted above

    def test_drift_failure_names_step(self, device_params):
        # a state off unit trace (or norm) fails the drift check at step 0
        from stirap._batch import run_batch

        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=10)
        seq = no_drive_sequence()
        for rho0, dissipative, what in ((np.diag([1.5, 0.0, 0.0]), True, "trace drift"),
                                        (np.array([1.2, 0.0, 0.0]), False, "norm drift")):
            with pytest.raises(NumericalError, match=rf"^{what} .* at step 0 \(t = 0\.000 ns\)$"):
                run_batch(Cells.of([seq]), device_params, grid, dissipative=dissipative, rho0=rho0)

    def test_non_hermitian_rho0_is_rejected(self, device_params):
        from stirap._batch import run_batch

        rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
        rho0[0, 1], rho0[1, 0] = 0.1, 0.2
        with pytest.raises(NumericalError, match="not Hermitian: deviation 1.000e-01"):
            run_batch(Cells.of([no_drive_sequence()]), device_params,
                      TimeGrid(0.0, 100.0, dt=0.5, sample_stride=STRIDE), rho0=rho0)

    @pytest.mark.parametrize("shape, dim", [((4, 4), 3), ((4,), 3), ((3,), 4), ((3, 4), 3)])
    def test_rho0_of_another_dimension_is_rejected(self, device_params, shape, dim):
        from stirap._batch import run_batch

        params = TransmonParams(split=SplitSpec(15.0)) if dim == 4 else device_params
        rho0 = np.zeros(shape, dtype=complex)
        rho0[(0,) * len(shape)] = 1.0
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=STRIDE)
        for run in (evolve, lambda seq, *a, **kw: run_batch(Cells.of([seq]), *a, **kw)):
            with pytest.raises(ConfigurationError, match=rf"rho0 of shape \({shape[0]},"):
                run(no_drive_sequence(), params, grid, rho0=rho0)

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
            res = evolve_chunk(Cells.of(seqs), params, grid, store_states=True)
            assert not res.failures
            rho = res.states.reshape(len(seqs), -1, dim, dim)
            assert np.array_equal(rho, np.conj(np.swapaxes(rho, 2, 3)))
            assert np.all(np.trace(rho, axis1=2, axis2=3).imag == 0.0)

    def test_batch_rejects_coarse_step(self, device_params):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=2.0, sample_stride=10)
        with pytest.raises(ConfigurationError, match="sigma/50"):
            run_batch(Cells.of([two_pulse_sequence(OM01, OM12, 45.0, -90.0)]), device_params, grid)

    @pytest.mark.parametrize("fast_duration", [10.05, 10.01])
    def test_fast_pulse_edge_off_the_grid_is_rejected(self, device_params, fast_duration):
        # the grid starts at the fast pulse's start, so at dt 0.1 its end
        # falls between two grid points, where a step would integrate
        # through the discontinuity
        from stirap._batch import run_batch

        seq = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                             t_s=-90.0, theta_fast=math.pi / 2, fast_duration=fast_duration)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=50)
        match = r"FastPulse edge at -225.0 ns .* dt = 0.1 ns"
        with pytest.raises(ConfigurationError, match=match):
            evolve(seq, device_params, grid)
        with pytest.raises(ConfigurationError, match=match):
            run_batch(Cells.of([two_pulse_sequence(OM01, OM12, 45.0, -90.0), seq]), device_params, grid)

    def test_fast_pulse_edges_on_or_outside_the_grid_pass(self):
        seq = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12, sigma=45.0,
                             t_s=-90.0, theta_fast=math.pi / 2, fast_duration=FAST)  # -235 to -225 ns
        lo, hi = seq.window
        # both edges on grid points (the first one the grid's start), then both before it
        for t_start, steps in ((lo, [100]), (lo - 5.0, [50, 150]), (lo + 10.05, []), (lo + 20.0, [])):
            grid = TimeGrid(t_start, hi, dt=0.1, sample_stride=50)
            assert check_step(seq, grid) == steps

    def test_fast_pulse_edge_on_the_last_grid_point_is_sampled_from_the_left(self, device_params):
        # the last step's end takes the drive's left limit, as a block ending on an
        # edge inside a longer grid does, so the state at the edge is the same
        from stirap._batch import run_batch

        seq = PulseSequence((GaussianPulse(Transition.T12, 0.2, 0.0, 20.0),
                             FastPulse(Transition.T01, math.pi / 2, 10.0, start_ns=80.0)))
        lo, hi = seq.window  # -80 to 90 ns
        short, longer = (TimeGrid(lo, t_end, dt=0.1, sample_stride=1) for t_end in (hi, hi + 1.0))
        assert check_step(seq, short) == [1600, 1700]
        for integrate in (evolve, lambda s, *args: run_batch(Cells.of([s]), *args)):
            at_end, past = (integrate(seq, device_params, grid).populations[0] for grid in (short, longer))
            assert np.array_equal(at_end, past[:short.n_steps + 1])

    @pytest.mark.parametrize("chunk_size", [0, -1, 1.5, "2"])
    def test_chunk_size_below_one_or_not_an_integer_is_rejected(self, device_params, chunk_size):
        from stirap._batch import run_batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=STRIDE)
        with pytest.raises(ConfigurationError, match=r"chunk_size must be an integer >= 1"):
            run_batch(Cells.of([two_pulse_sequence(OM01, OM12, 45.0, -90.0)]), device_params, grid,
                      chunk_size=chunk_size)

    @pytest.mark.parametrize("entry", ["run_batch", "evolve_chunk"])
    def test_empty_cell_list_is_rejected(self, device_params, entry):
        # a batch's cells are at least one, whether listed or sharing a drive; the Cells
        # record both entries take rejects none, so neither entry runs an empty batch
        from stirap import _batch

        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=STRIDE)
        for empty in (lambda: Cells.of([]), lambda: Cells((no_drive_sequence(),), np.empty(0), np.empty(0))):
            with pytest.raises(ConfigurationError, match="at least one pulse sequence"):
                getattr(_batch, entry)(empty(), device_params, grid)


def eigvalsh_checks(y, dim, steps, grid):
    """_sample_checks' verdicts for density matrices, every finite cell by eigvalsh."""
    finite = np.isfinite(y).all(axis=0)
    peak = np.abs(y).max(axis=0)
    drift = np.abs(y[::dim + 1].real.sum(axis=0) - 1.0)
    eig = np.zeros(y.shape[1])
    eig[finite] = np.linalg.eigvalsh(y.reshape(dim, dim, -1)[:, :, finite].transpose(2, 0, 1))[:, 0]
    bad = {}
    for c in np.flatnonzero(~finite | (peak > 2.0) | (drift > 1e-6) | (eig < -1e-6)):
        what = ("non-finite state" if not finite[c]
                else f"diverged: max |entry| {peak[c]:.3e}" if peak[c] > 2.0
                else f"trace drift {drift[c]:.3e}" if drift[c] > 1e-6
                else f"negative eigenvalue {eig[c]:.3e}")
        bad[int(c)] = f"{what} at step {steps[c]} (t = {grid.t_start + steps[c] * grid.dt:.3f} ns)"
    return np.minimum(0.0, eig), bad


class TestSampleChecks:
    @staticmethod
    def states(dim, rng):
        """Seeded density matrices by kind, cells last as the kernel holds them."""
        def unitary(n):
            q, _ = np.linalg.qr(rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim)))
            return q

        def spectrum(lam_min, n):
            rest = rng.uniform(0.1, 1.0, size=(n, dim - 1))
            lam = np.concatenate([np.full((n, 1), lam_min), rest * ((1.0 - lam_min) / rest.sum(1))[:, None]], 1)
            v = unitary(n)
            return (v * lam[:, None, :]) @ v.conj().transpose(0, 2, 1)

        a = rng.normal(size=(40, dim, dim)) + 1j * rng.normal(size=(40, dim, dim))
        definite = a @ a.conj().transpose(0, 2, 1)
        definite /= np.trace(definite, axis1=1, axis2=2).real[:, None, None]
        kets = unitary(20)[:, :, 0]
        pure = np.concatenate([kets[:, :, None] * kets.conj()[:, None, :],
                               np.diag(np.eye(dim)[0])[None], np.diag(np.eye(dim)[-1])[None]])
        rank2 = 0.3 * pure[:10] + 0.7 * pure[10:20]
        broken = definite[:6].copy()
        for rho, v in zip(broken, (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0), np.nan)):
            rho[dim - 1, 0] = v
        kinds = {"definite": definite, "pure": pure, "rank 2": rank2,
                 "below -tol": spectrum(-1.001e-6, 10), "above -tol": spectrum(-0.999e-6, 10),
                 "tiny negative": spectrum(-1e-12, 10), "non-finite": broken}
        rho = np.concatenate(list(kinds.values()))
        labels = np.concatenate([[k] * len(v) for k, v in kinds.items()])
        return rho.reshape(len(rho), -1).T.copy(), labels

    @pytest.mark.parametrize("dim", [3, 4])
    def test_pivot_verdict_matches_eigvalsh_oracle(self, dim):
        from stirap._batch import _sample_checks

        y, labels = self.states(dim, np.random.default_rng(20 + dim))
        grid = TimeGrid(0.0, 100.0, dt=0.5, sample_stride=STRIDE)
        steps = np.arange(y.shape[1]) * 10
        _, _, eig, bad = _sample_checks(y, False, steps, grid)
        want_eig, want_bad = eigvalsh_checks(y, dim, steps, grid)
        assert bad == want_bad  # the same failing cells, with the same messages
        assert np.max(np.abs(eig - want_eig)) <= 1e-15
        failed = {labels[c] for c in bad}
        assert failed == {"below -tol", "non-finite"}
        assert len(bad) == np.count_nonzero(np.isin(labels, ["below -tol", "non-finite"]))

    def test_only_the_pure_initial_sample_reaches_eigvalsh(self, device_params, monkeypatch):
        # on a dissipative plane the pivots prove every state positive definite
        # but the initial |0><0|, whose later pivots are 0
        from stirap._batch import run_batch

        received = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            received.append(len(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        grid = TimeGrid(-225.0, 225.0, dt=0.5, sample_stride=5)
        seqs = [two_pulse_sequence(OM01, OM12, 45.0, -90.0, delta01=mhz_to_rad_ns(d1),
                                   delta12=mhz_to_rad_ns(d2))
                for d1 in (-6.0, 0.0, 4.0) for d2 in (-5.0, 0.0, 3.0)]
        res = run_batch(Cells.of(seqs), device_params, grid)
        assert not res.failures
        assert 0 < sum(received) <= len(seqs)
