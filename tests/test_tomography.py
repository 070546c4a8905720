import numpy as np
import pytest

from stirap._batch import evolve
from stirap.config import TomographyConfig
from stirap.errors import ConfigurationError, NumericalError
from stirap.hamiltonian import CavityParams, TransmonParams
from stirap.lindblad import TimeGrid
from stirap.pulses import SequenceKind, build_sequence
from stirap.tomography import (
    Trace,
    design_matrix,
    mix_traces,
    reconstruct_populations,
    synth_reference_traces,
    tomography_timeline,
    trace_scale,
)
from stirap.units import mhz_to_rad_ns

TOMO = TomographyConfig()
AXIS = (TOMO.tau_max_ns, TOMO.dtau_ns)
W = TOMO.weight_ns


@pytest.fixture(scope="module")
def refs():
    return synth_reference_traces(CavityParams(), TransmonParams(), *AXIS)


class TestSynthReferenceTraces:
    def test_ground_state_steady_values(self, refs):
        # Delta_0 = 0 at the default measurement frequency: I saturates at 0
        # and Q at -4 eta eps / kappa, reached within ~10% by tau = 5/kappa
        r0 = refs[0]
        kappa = mhz_to_rad_ns(1.0)
        eps = mhz_to_rad_ns(0.1)
        q_ss = -4.0 * eps / kappa
        assert abs(r0.I[-1]) < 1e-3
        assert abs(r0.Q[-1] - q_ss) < 0.01 * abs(q_ss)
        i_5k = int(np.argmin(np.abs(r0.taus - 5.0 / kappa)))
        assert abs(r0.Q[i_5k] - q_ss) <= 0.1 * abs(q_ss)

    def test_trace_bound(self, refs):
        # |a| <= 2 |a_ss| <= 4 eps / kappa during ring-up, so I and Q are
        # bounded by 8 eta eps / kappa; defaults stay well inside
        kappa = mhz_to_rad_ns(1.0)
        eps = mhz_to_rad_ns(0.1)
        bound = 8.0 * eps / kappa
        for r in refs:
            assert np.abs(r.I).max() <= bound
            assert np.abs(r.Q).max() <= bound

    def test_default_conditioning(self, refs):
        assert np.linalg.cond(design_matrix(refs, W)) < 1e3

    def test_equal_pulls_are_degenerate(self):
        cav = CavityParams(g_mhz=(0.0, 0.0, 0.0))
        same = synth_reference_traces(cav, TransmonParams(), *AXIS)
        assert np.array_equal(same[0].I, same[1].I)
        assert np.linalg.cond(design_matrix(same, W)) > 1e6

    def test_matches_numerical_integration(self, refs):
        # oracle: integrate the cavity ODE with an independent integrator
        from scipy.integrate import solve_ivp

        kappa = mhz_to_rad_ns(1.0)
        eps = mhz_to_rad_ns(0.1)
        cav = CavityParams()
        trans = TransmonParams()
        from stirap.hamiltonian import dispersive_shifts
        from stirap.tomography import _ladder_transitions

        pulls = dispersive_shifts(cav, _ladder_transitions(trans, 3))
        for j, r in enumerate(refs):
            delta = mhz_to_rad_ns(pulls[j])

            def rhs(t, y):
                a = y[0] + 1j * y[1]
                da = -1j * delta * a - 0.5 * kappa * a - 1j * eps
                return [da.real, da.imag]

            sol = solve_ivp(rhs, (0.0, TOMO.tau_max_ns), [0.0, 0.0], t_eval=r.taus,
                            rtol=1e-10, atol=1e-12)
            a = sol.y[0] + 1j * sol.y[1]
            assert np.max(np.abs(r.I - (-2.0 * a.real))) < 1e-7
            assert np.max(np.abs(r.Q - (2.0 * a.imag))) < 1e-7

    def test_decoherence_corrected_refs_relax_toward_ground(self):
        cav = CavityParams()
        trans = TransmonParams()
        plain = synth_reference_traces(cav, trans, *AXIS)
        corr = synth_reference_traces(cav, trans, *AXIS, decoherence_corrected=True)
        # |1> decays during readout, so the corrected trace ends closer to r0
        gap_plain = abs(plain[1].Q[-1] - plain[0].Q[-1])
        gap_corr = abs(corr[1].Q[-1] - corr[0].Q[-1])
        assert gap_corr < 0.2 * gap_plain
        assert np.array_equal(corr[0].I, plain[0].I)  # |0> reference unchanged

    @pytest.mark.parametrize("dtau", [5.0, 300.0])
    @pytest.mark.parametrize("rates", [{}, {"gamma10_mhz": 5.2, "gamma21_mhz": 5.2},
                                       {"gamma10_mhz": 0.0}], ids=["default", "equal", "no-t1"])
    def test_decoherence_corrected_refs_match_dop853(self, dtau, rates):
        # oracle: the amplitudes alone, driven by populations written out in
        # closed form, alpha' = -P alpha + G alpha - i eps p(tau), by DOP853
        from scipy.integrate import solve_ivp

        from stirap.hamiltonian import dispersive_shifts
        from stirap.tomography import _ladder_transitions

        cav, trans = CavityParams(), TransmonParams(**rates)
        refs = synth_reference_traces(cav, trans, TOMO.tau_max_ns, dtau, decoherence_corrected=True)
        pulls = dispersive_shifts(cav, _ladder_transitions(trans, 3))[:3]
        poles = np.array([1j * mhz_to_rad_ns(cav.f_res_mhz + pull - cav.f_meas)
                          + 0.5 * mhz_to_rad_ns(cav.kappa_mhz) for pull in pulls])
        eps = mhz_to_rad_ns(cav.epsilon_mhz)
        g10, g21 = trans.gamma10, trans.gamma21

        def pops(j, tau):
            if j == 1:
                p1 = np.exp(-g10 * tau)
                return np.array([1.0 - p1, p1, 0.0])
            p2 = np.exp(-g21 * tau)
            if g10 == g21:
                p1 = g21 * tau * np.exp(-g10 * tau)
            else:
                p1 = g21 / (g10 - g21) * (np.exp(-g21 * tau) - np.exp(-g10 * tau))
            return np.array([1.0 - p1 - p2, p1, p2])

        for j in (1, 2):
            def rhs(tau, y):
                alpha = y[:3] + 1j * y[3:]
                da = -poles * alpha - 1j * eps * pops(j, tau)
                da[0] += g10 * alpha[1]
                da[1] += -g10 * alpha[1] + g21 * alpha[2]
                da[2] += -g21 * alpha[2]
                return np.concatenate([da.real, da.imag])

            taus = refs[j].taus
            sol = solve_ivp(rhs, (0.0, taus[-1]), np.zeros(6), method="DOP853", t_eval=taus,
                            rtol=1e-12, atol=1e-15)
            a = (sol.y[:3] + 1j * sol.y[3:]).sum(axis=0)
            err = max(np.max(np.abs(refs[j].I - (-2.0 * cav.eta * a.real))),
                      np.max(np.abs(refs[j].Q - 2.0 * cav.eta * a.imag)))
            assert err <= 1e-9 * trace_scale(refs)


class TestMixTraces:
    def test_pure_state_identity(self, refs):
        meas = mix_traces((1.0, 0.0, 0.0), refs)
        assert np.array_equal(meas.I, refs[0].I)
        assert np.array_equal(meas.Q, refs[0].Q)

    def test_pointwise_convex_combination(self, refs):
        p = (0.2, 0.3, 0.5)
        meas = mix_traces(p, refs)
        expected = 0.2 * refs[0].I + 0.3 * refs[1].I + 0.5 * refs[2].I
        assert np.max(np.abs(meas.I - expected)) == 0.0

    def test_seeded_noise_reproducible(self, refs):
        a = mix_traces((0.5, 0.25, 0.25), refs, noise_std=0.01, seed=77)
        b = mix_traces((0.5, 0.25, 0.25), refs, noise_std=0.01, seed=77)
        assert a.I.tobytes() == b.I.tobytes()
        assert a.Q.tobytes() == b.Q.tobytes()
        c = mix_traces((0.5, 0.25, 0.25), refs, noise_std=0.01, seed=78)
        assert not np.array_equal(a.I, c.I)

    def test_measured_trace_is_checked_like_a_reference(self, refs):
        # one Trace type: a mixture is read-only, and inversion rejects it on another grid
        meas = mix_traces((0.2, 0.3, 0.5), refs)
        assert isinstance(meas, Trace) and not meas.I.flags.writeable
        with pytest.raises(ConfigurationError, match="share one tau grid"):
            Trace(meas.taus, meas.I[:-1], meas.Q)
        shifted = Trace(meas.taus + 1.0, meas.I, meas.Q)
        with pytest.raises(ConfigurationError, match="traces must share one tau grid"):
            reconstruct_populations(shifted, refs, W)

    def test_invalid_simplex(self, refs):
        with pytest.raises(ConfigurationError):
            mix_traces((0.7, 0.4, 0.1), refs)
        with pytest.raises(ConfigurationError):
            mix_traces((1.2, -0.2, 0.0), refs)


class TestReconstruction:
    def test_exact_reference_recovers_vertex(self, refs):
        meas = mix_traces((1.0, 0.0, 0.0), refs)
        res = reconstruct_populations(meas, refs, W)
        assert np.max(np.abs(np.array(res.p) - [1.0, 0.0, 0.0])) < 1e-10

    def test_noiseless_round_trip(self, refs):
        truth = (0.2, 0.3, 0.5)
        res = reconstruct_populations(mix_traces(truth, refs), refs, W)
        assert np.max(np.abs(np.array(res.p) - truth)) < 1e-6
        assert res.residual < 1e-12

    def test_identifiability_on_random_mixtures(self, refs, rng):
        # linear-model identifiability: any noiseless convex combination of
        # non-degenerate references is recovered to 1e-8
        for _ in range(20):
            raw = rng.dirichlet([1.0, 1.0, 1.0])
            truth = raw / raw.sum()
            res = reconstruct_populations(mix_traces(truth, refs), refs, W)
            assert np.max(np.abs(np.array(res.p) - truth)) < 1e-8

    def test_monte_carlo_boundary(self, refs):
        noise = 0.01 * trace_scale(refs)
        truth = np.array([0.1, 0.0, 0.9])
        errs = []
        for seed in range(100):
            meas = mix_traces(truth, refs, noise_std=noise, seed=seed)
            res = reconstruct_populations(meas, refs, W)
            errs.append(np.abs(np.array(res.p) - truth))
        assert np.mean(errs) <= 0.03

    def test_simplex_exact(self, refs):
        noise = 0.02 * trace_scale(refs)
        for seed in range(25):
            meas = mix_traces((0.4, 0.1, 0.5), refs, noise_std=noise, seed=seed)
            res = reconstruct_populations(meas, refs, W)
            assert sum(res.p) == 1.0
            assert all(0.0 <= v <= 1.0 for v in res.p)

    def test_optimality_against_perturbations(self, refs):
        from stirap.tomography import design_matrix

        noise = 0.02 * trace_scale(refs)
        meas = mix_traces((0.1, 0.0, 0.9), refs, noise_std=noise, seed=5)
        res = reconstruct_populations(meas, refs, W)
        a_full = design_matrix(refs, W)
        w = np.exp(-meas.taus / W)
        b = np.concatenate([w * meas.I, w * meas.Q])

        def cost(p):
            return float(np.sum((b - a_full @ np.asarray(p)) ** 2))

        base = cost(res.p)
        for dp0 in (-0.05, -0.01, 0.01, 0.05):
            for dp1 in (-0.05, -0.01, 0.01, 0.05):
                cand = np.array([res.p[0] + dp0, res.p[1] + dp1, 0.0])
                cand[2] = 1.0 - cand[0] - cand[1]
                if np.any(cand < 0) or np.any(cand > 1):
                    continue
                assert base <= cost(cand) + 1e-12

    def test_estimator_unbiased_interior(self, refs):
        # linear estimator at an interior optimum: the mean error over many
        # seeds shrinks as noise_std / sqrt(weighted sample count)
        noise = 0.01 * trace_scale(refs)
        truth = np.array([0.3, 0.3, 0.4])
        n_seeds = 3000
        acc = np.zeros(3)
        for seed in range(n_seeds):
            meas = mix_traces(truth, refs, noise_std=noise, seed=seed)
            acc += np.array(reconstruct_populations(meas, refs, W).p) - truth
        mean_err = np.abs(acc) / n_seeds
        w = np.exp(-refs[0].taus / W)
        n_eff = 2.0 * w.sum() ** 2 / np.sum(w**2)
        assert np.all(mean_err <= noise / np.sqrt(n_eff))

    def test_matches_slsqp_oracle(self, refs, rng):
        # independent solver on the full 3-population simplex; SLSQP itself
        # converges to about 1e-8 in p, so the bound on p is 1e-7.  Sparse
        # Dirichlet truths put about a third of the optima on an edge, and
        # noisy pure states put some on a vertex.
        from scipy.optimize import minimize

        from stirap.tomography import design_matrix

        a_full = design_matrix(refs, W)
        w = np.exp(-refs[0].taus / W)
        noise = 0.02 * trace_scale(refs)
        truths = [*np.eye(3), *np.eye(3), *rng.dirichlet([0.3, 0.3, 0.3], size=44)]
        zeros = set()
        for seed, truth in enumerate(truths):
            meas = mix_traces(truth, refs, noise_std=noise, seed=seed)
            b = np.concatenate([w * meas.I, w * meas.Q])
            scale = 1.0 / float(b @ b)

            def cost(p):
                r = b - a_full @ p
                return scale * float(r @ r)

            def grad(p):
                return -2.0 * scale * (a_full.T @ (b - a_full @ p))

            oracle = minimize(cost, np.full(3, 1.0 / 3.0), jac=grad, method="SLSQP",
                              bounds=[(0.0, 1.0)] * 3,
                              constraints=[{"type": "eq", "fun": lambda p: p.sum() - 1.0,
                                            "jac": lambda p: np.ones(3)}],
                              options={"ftol": 1e-16, "maxiter": 500})
            assert oracle.success, oracle.message
            res = reconstruct_populations(meas, refs, W)
            assert cost(np.array(res.p)) <= cost(oracle.x) * (1.0 + 1e-12)
            assert np.max(np.abs(np.array(res.p) - oracle.x)) <= 1e-7
            zeros.add(res.p.count(0.0))
        assert zeros == {0, 1, 2}  # interior, edge and vertex optima all occur

    def test_degenerate_design_raises(self, refs):
        same = [Trace(refs[0].taus, refs[0].I, refs[0].Q)] * 3
        with pytest.raises(NumericalError, match="reference traces too degenerate: condition"):
            reconstruct_populations(mix_traces((1.0, 0.0, 0.0), same), same, W)


@pytest.fixture(scope="module")
def stirap_sim():
    seq = build_sequence(SequenceKind.STIRAP, omega01=mhz_to_rad_ns(43.4),
                         omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
    grid = TimeGrid(-225.0, 225.0, dt=0.2, sample_stride=50)
    return evolve(seq, TransmonParams(), grid, rho0=np.diag([1.0, 0.0, 0.0]))


class TestTimeline:
    def test_noiseless_round_trip(self, refs, stirap_sim):
        results = tomography_timeline(stirap_sim.populations[0], refs, W, noise_std=0.0)
        err = max(np.max(np.abs(np.array(r.p) - p))
                  for r, p in zip(results, stirap_sim.populations[0]))
        assert err <= 1e-6

    def test_constant_ground_state(self, refs, device_params):
        from stirap.pulses import two_pulse_sequence

        grid = TimeGrid(0.0, 50.0, dt=0.5, sample_stride=10)
        sim = evolve(two_pulse_sequence(0.0, 0.0, 45.0, 0.0), device_params, grid,
                     rho0=np.diag([1.0, 0.0, 0.0]))
        for r in tomography_timeline(sim.populations[0], refs, W):
            assert r.p == (1.0, 0.0, 0.0)

    def test_noisy_peak_recovery(self, refs, stirap_sim):
        noise = 0.01 * trace_scale(refs)
        results = tomography_timeline(stirap_sim.populations[0], refs, W, noise_std=noise, seed=7)
        p2_hat = np.array([r.p[2] for r in results])
        true_peak = stirap_sim.populations[0][:, 2].max()
        assert abs(p2_hat.max() - true_peak) <= 0.02

    def test_timeline_seed_determinism(self, refs, stirap_sim):
        noise = 0.01 * trace_scale(refs)
        a = tomography_timeline(stirap_sim.populations[0], refs, W, noise_std=noise, seed=3)
        b = tomography_timeline(stirap_sim.populations[0], refs, W, noise_std=noise, seed=3)
        assert [r.p for r in a] == [r.p for r in b]

    @pytest.mark.parametrize("shape", [(0, 3), (3,), (5, 4), (2, 5, 3)])
    def test_rejects_anything_but_n_by_3_populations(self, refs, shape):
        # a result object, a 4-level run, one sample's row or an empty run
        with pytest.raises(ConfigurationError, match="needs \\(n, 3\\) populations"):
            tomography_timeline(np.full(shape, 1.0 / 3.0), refs, W)
