import dataclasses
import math

import numpy as np
import pytest

from stirap._batch import evolve
from stirap.config import BerryConfig
from stirap.errors import ConfigurationError, NumericalError
from stirap.holonomy import (
    ParameterPath,
    adiabatic_phase_oracle,
    berry_phase,
    berry_vs_oracle,
    plateau_phase_sequence,
    realized_path,
    wrap_angle,
)
from stirap.lindblad import TimeGrid
from stirap.pulses import (
    GaussianPulse,
    PhaseRamp,
    PulseSequence,
    SequenceKind,
    Transition,
    build_sequence,
    global_adiabaticity_metric,
)
from stirap.units import mhz_to_rad_ns

BERRY = BerryConfig()
THRESHOLD = BERRY.metric_threshold


def plateau(**fields):
    """plateau_phase_sequence on BerryConfig()'s path, with fields replaced."""
    b = dataclasses.replace(BERRY, **fields)
    return plateau_phase_sequence(theta=b.theta_rad, phi_total=b.phi_total_rad, sigma=b.sigma_ns,
                                  omega_rms=mhz_to_rad_ns(b.omega_rms_mhz), ramp_span=b.ramp_span_ns)


def path_from(theta, phi, t=None):
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if t is None:
        t = np.linspace(0.0, 1.0, theta.size)
    return ParameterPath(np.column_stack([t, theta, phi]))


class TestBerryPhaseClosedForms:
    def test_equator_full_loop(self):
        p = path_from(np.full(101, math.pi / 2), np.linspace(0, 2 * math.pi, 101))
        assert abs(berry_phase(p) - (-2 * math.pi)) < 1e-12

    def test_pole_any_winding(self):
        p = path_from(np.zeros(60), np.linspace(0, 7.0, 60))
        assert abs(berry_phase(p)) < 1e-12

    def test_mid_latitude_half_loop(self):
        p = path_from(np.full(80, math.pi / 4), np.linspace(0, math.pi, 80))
        assert abs(berry_phase(p) - (-math.pi / 2)) < 1e-12

    def test_refinement_converges_on_varying_theta(self):
        # oracle: dense trapezoid of the same piecewise-linear path
        t = np.linspace(0.0, 1.0, 9)
        theta = math.pi / 4 + 0.3 * np.sin(math.pi * t)
        phi = 2.0 * t
        coarse = path_from(theta, phi, t)
        t_fine = np.linspace(0.0, 1.0, 200001)
        theta_f = np.interp(t_fine, t, theta)
        phi_f = np.interp(t_fine, t, phi)
        s2 = np.sin(theta_f) ** 2
        dense = -np.sum(0.5 * (s2[:-1] + s2[1:]) * np.diff(phi_f))
        assert abs(berry_phase(coarse) - dense) < 1e-7


class TestPathProperties:
    def test_reversal_antisymmetry(self, rng):
        t = np.sort(rng.uniform(0, 10, 40))
        t[0], t[-1] = 0.0, 10.0
        theta = rng.uniform(0, math.pi / 2, 40)
        phi = np.cumsum(rng.uniform(-0.2, 0.4, 40))
        p = path_from(theta, phi, t)
        back = path_from(theta[::-1], phi[::-1], -t[::-1])
        assert abs(berry_phase(p) + berry_phase(back)) < 1e-12

    def test_concatenation_additivity(self):
        t = np.linspace(0, 2, 81)
        theta = math.pi / 3 + 0.1 * np.cos(t)
        phi = 1.5 * t
        whole = path_from(theta, phi, t)
        first = path_from(theta[:41], phi[:41], t[:41])
        second = path_from(theta[40:], phi[40:], t[40:])
        total = berry_phase(first) + berry_phase(second)
        assert abs(total - berry_phase(whole)) < 1e-12

    def test_gauge_invariance_zero_winding(self):
        # closed theta loop with zero net phi winding; constant phi offset
        t = np.linspace(0, 1, 201)
        theta = math.pi / 4 + 0.2 * np.sin(2 * math.pi * t)
        phi = 0.3 * np.sin(2 * math.pi * t)
        base = berry_phase(path_from(theta, phi, t))
        offset = berry_phase(path_from(theta, phi + 1.234, t))
        assert abs(base - offset) < 1e-9

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterPath(np.array([[0.0, 0.1, 0.0], [0.0, 0.1, 0.1]]))  # non-monotonic t
        with pytest.raises(ConfigurationError):
            ParameterPath(np.array([[0.0, -0.2, 0.0], [1.0, 0.1, 0.1]]))  # theta range

    def test_phi_unwrapped_on_entry(self):
        t = np.linspace(0, 1, 5)
        phi_wrapped = np.array([0.0, 2.0, -2.0, 0.5, 2.5])  # jump > pi between 2 and -2
        p = path_from(np.full(5, 1.0), phi_wrapped, t)
        assert np.all(np.abs(np.diff(p.samples[:, 2])) < math.pi)


class TestOracle:
    def test_constant_phase_gives_zero(self, device_params):
        seq = plateau(phi_total_rad=0.0)
        assert seq.window == (-180.0, 180.0)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.05, sample_stride=10)
        gamma, leakage = adiabatic_phase_oracle(seq, device_params, grid, THRESHOLD)
        assert abs(gamma) < 2e-3
        assert leakage < 0.01

    def test_pi_winding_matches_integral(self, device_params):
        seq = plateau()
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.05, sample_stride=10)
        res = berry_vs_oracle(seq, device_params, grid, THRESHOLD)
        assert abs(res.gamma_berry - (-math.pi / 2)) < 1e-6
        assert res.mismatch <= 1e-2

    def test_mismatch_shrinks_with_metric(self, device_params):
        mismatches = []
        for f_mhz, threshold in ((139.3, 10.0), (278.6, 20.0), (557.2, 40.0)):
            seq = plateau(omega_rms_mhz=f_mhz)
            rep = global_adiabaticity_metric(seq)
            assert rep.global_metric > threshold
            grid = TimeGrid(seq.window[0], seq.window[1], dt=0.02, sample_stride=25)
            res = berry_vs_oracle(seq, device_params, grid, THRESHOLD)
            assert res.mismatch <= 1e-2
            mismatches.append(res.mismatch)
        assert mismatches[2] < mismatches[0]

    def test_full_stirap_final_phase(self, device_params):
        # |0> -> -exp(i(gamma + phi))|2> with gamma = 0 for constant phi
        om = mhz_to_rad_ns(120.0)
        phi = 0.7
        seq = build_sequence(SequenceKind.STIRAP, omega01=om, omega12=om,
                             sigma=45.0, t_s=-90.0, phi12=phi)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.05, sample_stride=10)
        res = evolve(seq, device_params, grid, dissipative=False, rho0=np.eye(3)[0])
        amp2 = res.states[0][-1][2]
        assert abs(amp2) ** 2 > 0.999
        assert abs(wrap_angle(float(np.angle(amp2)) - (math.pi + phi))) < 1e-2

    def test_winding_during_transfer_matches_path_integral(self, device_params):
        # phi12 ramps during a full STIRAP: gamma = -int sin^2(theta) dphi
        # over the realized path, checked against the propagation
        om = mhz_to_rad_ns(150.0)
        ramp = PhaseRamp(-20.0, 20.0, 1.2)
        seq = PulseSequence((GaussianPulse(Transition.T12, om, -45.0, 45.0, phase_ramp=ramp),
                             GaussianPulse(Transition.T01, om, 45.0, 45.0)))
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.02, sample_stride=25)
        res = evolve(seq, device_params, grid, dissipative=False, rho0=np.eye(3)[0])
        amp2 = res.states[0][-1][2]
        assert abs(amp2) ** 2 > 0.995
        path = realized_path(seq, grid.times[::5])
        gamma = berry_phase(path)
        phi_final = 1.2
        expected = math.pi + phi_final + gamma
        assert abs(wrap_angle(float(np.angle(amp2)) - expected)) < 1e-2

    def test_integral_path_ends_at_the_last_step(self, device_params, monkeypatch):
        # the path is sampled every sample_stride // 2 = 7 steps, which do not
        # divide the 7200 steps; it still ends where the oracle's samples end
        import stirap.holonomy as holonomy

        seq = plateau()
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.05, sample_stride=14)
        assert grid.n_steps % 7 != 0
        seen = []
        monkeypatch.setattr(holonomy, "realized_path",
                            lambda s, t, real=realized_path: seen.append(t) or real(s, t))
        berry_vs_oracle(seq, device_params, grid, THRESHOLD)
        assert seen[0][-1] == grid.times[-1]
        assert np.array_equal(seen[0][:-1], grid.times[:-1:7])

    def test_precondition_errors(self, device_params):
        slow = plateau(omega_rms_mhz=30.0)
        grid = TimeGrid(slow.window[0], slow.window[1], dt=0.05, sample_stride=10)
        with pytest.raises(NumericalError, match=r"global adiabaticity metric 2\.\d\d <= "):
            adiabatic_phase_oracle(slow, device_params, grid, THRESHOLD)

        detuned = PulseSequence(
            pulses=(GaussianPulse(Transition.T12, mhz_to_rad_ns(200.0), 0.0, 45.0),
                    GaussianPulse(Transition.T01, mhz_to_rad_ns(200.0), 0.0, 45.0)),
            delta12=0.01)
        with pytest.raises(NumericalError, match="phase oracle needs zero drive detunings"):
            adiabatic_phase_oracle(detuned, device_params, grid, THRESHOLD)

    def test_leakage_guard(self, device_params):
        # winding the phase out in the pulse tails breaks adiabaticity even
        # though the global metric is satisfied (1.5 pi net winding leaves
        # the frozen state misaligned with the rotated dark state)
        ramp = PhaseRamp(150.0, 175.0, 1.5 * math.pi)
        p12 = GaussianPulse(Transition.T12, mhz_to_rad_ns(180.0), 0.0, 45.0,
                            phase_ramp=ramp)
        p01 = GaussianPulse(Transition.T01, mhz_to_rad_ns(180.0), 0.0, 45.0)
        seq = PulseSequence(pulses=(p12, p01))
        grid = TimeGrid(-180.0, 180.0, dt=0.05, sample_stride=10)
        with pytest.raises(NumericalError, match=r"dark-state leakage 0\.\d{4} exceeds 1%; oracle invalid"):
            adiabatic_phase_oracle(seq, device_params, grid, THRESHOLD)


class TestRealizedPath:
    def test_stirap_theta_sweep(self, stirap_sequence):
        times = np.linspace(-200.0, 200.0, 401)
        path = realized_path(stirap_sequence, times)
        theta = path.samples[:, 1]
        assert theta[0] < 0.01
        assert theta[-1] > math.pi / 2 - 0.01
        assert np.all(np.diff(theta) > -1e-12)

    def test_phase_ramp_recovered(self):
        ramp = PhaseRamp(-10.0, 10.0, 2.5)
        p12 = GaussianPulse(Transition.T12, 0.3, 0.0, 45.0, phase=0.1, phase_ramp=ramp)
        p01 = GaussianPulse(Transition.T01, 0.3, 0.0, 45.0, phase=0.4)
        seq = PulseSequence(pulses=(p12, p01))
        times = np.linspace(-180.0, 180.0, 721)
        path = realized_path(seq, times)
        phi = path.samples[:, 2]
        assert abs(phi[0] - (0.1 - 0.4)) < 1e-12
        assert abs(phi[-1] - (0.1 + 2.5 - 0.4)) < 1e-12
