import math

import numpy as np
import pytest

from stirap.errors import ConfigurationError, InvalidPulseError
from stirap.pulses import (
    FastPulse,
    GaussianPulse,
    PhaseRamp,
    SequenceKind,
    Transition,
    build_sequence,
    global_adiabaticity_metric,
    two_pulse_sequence,
)
from stirap.units import TWO_PI, mhz_to_rad_ns

OM01 = mhz_to_rad_ns(43.4)
OM12 = mhz_to_rad_ns(38.2)


class TestGaussianEnvelope:
    def test_peak_value_is_calibrated_amplitude(self):
        pulse = GaussianPulse(Transition.T01, OM01, center_ns=10.0, sigma_ns=45.0)
        # 2*pi*43.4 MHz = 0.27269 rad/ns at the pulse center
        assert abs(pulse.envelope(10.0) - 0.2727) < 2e-4
        assert pulse.envelope(10.0) == pulse.amplitude

    def test_one_sigma_point(self):
        pulse = GaussianPulse(Transition.T01, 1.0, 0.0, sigma_ns=20.0)
        assert abs(pulse.envelope(20.0) - math.exp(-0.5)) < 1e-12

    def test_far_tail(self):
        pulse = GaussianPulse(Transition.T01, 1.0, 0.0, sigma_ns=5.0)
        assert pulse.envelope(50.0) < 2e-22

    def test_invalid_sigma(self):
        with pytest.raises(InvalidPulseError):
            GaussianPulse(Transition.T01, 1.0, 0.0, sigma_ns=0.0)
        with pytest.raises(InvalidPulseError):
            GaussianPulse(Transition.T01, -1.0, 0.0, sigma_ns=10.0)


class TestBuildSequence:
    def test_stirap_peak_placement(self):
        seq = build_sequence(SequenceKind.STIRAP, omega01=OM01, omega12=OM12,
                             sigma=45.0, t_s=-90.0)
        assert seq.gaussian_centers(Transition.T12) == [-45.0]
        assert seq.gaussian_centers(Transition.T01) == [45.0]
        assert seq.window == (-225.0, 225.0)

    def test_sign_policy(self):
        with pytest.raises(ConfigurationError):
            build_sequence(SequenceKind.STIRAP, omega01=OM01, omega12=OM12,
                           sigma=45.0, t_s=30.0)
        with pytest.raises(ConfigurationError):
            build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12,
                           sigma=45.0, t_s=30.0, theta_fast=1.0)

    def test_reversal_layout(self):
        seq = build_sequence(SequenceKind.REVERSAL, omega01=OM01, omega12=OM12,
                             sigma=45.0, t_s=-90.0)
        centers = [(p.transition.value, p.center_ns) for p in seq.pulses]
        assert centers == [("12", -90.0), ("01", 0.0), ("12", 90.0)]
        assert seq.window == (-270.0, 270.0)
        detuned = build_sequence(SequenceKind.REVERSAL, omega01=OM01, omega12=OM12,
                                 sigma=45.0, t_s=-90.0, delta01=0.03, delta12=-0.07)
        assert detuned.detuning(Transition.T01) == 0.03
        assert detuned.detuning(Transition.T12) == -0.07
        assert detuned.pulses == seq.pulses

    def test_envelope_sums_the_transitions_pulses(self):
        seq = build_sequence(SequenceKind.REVERSAL, omega01=OM01, omega12=OM12,
                             sigma=45.0, t_s=-90.0)
        p12a, p01, p12b = seq.pulses
        ts = np.linspace(-300.0, 300.0, 61)
        assert np.array_equal(seq.envelope(Transition.T12, ts), p12a.envelope(ts) + p12b.envelope(ts))
        assert np.array_equal(seq.envelope(Transition.T01, ts), p01.envelope(ts))

    def test_hybrid_fast_pulse_area_and_placement(self):
        seq = build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12,
                             sigma=45.0, t_s=-90.0, theta_fast=math.pi,
                             fast_duration=10.0)
        fast = seq.pulses[0]
        assert isinstance(fast, FastPulse)
        area = fast.amplitude * fast.duration_ns
        assert abs(area - math.pi) < 1e-12
        pair_start = min(p.window[0] for p in seq.pulses[1:])
        assert fast.start_ns + fast.duration_ns <= pair_start + 1e-12
        assert seq.window == (-235.0, 225.0)

    def test_hybrid_needs_theta(self):
        with pytest.raises(ConfigurationError):
            build_sequence(SequenceKind.HYBRID, omega01=OM01, omega12=OM12,
                           sigma=45.0, t_s=-90.0)


class TestGlobalAdiabaticity:
    def test_paper_parameters_cyclic_factor_four(self):
        seq = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        rep = global_adiabaticity_metric(seq)
        expected = 4.0 / math.sqrt(math.pi) * 45.0 * math.sqrt(43.4e-3 * 38.2e-3)
        assert abs(rep.global_metric - expected) < 1e-12
        assert 4.0 <= rep.global_metric <= 4.6

    def test_integral_endpoint_zero_separation(self):
        om = mhz_to_rad_ns(40.0)
        seq = two_pulse_sequence(om, om, 45.0, 0.0)
        rep = global_adiabaticity_metric(seq)
        exact = 2.0 * math.sqrt(math.pi) * 45.0 * om
        assert abs(rep.pulse_area_integral - exact) / exact < 1e-6

    def test_integral_endpoint_large_separation(self):
        om = mhz_to_rad_ns(40.0)
        seq = two_pulse_sequence(om, om, 45.0, -20.0 * 45.0)
        rep = global_adiabaticity_metric(seq)
        exact = 2.0 * math.sqrt(TWO_PI) * 45.0 * om
        assert abs(rep.pulse_area_integral - exact) / exact < 1e-4

    def test_paper_integral_between_endpoints(self):
        seq = two_pulse_sequence(OM01, OM12, 45.0, -90.0)
        rep = global_adiabaticity_metric(seq)
        assert rep.area_lower * (1 - 1e-4) <= rep.pulse_area_integral
        assert rep.pulse_area_integral <= rep.area_upper * (1 + 1e-4)

    def test_wrong_pulse_count(self):
        seq = build_sequence(SequenceKind.REVERSAL, omega01=OM01, omega12=OM12,
                             sigma=45.0, t_s=-90.0)
        with pytest.raises(ConfigurationError):
            global_adiabaticity_metric(seq)

    def test_integral_monotone_in_separation(self):
        from stirap.pulses import rms_envelope_integral

        om = mhz_to_rad_ns(40.0)
        values = []
        for ts in np.linspace(0.0, 4 * 45.0, 13):
            seq = two_pulse_sequence(om, om, 45.0, -float(ts))
            values.append(rms_envelope_integral(seq, points_per_sigma=300))
        diffs = np.diff(values)
        assert np.all(diffs > -1e-9)


class TestPhaseRamp:
    def test_smoothstep_endpoints(self):
        ramp = PhaseRamp(-10.0, 10.0, math.pi)
        assert ramp.value(-20.0) == 0.0
        assert abs(ramp.value(0.0) - math.pi / 2) < 1e-12
        assert ramp.value(30.0) == math.pi

    def test_sequence_phase_evolution(self):
        ramp = PhaseRamp(-5.0, 5.0, 1.0)
        pulse = GaussianPulse(Transition.T12, 1.0, 0.0, 10.0, phase=0.25, phase_ramp=ramp)
        assert abs(pulse.phase_at(100.0) - 1.25) < 1e-12
