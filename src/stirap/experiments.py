"""Config-driven experiment plans, runners and result emission.

run_experiment(cfg) is the one way to run an experiment.  Its row of
_EXPERIMENTS says what it reads and how it runs; plan(cfg) makes every
check a run makes before it integrates and builds the Plan of its cells,
their axis values and one time grid (validate-config runs it alone), then
the row's runner integrates the plan and returns a SweepResult holding
named tables; emit() writes them as CSV or JSON plus a manifest.  A sweep
hands run_batch all its cells, which mirrors a point-symmetric plane, and
a failed cell's populations read NaN, as every analysis through it does,
its alternation counts too.  Outputs are byte-deterministic for a given
config and seed: no timestamps, fixed float formatting, fixed cell
ordering, and noise seeds derived from (seed, cell index).  Time axes of
emitted series are measured from the 01-pulse peak.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import __version__
from ._batch import Cells, evolve, run_batch
from .config import Experiment, ExperimentConfig, config_hash
from .errors import ConfigurationError, NumericalError
from .holonomy import berry_vs_oracle, check_oracle_preconditions, plateau_phase_sequence, realized_path
from .lindblad import MAX_POINTS, MAX_SERIES_ROWS, TimeGrid, check_step
from .pulses import GaussianPulse, PulseSequence, SequenceKind, Transition, build_sequence, two_pulse_sequence
from .tomography import check_readout, synth_reference_traces, tomography_timeline, trace_scale
from .units import mhz_to_rad_ns

BLOB_THRESHOLD = 0.5


@dataclass(frozen=True)
class Table:
    name: str  # file stem when emitted as CSV
    columns: Tuple[str, ...]
    rows: np.ndarray  # (n_rows, n_columns) float

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != len(self.columns):
            raise ConfigurationError(f"table {self.name}: rows do not match columns")
        object.__setattr__(self, "rows", rows)

    def column(self, name: str) -> np.ndarray:
        return self.rows[:, self.columns.index(name)]


@dataclass
class SweepResult:
    kind: str
    axes: Dict[str, np.ndarray]
    tables: List[Table]
    metadata: Dict[str, str] = field(default_factory=dict)
    failures: List[dict] = field(default_factory=list)

    def table(self, name: str) -> Table:
        return {t.name: t for t in self.tables}[name]


# ---------------------------------------------------------------------------
# small analysis helpers

def overlap_window(seq: PulseSequence) -> Tuple[float, float]:
    """Interval where the two Gaussian envelopes genuinely overlap.

    Defined as the FWHM of the envelope product, which for equal widths is
    midpoint +- sigma*sqrt(ln 2); this is the region where the transfer
    happens, between the tails of the two pulses.
    """
    gaussians = [p for p in seq.pulses if isinstance(p, GaussianPulse)]
    if len(gaussians) != 2:
        raise ConfigurationError("overlap window defined for two-Gaussian sequences")
    mid = 0.5 * (gaussians[0].center_ns + gaussians[1].center_ns)
    sig = math.sqrt(gaussians[0].sigma_ns * gaussians[1].sigma_ns)
    half = sig * math.sqrt(math.log(2.0))
    return (mid - half, mid + half)


def count_alternations(values: np.ndarray, threshold: float = 1e-4) -> float:
    """Rise/fall alternations (local extrema) in a series: an int, or nan if it holds a non-finite value."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        return math.nan
    dv = np.diff(values)
    signs = np.sign(dv[np.abs(dv) > threshold])  # threshold >= 0, so no sign is 0
    if signs.size < 2:
        return 0
    return int(np.sum(signs[:-1] * signs[1:] < 0))


def sustained_max(series: np.ndarray, times: np.ndarray, window_ns: float) -> float:
    """Max over t of the moving average of the series over window_ns.

    A transfer-efficiency readout that rewards population held in the
    target state and suppresses transient Rabi fringes.
    """
    dt = float(times[1] - times[0])
    k = max(1, int(round(window_ns / dt)))
    if k >= series.size:
        return float(series.mean())
    return float(np.convolve(series, np.ones(k) / k, mode="valid").max())


def fwhm(x: np.ndarray, y: np.ndarray) -> Tuple[float, bool]:
    """Full width at half max of a peaked slice, linearly interpolated.

    Returns (width, censored); censored means a half crossing fell outside
    the sampled range, so the width is a lower bound.  A slice holding a
    non-finite value (a failed cell) has no width: (nan, False).
    """
    y = np.asarray(y, dtype=float)
    if not np.isfinite(y).all():
        return math.nan, False
    half = y.max() / 2.0
    above = y >= half
    if not above.any():
        return 0.0, True
    i0, i1 = int(np.argmax(above)), int(len(y) - 1 - np.argmax(above[::-1]))

    def crossing(i: int, j: int) -> float:  # where y, linear from i to j, crosses half
        return x[i] + (x[j] - x[i]) * (half - y[i]) / (y[j] - y[i])

    lo = x[0] if i0 == 0 else crossing(i0 - 1, i0)
    hi = x[-1] if i1 == len(y) - 1 else crossing(i1, i1 + 1)
    return float(hi - lo), i0 == 0 or i1 == len(y) - 1


def blob_count(map2d: np.ndarray, threshold: float = BLOB_THRESHOLD) -> float:
    """Connected regions above threshold, 4-connectivity (a flood fill).

    A map holding a non-finite value (a failed cell) has no count: nan.
    """
    if not np.isfinite(map2d).all():
        return math.nan
    unseen = set(map(tuple, np.argwhere(map2d > threshold).tolist()))
    n = 0
    while unseen:
        n += 1
        stack = [unseen.pop()]
        while stack:
            i, j = stack.pop()
            for cell in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)):
                if cell in unseen:
                    unseen.remove(cell)
                    stack.append(cell)
    return float(n)


# ---------------------------------------------------------------------------
# plans: every run's drive and grid, built and checked before it integrates

DEFAULT_TS_AXIS = tuple(np.arange(-200.0, 201.0, 5.0))
DEFAULT_DETUNING_AXIS = tuple(np.arange(-20.0, 21.0, 1.0))
DEFAULT_THETA_AXIS = tuple(np.arange(0.0, math.pi + 1e-9, math.pi / 20.0))
DEFAULT_SPLIT_AXIS = tuple(np.arange(-24.0, 25.0, 1.0))
_PLANE = ("detuning_sum_mhz", "detuning_diff_mhz")  # the detuning planes' axes


@dataclass(frozen=True)
class Plan:
    """What a run integrates, on one time grid.  axes holds each swept axis's
    values (its _EXPERIMENTS row's order); the cells run over their product,
    the first axis slowest, or are one cell without an axis, and values each
    axis's value at every cell.  cells holds each cell's sequence, or a
    plane's one sequence, whose pulses its cells share, and their detunings."""

    cells: Cells
    grid: TimeGrid
    axes: Dict[str, np.ndarray]
    values: Dict[str, np.ndarray]


def _seq_kwargs(cfg: ExperimentConfig) -> dict:
    p = cfg.pulses
    return dict(omega01=mhz_to_rad_ns(p.omega01_mhz), omega12=mhz_to_rad_ns(p.omega12_mhz),
                sigma=p.sigma_ns, t_s=p.t_separation_ns, delta01=mhz_to_rad_ns(p.delta01_mhz),
                delta12=mhz_to_rad_ns(p.delta12_mhz), phi01=p.phi01_rad, phi12=p.phi12_rad)


def _stirap(cfg: ExperimentConfig, kw: dict) -> PulseSequence:
    return build_sequence(SequenceKind.STIRAP, **kw)


def plan(cfg: ExperimentConfig) -> Plan:
    """Check cfg as its run does before integrating, and build what it integrates:
    the sweep axes and transmon.split that its _EXPERIMENTS row reads, at most
    MAX_POINTS cells, the cells (the row's sequence per cell, or a plane's one
    and its detunings), the grid on the drive's windows (berry steps at most
    0.05 ns), at most MAX_SERIES_ROWS cells x samples unless a plane, which
    keeps no series, check_step once per drive sequence, and the time-evolution
    sample windows, tomography's check_readout or berry's check_oracle_preconditions.
    Raises ConfigurationError, or the NumericalError of a readout or oracle check."""
    _, reads, split, cell = _EXPERIMENTS[cfg.experiment]
    name = cfg.experiment.value
    if split != (cfg.transmon.split is not None):
        raise ConfigurationError(f"{name} needs transmon.split parameters" if split
                                 else f"transmon.split is not read by {name}")
    for axis in cfg.sweep:
        if axis not in reads:
            raise ConfigurationError(f"sweep axis {axis!r} is not read by {name}; "
                                     f"it reads {list(reads) if reads else 'no sweep axis'}")
    axes = {axis: cfg.axis(axis, default) for axis, default in reads.items()}
    n_cells = math.prod(len(values) for values in axes.values())
    if n_cells > MAX_POINTS:
        raise ConfigurationError(f"the sweep's {' x '.join(str(len(v)) for v in axes.values())} "
                                 f"= {n_cells} cells are more than {MAX_POINTS}")
    kw = _seq_kwargs(cfg)
    values = {axis: g.ravel() for axis, g in zip(axes, np.meshgrid(*axes.values(), indexing="ij"))}
    if cell is _DETUNED:
        sums, diffs = values.values()
        with np.errstate(over="ignore"):  # a detuning past float64 in rad/ns fails its cell when run
            cells = Cells((two_pulse_sequence(**kw),), mhz_to_rad_ns((sums + diffs) / 2.0),
                          mhz_to_rad_ns((sums - diffs) / 2.0))
    else:
        cells = Cells.of([cell(cfg, kw, *(float(v[k]) for v in values.values())) for k in range(n_cells)])
    dt = min(cfg.grid.dt_ns, 0.05) if cfg.experiment is Experiment.BERRY else cfg.grid.dt_ns
    grid = TimeGrid(min(s.window[0] for s in cells.drive), max(s.window[1] for s in cells.drive),
                    dt=dt, sample_stride=cfg.grid.sample_stride)
    if cell is not _DETUNED and len(cells) * grid.sample_steps.size > MAX_SERIES_ROWS:
        raise ConfigurationError(f"{len(cells)} cells x {grid.sample_steps.size} samples are more than "
                                 f"{MAX_SERIES_ROWS} series rows; raise grid.sample_stride")
    for seq in cells.drive:
        check_step(seq, grid)
    if cfg.experiment is Experiment.TIME_EVOLUTION:
        _summary_windows(cells.drive[0], grid)
    elif cfg.experiment is Experiment.TOMOGRAPHY_TIMELINE:
        check_readout(cfg.cavity, cfg.transmon, cfg.tomography.tau_max_ns, cfg.tomography.dtau_ns)
    elif cfg.experiment is Experiment.BERRY:
        check_oracle_preconditions(cells.drive[0], cfg.berry.metric_threshold)
    return Plan(cells, grid, axes, values)


def _summary_windows(seq: PulseSequence, grid: TimeGrid) -> List[np.ndarray]:
    """Masks of the samples in the pulse overlap and between the pulse peaks,
    where the time-evolution summary takes maxima; each must hold one."""
    times = grid.times[grid.sample_steps]
    peaks = (min(seq.gaussian_centers(Transition.T12)), max(seq.gaussian_centers(Transition.T01)))
    masks = []
    for (a, b), what in ((overlap_window(seq), "pulse overlap"),
                         (peaks, "span between the pulse peaks")):
        masks.append((times >= a) & (times <= b))
        if not masks[-1].any():
            raise ConfigurationError(
                f"grid.sample_stride = {grid.sample_stride} (dt {grid.dt} ns) leaves no sample "
                f"in the {what}, [{a:g}, {b:g}] ns")
    return masks


def _t01_peak(seq: PulseSequence) -> float:
    return seq.gaussian_centers(Transition.T01)[0]


def _sweep(cfg: ExperimentConfig, plan: Plan, series: bool = True):
    """Batch the plan's cells; returns the batch and one record {"cell", <axis>: value,
    ..., "error"} per failed cell.  Without series the batch keeps each cell's final and
    peak populations only."""
    batch = run_batch(plan.cells, cfg.transmon, plan.grid, dissipative=cfg.dissipative,
                      workers=cfg.workers, series=series)
    failures = [{"cell": int(c), **{k: float(v[c]) for k, v in plan.values.items()}, "error": msg}
                for c, _, msg in batch.failures]
    return batch, failures


def _series(name: str, axis: str, values, shifts, batch) -> Table:
    """Each 3-level cell's samples as (value, t - shift, p0, p1, p2) rows, cell by cell."""
    rows = np.empty((*batch.populations.shape[:2], 5))  # filled in place, so the table is held once
    rows[:, :, 0] = np.reshape(values, (-1, 1))
    np.subtract(batch.times, np.reshape(shifts, (-1, 1)), out=rows[:, :, 1])
    rows[:, :, 2:] = batch.populations
    return Table(name, (axis, "t_ns", "p0", "p1", "p2"), rows.reshape(-1, 5))


def _result(cfg: ExperimentConfig, axes: Dict[str, np.ndarray],
            tables: List[Table], failures=(), **meta: str) -> SweepResult:
    """The runners' one result envelope, of kind cfg.experiment; metadata
    leads with config_hash."""
    return SweepResult(cfg.experiment.value, axes, tables,
                       {"config_hash": config_hash(cfg), **meta}, list(failures))


# ---------------------------------------------------------------------------
# runners: each integrates its plan and analyses the result

def _run_time_evolution(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Single STIRAP run at the configured parameters, with and without
    dissipation (one run without); emits the sampled populations and a summary."""
    seq, grid = plan.cells.drive[0], plan.grid
    res_d = evolve(seq, cfg.transmon, grid, dissipative=cfg.dissipative)
    res_u = evolve(seq, cfg.transmon, grid, dissipative=False) if cfg.dissipative else res_d
    times, shift = res_d.times, _t01_peak(seq)
    in_overlap, between = _summary_windows(seq, grid)
    pd, pu = res_d.populations[0], res_u.populations[0]
    main, unitary = (Table(name, ("t_ns", "p0", "p1", "p2", "trace_drift"),
                           np.column_stack([times - shift, pops, np.abs(pops.sum(axis=1) - 1.0)]))
                     for name, pops in (("time_evolution", pd), ("time_evolution_unitary", pu)))
    i_peak = int(pd[:, 2].argmax())
    summary = Table("time_evolution_summary",
                    ("peak_p2", "t_peak_ns", "final_p2", "p1_max_overlap",
                     "p1_max_between_peaks", "unitary_final_p2"),
                    np.array([[pd[i_peak, 2], times[i_peak] - shift, pd[-1, 2],
                               pd[in_overlap, 1].max(), pd[between, 1].max(), pu[-1, 2]]]))
    return _result(cfg, {"t_ns": main.column("t_ns")}, [main, unitary, summary])


def _run_separation_sweep(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Population maps versus pulse separation on a common time window."""
    ts_axis = plan.axes["t_separation_ns"]
    batch, failures = _sweep(cfg, plan)

    p2 = batch.populations[:, :, 2]
    summary = Table("separation_sweep",
                    ("t_separation_ns", "peak_p2", "final_p2", "sustained_p2"),
                    np.asarray([[float(ts), p.max(), p[-1],
                                 sustained_max(p, batch.times, cfg.pulses.sigma_ns)]
                                for ts, p in zip(ts_axis, p2)]))
    # each cell's times are measured from its own 01-pulse peak
    series = _series("separation_sweep_timeseries", "t_separation_ns", ts_axis,
                     [_t01_peak(seq) for seq in plan.cells.drive], batch)
    sust = summary.column("sustained_p2")
    return _result(cfg, plan.axes, [summary, series], failures,
                   argmax_sustained_ts_ns=repr(float(ts_axis[int(np.nanargmax(sust))])),
                   positive_ts_alternations=str(count_alternations(sust[ts_axis > 0])))


def _plane(cfg: ExperimentConfig, plan: Plan, name: str):
    """The detuning plane's axes, per-cell final and peak populations, and failed cells."""
    batch, failures = _sweep(cfg, plan, series=False)
    final = batch.final
    p1 = final[:, 1:-1].sum(axis=1)  # both branches of a split |1>
    table = Table(name,
                  ("detuning_sum_mhz", "detuning_diff_mhz",
                   "final_p0", "final_p1", "final_p2", "peak_p2"),
                  np.column_stack([*plan.values.values(), final[:, 0], p1, final[:, -1], batch.peak[:, -1]]))
    return (*plan.axes.values(), table, failures)


def _run_detuning_map(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Final and peak populations over the (sum, difference) detuning plane."""
    sums, diffs, table, failures = _plane(cfg, plan, "detuning_map")
    i_sum0, j_diff0 = int(np.abs(sums).argmin()), int(np.abs(diffs).argmin())
    diag_rows = []
    for col in ("final_p2", "peak_p2"):
        m = table.column(col).reshape(len(sums), len(diffs))
        w_sum, cens_s = fwhm(sums, m[:, j_diff0])
        w_diff, cens_d = fwhm(diffs, m[i_sum0, :])
        sym = float(np.max(np.abs(m - m[:, ::-1])))
        # a NaN width (a slice through a failed cell) makes the ratio NaN
        ratio = math.nan if math.isnan(w_sum + w_diff) else w_sum / w_diff if w_diff > 0 else math.inf
        diag_rows.append([w_sum, float(cens_s), w_diff, float(cens_d), ratio, sym])
    diagnostics = Table(
        "detuning_map_diagnostics",
        ("fwhm_sum_mhz", "fwhm_sum_censored", "fwhm_diff_mhz",
         "fwhm_diff_censored", "fwhm_ratio", "diff_mirror_asymmetry"),
        np.asarray(diag_rows))
    return _result(cfg, plan.axes, [table, diagnostics], failures)


def _run_hybrid(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Fast 01 rotation followed by STIRAP, swept over the rotation angle."""
    thetas = plan.axes["theta_fast_rad"]
    batch, failures = _sweep(cfg, plan)
    t01 = _t01_peak(plan.cells.drive[0])
    late = batch.times >= t01
    summary = Table("hybrid",
                    ("theta_fast_rad", "final_p2", "peak_p2", "late_p0_alternations"),
                    np.asarray([[float(theta), pops[-1, 2], pops[:, 2].max(),
                                 float(count_alternations(pops[late, 0], threshold=1e-3))]
                                for theta, pops in zip(thetas, batch.populations)]))
    series = _series("hybrid_timeseries", "theta_fast_rad", thetas,
                     np.full(len(thetas), t01), batch)
    return _result(cfg, plan.axes, [summary, series], failures)


def _run_reversal(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Three-pulse sequence: transfer to |2> and adiabatically back to |0>."""
    res = evolve(plan.cells.drive[0], cfg.transmon, plan.grid, dissipative=cfg.dissipative)
    pops = res.populations[0]
    series = Table("reversal_timeseries", ("t_ns", "p0", "p1", "p2"),
                   np.column_stack([res.times, pops]))
    summary = Table("reversal",
                    ("max_p2", "final_p0", "final_p1", "final_p2"),
                    np.array([[pops[:, 2].max(), pops[-1, 0], pops[-1, 1], pops[-1, 2]]]))
    return _result(cfg, {"t_ns": res.times}, [summary, series])


def _run_split_map(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Detuning map with the split intermediate level (4-level system)."""
    sums, diffs, table, failures = _plane(cfg, plan, "split_map")
    peak_map, final_map = (table.column(c).reshape(len(sums), len(diffs)) for c in ("peak_p2", "final_p2"))
    midpoint = float(peak_map[np.abs(sums).argmin(), np.abs(diffs).argmin()])
    diagnostics = Table(
        "split_map_diagnostics",
        ("blob_count_peak", "blob_count_final", "midpoint_peak_p2",
         "max_peak_p2", "midpoint_suppression"),
        np.array([[blob_count(peak_map), blob_count(final_map),
                   midpoint, float(peak_map.max()), float(peak_map.max() - midpoint)]]))
    return _result(cfg, plan.axes, [table, diagnostics], failures)


def _run_tomography_timeline(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Simulate STIRAP, synthesize reference traces, and push every sampled
    state through the mix-and-invert measurement pipeline."""
    seq = plan.cells.drive[0]
    sim = evolve(seq, cfg.transmon, plan.grid, dissipative=cfg.dissipative)
    pops = sim.populations[0]
    tomo = cfg.tomography
    refs = synth_reference_traces(cfg.cavity, cfg.transmon, tomo.tau_max_ns, tomo.dtau_ns,
                                  tomo.decoherence_corrected_refs)
    noise_std = tomo.noise_std_rel * trace_scale(refs)  # floats: an overflow is inf, with no warning
    if not math.isfinite(noise_std):  # before the manifest's strict JSON meets it
        raise NumericalError(f"tomography noise_std {noise_std} is not finite")
    results = tomography_timeline(pops, refs, noise_std=noise_std,
                                  weight_ns=tomo.weight_ns, seed=cfg.seed)
    shift = _t01_peak(seq)
    rows = [[t - shift, *p_true, *rec.p, rec.residual]
            for t, p_true, rec in zip(sim.times, pops, results)]
    table = Table("tomography_timeline",
                  ("t_ns", "p0", "p1", "p2", "p0_hat", "p1_hat", "p2_hat", "residual"),
                  np.asarray(rows))
    err = np.max(np.abs(table.rows[:, 4:7] - table.rows[:, 1:4]))
    return _result(cfg, {"t_ns": table.column("t_ns")}, [table],
                   max_abs_error=repr(float(err)), noise_std=repr(float(noise_std)))


def _run_berry(cfg: ExperimentConfig, plan: Plan) -> SweepResult:
    """Geometric phase of a plateau sequence versus the propagation oracle."""
    seq, grid = plan.cells.drive[0], plan.grid
    res = berry_vs_oracle(seq, cfg.transmon, grid, metric_threshold=cfg.berry.metric_threshold)
    summary = Table("berry",
                    ("gamma_berry_rad", "gamma_oracle_rad", "mismatch_rad", "leakage"),
                    np.array([[res.gamma_berry, res.gamma_oracle, res.mismatch, res.leakage]]))
    path = realized_path(seq, grid.times[grid.sample_steps])
    path_table = Table("berry_path", ("t_ns", "theta_rad", "phi_rad"), path.samples)
    return _result(cfg, {"t_ns": path.samples[:, 0]}, [summary, path_table])


# Per experiment: its runner, its sweep axes in order with their defaults,
# whether it models the split intermediate level (transmon.split), and its
# sequence for one cell, from the config, _seq_kwargs and the cell's axis
# values, or _DETUNED: a plane's axes (s, d) MHz set only each cell's delta01
# = (s + d) / 2 and delta12 = (s - d) / 2 under one two-pulse drive.  Plans
# call the builders through this module's globals, so a wrapper put on those
# names (perfbench's tracer) sees every build.
_DETUNED = "detuned"
_EXPERIMENTS = {
    Experiment.TIME_EVOLUTION: (_run_time_evolution, {}, False, _stirap),
    Experiment.SEPARATION_SWEEP: (_run_separation_sweep, {"t_separation_ns": DEFAULT_TS_AXIS}, False,
                                  lambda cfg, kw, ts: two_pulse_sequence(**{**kw, "t_s": ts})),
    Experiment.DETUNING_MAP: (_run_detuning_map, dict.fromkeys(_PLANE, DEFAULT_DETUNING_AXIS), False, _DETUNED),
    Experiment.HYBRID: (_run_hybrid, {"theta_fast_rad": DEFAULT_THETA_AXIS}, False,
                        lambda cfg, kw, theta: build_sequence(SequenceKind.HYBRID, theta_fast=theta,
                                                              fast_duration=cfg.pulses.fast_duration_ns, **kw)),
    Experiment.REVERSAL: (_run_reversal, {}, False, lambda cfg, kw: build_sequence(
        SequenceKind.REVERSAL, reversal_spacing=cfg.pulses.reversal_spacing_ns, **kw)),
    Experiment.SPLIT_MAP: (_run_split_map, dict.fromkeys(_PLANE, DEFAULT_SPLIT_AXIS), True, _DETUNED),
    Experiment.TOMOGRAPHY_TIMELINE: (_run_tomography_timeline, {}, False, _stirap),
    Experiment.BERRY: (_run_berry, {}, False, lambda cfg, kw: plateau_phase_sequence(
        theta=cfg.berry.theta_rad, phi_total=cfg.berry.phi_total_rad, sigma=cfg.berry.sigma_ns,
        omega_rms=mhz_to_rad_ns(cfg.berry.omega_rms_mhz), ramp_span=cfg.berry.ramp_span_ns)),
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run cfg.experiment, the one way in: plan(cfg), then its runner."""
    return _EXPERIMENTS[cfg.experiment][0](cfg, plan(cfg))


# ---------------------------------------------------------------------------
# emission

def emit(result: SweepResult, out_dir, fmt: str = "csv") -> List[Path]:
    """Write tables plus a manifest; byte-deterministic given config+seed.
    An output that cannot be written raises ConfigurationError naming it; an emit
    that fails, out of memory too, first removes what this call wrote."""
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    created = not out.exists()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # the path, or one of its parents, is a file
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from None
    manifest = {
        "kind": result.kind,
        "config_hash": result.metadata.get("config_hash", ""),
        "version": __version__,
        "format": fmt,
        "tables": [t.name for t in result.tables],
        "failures": result.failures,
        "metadata": dict(result.metadata),
    }
    files = ([(f"{t.name}.csv", _table_texts(t, json_table=False)) for t in result.tables] if fmt == "csv"
             else [(f"{result.kind}.json", _json_texts(result))])
    written, complete = [], False
    try:
        for name, texts in [*files, (f"{result.kind}_manifest.json", [_strict_json(manifest) + "\n"])]:
            path = out / name
            with path.open("w") as f:
                written.append(path)
                f.writelines(texts)
        complete = True
    except OSError as exc:  # e.g. a directory where the file should be
        raise ConfigurationError(f"cannot write output {path}: {exc}") from None
    finally:
        if not complete:
            for opened in written:
                opened.unlink()
            if created and not any(out.iterdir()):
                out.rmdir()
    return written


def _json_texts(result: SweepResult):
    """The bytes of _strict_json on the payload {"axes", "data", "failures", "metadata"}."""
    axes = {k: [float(v) for v in vals] for k, vals in result.axes.items()}
    yield f'{{"axes":{_strict_json(axes)},"data":{{'
    for i, t in enumerate(sorted(result.tables, key=lambda t: t.name)):  # keys sorted
        yield f'{"," * (i > 0)}{_strict_json(t.name)}:'
        yield from _table_texts(t, json_table=True)
        yield "]}"
    yield f'}},"failures":{_strict_json(result.failures)},"metadata":{_strict_json(result.metadata)}}}\n'


def _table_texts(table: Table, json_table: bool):
    """A table's text, made a row at a time from its values' reprs as it is written, so
    the whole text is never held: its CSV file, or its JSON object up to the closing ]}."""
    yield f'{{"columns":{_strict_json(table.columns)},"rows":[' if json_table else ",".join(table.columns) + "\n"
    for k, row in enumerate(table.rows):
        text = ",".join(map(repr, row.tolist()))
        if json_table and "n" in text:  # JSON's null for inf and nan, the only reprs with an n
            text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
        yield f'{"," * (k > 0)}[{text}]' if json_table else text + "\n"


def _strict_json(obj) -> str:
    """RFC 8259 JSON: a NaN or infinity left in obj raises ValueError."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
