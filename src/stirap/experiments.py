"""Config-driven experiment runners and result emission.

Each runner returns a SweepResult holding named tables; emit() writes
them as CSV or JSON plus a manifest.  Outputs are byte-deterministic
for a given config and seed: no timestamps, fixed float formatting,
fixed cell ordering, and noise seeds derived from (seed, cell index).
Time axes of emitted series are measured from the 01-pulse peak.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from . import __version__
from ._batch import run_batch
from .config import EXPERIMENT_AXES, Experiment, ExperimentConfig, config_hash
from .core import basis_ket, dm_from_ket
from .errors import ConfigurationError
from .holonomy import berry_vs_oracle, plateau_phase_sequence, realized_path
from .lindblad import SimResult, TimeGrid, evolve
from .pulses import (
    GaussianPulse,
    PulseSequence,
    SequenceKind,
    Transition,
    build_sequence,
    two_pulse_sequence,
)
from .tomography import synth_reference_traces, tomography_timeline, trace_scale
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
        for t in self.tables:
            if t.name == name:
                return t
        raise KeyError(name)


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


def count_alternations(values: np.ndarray, threshold: float = 1e-4) -> int:
    """Number of rise/fall alternations (local extrema) in a series."""
    v = np.asarray(values, dtype=float)
    signs = np.sign(np.diff(v))
    signs = signs[np.abs(np.diff(v)) > threshold]
    signs = signs[signs != 0]
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
    kernel = np.ones(k) / k
    return float(np.convolve(series, kernel, mode="valid").max())


def fwhm(x: np.ndarray, y: np.ndarray) -> Tuple[float, bool]:
    """Full width at half max of a peaked slice, linearly interpolated.

    Returns (width, censored); censored means a half crossing fell outside
    the sampled range, so the width is a lower bound.
    """
    y = np.asarray(y, dtype=float)
    half = y.max() / 2.0
    above = y >= half
    if not above.any():
        return 0.0, True
    i0 = int(np.argmax(above))
    i1 = int(len(y) - 1 - np.argmax(above[::-1]))
    censored = False
    if i0 == 0:
        lo = x[0]
        censored = True
    else:
        lo = x[i0 - 1] + (x[i0] - x[i0 - 1]) * (half - y[i0 - 1]) / (y[i0] - y[i0 - 1])
    if i1 == len(y) - 1:
        hi = x[-1]
        censored = True
    else:
        hi = x[i1] + (x[i1 + 1] - x[i1]) * (half - y[i1]) / (y[i1 + 1] - y[i1])
    return float(hi - lo), censored


def blob_count(map2d: np.ndarray, threshold: float = BLOB_THRESHOLD) -> int:
    """Connected regions above threshold, 4-connectivity (a flood fill)."""
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
    return n


# ---------------------------------------------------------------------------
# sequence construction from config

def _seq_kwargs(cfg: ExperimentConfig) -> dict:
    p = cfg.pulses
    return dict(
        omega01=mhz_to_rad_ns(p.omega01_mhz),
        omega12=mhz_to_rad_ns(p.omega12_mhz),
        sigma=p.sigma_ns,
        t_s=p.t_separation_ns,
        delta01=mhz_to_rad_ns(p.delta01_mhz),
        delta12=mhz_to_rad_ns(p.delta12_mhz),
        phi01=p.phi01_rad,
        phi12=p.phi12_rad,
    )


def _grid_for(seq: PulseSequence, cfg: ExperimentConfig) -> TimeGrid:
    return TimeGrid(seq.window[0], seq.window[1], dt=cfg.grid.dt_ns,
                    sample_stride=cfg.grid.sample_stride)


def _t01_peak(seq: PulseSequence) -> float:
    centers = seq.gaussian_centers(Transition.T01)
    return centers[0] if centers else 0.0


def _timeseries_rows(value: float, times: np.ndarray, pops: np.ndarray,
                     t_shift: float) -> np.ndarray:
    """One 3-level sweep cell's samples as (value, t, p0, p1, p2) rows."""
    return np.column_stack([np.full(len(times), value), times - t_shift, pops])


# ---------------------------------------------------------------------------
# runners

def run_time_evolution(cfg: ExperimentConfig) -> SweepResult:
    """Single STIRAP run at the configured parameters, with and without
    dissipation; emits the sampled populations and a summary."""
    seq = build_sequence(SequenceKind.STIRAP, **_seq_kwargs(cfg))
    grid = _grid_for(seq, cfg)
    shift = _t01_peak(seq)

    res_d = evolve(dm_from_ket(basis_ket(0)), seq, cfg.transmon, grid,
                   dissipative=cfg.dissipative, store_states=False)
    res_u = evolve(basis_ket(0), seq, cfg.transmon, grid,
                   dissipative=False, store_states=False)

    def drift_col(r: SimResult) -> np.ndarray:
        return np.abs(r.populations.sum(axis=1) - 1.0)

    main = Table(
        name="time_evolution",
        columns=("t_ns", "p0", "p1", "p2", "trace_drift"),
        rows=np.column_stack([res_d.times - shift, res_d.populations, drift_col(res_d)]),
    )
    unitary = Table(
        name="time_evolution_unitary",
        columns=("t_ns", "p0", "p1", "p2", "trace_drift"),
        rows=np.column_stack([res_u.times - shift, res_u.populations, drift_col(res_u)]),
    )

    lo, hi = overlap_window(seq)
    in_overlap = (res_d.times >= lo) & (res_d.times <= hi)
    between = (res_d.times >= min(seq.gaussian_centers(Transition.T12))) & (
        res_d.times <= max(seq.gaussian_centers(Transition.T01)))
    i_peak = int(res_d.populations[:, 2].argmax())
    summary = Table(
        name="time_evolution_summary",
        columns=("peak_p2", "t_peak_ns", "final_p2", "p1_max_overlap",
                 "p1_max_between_peaks", "unitary_final_p2"),
        rows=np.array([[
            res_d.populations[i_peak, 2],
            res_d.times[i_peak] - shift,
            res_d.populations[-1, 2],
            res_d.populations[in_overlap, 1].max(),
            res_d.populations[between, 1].max(),
            res_u.populations[-1, 2],
        ]]),
    )
    return SweepResult(
        kind=Experiment.TIME_EVOLUTION.value,
        axes={"t_ns": main.column("t_ns")},
        tables=[main, unitary, summary],
        metadata={"config_hash": config_hash(cfg)},
    )


DEFAULT_TS_AXIS = tuple(np.arange(-200.0, 201.0, 5.0))


def run_separation_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Population maps versus pulse separation on a common time window."""
    ts_axis = cfg.axis("t_separation_ns", DEFAULT_TS_AXIS)
    p = cfg.pulses
    kw = _seq_kwargs(cfg)
    del kw["t_s"]
    seqs = [two_pulse_sequence(t_s=float(ts), **kw) for ts in ts_axis]
    half_span = max(abs(float(ts)) for ts in ts_axis) / 2.0 + 4.0 * p.sigma_ns
    grid = TimeGrid(-half_span, half_span, dt=cfg.grid.dt_ns, sample_stride=cfg.grid.sample_stride)
    batch = run_batch(seqs, cfg.transmon, grid, dim=3, dissipative=cfg.dissipative,
                      workers=cfg.workers)

    series_rows = []
    summary_rows = []
    for i, ts in enumerate(ts_axis):
        pops = batch.populations[i]
        shift = -float(ts) / 2.0  # the 01-pulse peak
        series_rows.append(_timeseries_rows(float(ts), batch.times, pops, shift))
        p2 = pops[:, 2]
        summary_rows.append([
            float(ts),
            p2.max(),
            p2[-1],
            sustained_max(p2, batch.times, p.sigma_ns),
        ])
    series = Table("separation_sweep_timeseries",
                   ("t_separation_ns", "t_ns", "p0", "p1", "p2"),
                   np.vstack(series_rows))
    summary = Table("separation_sweep",
                    ("t_separation_ns", "peak_p2", "final_p2", "sustained_p2"),
                    np.asarray(summary_rows))

    sust = summary.column("sustained_p2")
    pos = sust[ts_axis > 0]
    meta = {
        "config_hash": config_hash(cfg),
        "argmax_sustained_ts_ns": repr(float(ts_axis[int(sust.argmax())])),
        "positive_ts_alternations": str(count_alternations(pos)),
    }
    failures = [{"cell": int(c), "t_separation_ns": float(ts_axis[c]), "error": msg}
                for c, msg in batch.failures]
    return SweepResult(Experiment.SEPARATION_SWEEP.value, {"t_separation_ns": ts_axis},
                       [summary, series], meta, failures)


DEFAULT_DETUNING_AXIS = tuple(np.arange(-20.0, 21.0, 1.0))


def _run_plane(cfg: ExperimentConfig, name: str, default_axis, dim: int):
    """Batch the (sum, difference) detuning plane on one common window.

    Returns the two axes, the per-cell table of final and peak
    populations, and the failed cells.
    """
    sums = cfg.axis("detuning_sum_mhz", default_axis)
    diffs = cfg.axis("detuning_diff_mhz", default_axis)
    kw = _seq_kwargs(cfg)
    del kw["delta01"], kw["delta12"]
    cells = list(itertools.product(sums, diffs))
    seqs = [two_pulse_sequence(delta01=mhz_to_rad_ns((s + d) / 2.0),
                               delta12=mhz_to_rad_ns((s - d) / 2.0), **kw)
            for s, d in cells]
    p = cfg.pulses
    span = abs(p.t_separation_ns) / 2.0 + 4.0 * p.sigma_ns
    grid = TimeGrid(-span, span, dt=cfg.grid.dt_ns, sample_stride=cfg.grid.sample_stride)
    batch = run_batch(seqs, cfg.transmon, grid, dim=dim, dissipative=cfg.dissipative,
                      workers=cfg.workers)
    rows = []
    for (s, d), pops in zip(cells, batch.populations):
        p2 = pops[:, -1]
        p1 = pops[-1, 1] + pops[-1, 2] if dim == 4 else pops[-1, 1]  # both branches of |1>
        rows.append([s, d, pops[-1, 0], p1, p2[-1], p2.max()])
    table = Table(name,
                  ("detuning_sum_mhz", "detuning_diff_mhz",
                   "final_p0", "final_p1", "final_p2", "peak_p2"),
                  np.asarray(rows))
    failures = [{"cell": int(c), "detuning_sum_mhz": float(cells[c][0]),
                 "detuning_diff_mhz": float(cells[c][1]), "error": msg} for c, msg in batch.failures]
    return sums, diffs, table, failures


def run_detuning_map(cfg: ExperimentConfig) -> SweepResult:
    """Final and peak populations over the (sum, difference) detuning plane."""
    sums, diffs, table, failures = _run_plane(cfg, "detuning_map", DEFAULT_DETUNING_AXIS, dim=3)

    diag_rows = []
    n_diff = len(diffs)
    for label, col in (("final", "final_p2"), ("peak", "peak_p2")):
        m = table.column(col).reshape(len(sums), n_diff)
        i_sum0 = int(np.abs(sums).argmin())
        j_diff0 = int(np.abs(diffs).argmin())
        w_sum, cens_s = fwhm(sums, m[:, j_diff0])
        w_diff, cens_d = fwhm(diffs, m[i_sum0, :])
        sym = float(np.max(np.abs(m - m[:, ::-1])))
        diag_rows.append([w_sum, float(cens_s), w_diff, float(cens_d),
                          w_sum / w_diff if w_diff > 0 else math.inf, sym])
    diagnostics = Table(
        "detuning_map_diagnostics",
        ("fwhm_sum_mhz", "fwhm_sum_censored", "fwhm_diff_mhz",
         "fwhm_diff_censored", "fwhm_ratio", "diff_mirror_asymmetry"),
        np.asarray(diag_rows))
    return SweepResult(Experiment.DETUNING_MAP.value,
                       {"detuning_sum_mhz": sums, "detuning_diff_mhz": diffs},
                       [table, diagnostics],
                       {"config_hash": config_hash(cfg)}, failures)


DEFAULT_THETA_AXIS = tuple(np.arange(0.0, math.pi + 1e-9, math.pi / 20.0))


def run_hybrid(cfg: ExperimentConfig) -> SweepResult:
    """Fast 01 rotation followed by STIRAP, swept over the rotation angle."""
    thetas = cfg.axis("theta_fast_rad", DEFAULT_THETA_AXIS)
    seqs = [build_sequence(SequenceKind.HYBRID, theta_fast=float(th),
                           fast_duration=cfg.pulses.fast_duration_ns, **_seq_kwargs(cfg))
            for th in thetas]
    grid = _grid_for(seqs[0], cfg)
    rho0 = None if cfg.dissipative else basis_ket(0).amplitudes
    batch = run_batch(seqs, cfg.transmon, grid, dim=3, dissipative=cfg.dissipative,
                      rho0=rho0, workers=cfg.workers)
    t01 = _t01_peak(seqs[0])
    late = batch.times >= t01

    series_rows, summary_rows = [], []
    for theta, pops in zip(thetas, batch.populations):
        series_rows.append(_timeseries_rows(float(theta), batch.times, pops, t01))
        p2 = pops[:, 2]
        alternations = count_alternations(pops[late, 0], threshold=1e-3)
        summary_rows.append([float(theta), p2[-1], p2.max(), float(alternations)])
    summary = Table("hybrid",
                    ("theta_fast_rad", "final_p2", "peak_p2", "late_p0_alternations"),
                    np.asarray(summary_rows))
    series = Table("hybrid_timeseries",
                   ("theta_fast_rad", "t_ns", "p0", "p1", "p2"),
                   np.vstack(series_rows))
    failures = [{"cell": int(c), "theta_fast_rad": float(thetas[c]), "error": msg}
                for c, msg in batch.failures]
    return SweepResult(Experiment.HYBRID.value, {"theta_fast_rad": thetas},
                       [summary, series], {"config_hash": config_hash(cfg)}, failures)


def run_reversal(cfg: ExperimentConfig) -> SweepResult:
    """Three-pulse sequence: transfer to |2> and adiabatically back to |0>."""
    kw = _seq_kwargs(cfg)
    seq = build_sequence(SequenceKind.REVERSAL,
                         reversal_spacing=cfg.pulses.reversal_spacing_ns, **kw)
    grid = _grid_for(seq, cfg)
    state0 = dm_from_ket(basis_ket(0)) if cfg.dissipative else basis_ket(0)
    res = evolve(state0, seq, cfg.transmon, grid, dissipative=cfg.dissipative,
                 store_states=False)
    series = Table("reversal_timeseries", ("t_ns", "p0", "p1", "p2"),
                   np.column_stack([res.times, res.populations]))
    summary = Table("reversal",
                    ("max_p2", "final_p0", "final_p1", "final_p2"),
                    np.array([[res.populations[:, 2].max(), res.populations[-1, 0],
                               res.populations[-1, 1], res.populations[-1, 2]]]))
    return SweepResult(Experiment.REVERSAL.value, {"t_ns": res.times},
                       [summary, series], {"config_hash": config_hash(cfg)})


DEFAULT_SPLIT_AXIS = tuple(np.arange(-24.0, 25.0, 1.0))


def run_split_map(cfg: ExperimentConfig) -> SweepResult:
    """Detuning map with the split intermediate level (4-level system)."""
    if cfg.transmon.split is None:
        raise ConfigurationError("split_map needs transmon.split parameters")
    sums, diffs, table, failures = _run_plane(cfg, "split_map", DEFAULT_SPLIT_AXIS, dim=4)

    peak_map = table.column("peak_p2").reshape(len(sums), len(diffs))
    final_map = table.column("final_p2").reshape(len(sums), len(diffs))
    i_sum0 = int(np.abs(sums).argmin())
    j_diff0 = int(np.abs(diffs).argmin())
    midpoint = float(peak_map[i_sum0, j_diff0])
    diagnostics = Table(
        "split_map_diagnostics",
        ("blob_count_peak", "blob_count_final", "midpoint_peak_p2",
         "max_peak_p2", "midpoint_suppression"),
        np.array([[float(blob_count(peak_map)), float(blob_count(final_map)),
                   midpoint, float(peak_map.max()), float(peak_map.max() - midpoint)]]))
    return SweepResult(Experiment.SPLIT_MAP.value,
                       {"detuning_sum_mhz": sums, "detuning_diff_mhz": diffs},
                       [table, diagnostics],
                       {"config_hash": config_hash(cfg)}, failures)


def run_tomography_timeline(cfg: ExperimentConfig) -> SweepResult:
    """Simulate STIRAP, synthesize reference traces, and push every sampled
    state through the mix-and-invert measurement pipeline."""
    seq = build_sequence(SequenceKind.STIRAP, **_seq_kwargs(cfg))
    grid = _grid_for(seq, cfg)
    sim = evolve(dm_from_ket(basis_ket(0)), seq, cfg.transmon, grid,
                 dissipative=cfg.dissipative, store_states=False)
    refs = synth_reference_traces(cfg.cavity, cfg.transmon,
                                  tau_max=cfg.tomography.tau_max_ns,
                                  dtau=cfg.tomography.dtau_ns,
                                  decoherence_corrected=cfg.tomography.decoherence_corrected_refs)
    noise_std = cfg.tomography.noise_std_rel * trace_scale(refs)
    results = tomography_timeline(sim, refs, noise_std=noise_std,
                                  weight_ns=cfg.tomography.weight_ns, seed=cfg.seed)
    shift = _t01_peak(seq)
    rows = []
    for t, p_true, rec in zip(sim.times, sim.populations, results):
        rows.append([t - shift, *p_true, *rec.p, rec.residual])
    table = Table("tomography_timeline",
                  ("t_ns", "p0", "p1", "p2", "p0_hat", "p1_hat", "p2_hat", "residual"),
                  np.asarray(rows))
    err = np.max(np.abs(table.rows[:, 4:7] - table.rows[:, 1:4]))
    return SweepResult(Experiment.TOMOGRAPHY_TIMELINE.value,
                       {"t_ns": table.column("t_ns")}, [table],
                       {"config_hash": config_hash(cfg),
                        "max_abs_error": repr(float(err)),
                        "noise_std": repr(float(noise_std))})


def run_berry(cfg: ExperimentConfig) -> SweepResult:
    """Geometric phase of a plateau sequence versus the propagation oracle."""
    b = cfg.berry
    seq = plateau_phase_sequence(theta=b.theta_rad, phi_total=b.phi_total_rad,
                                 sigma=b.sigma_ns,
                                 omega_rms=mhz_to_rad_ns(b.omega_rms_mhz),
                                 ramp_span=b.ramp_span_ns)
    grid = TimeGrid(seq.window[0], seq.window[1], dt=min(cfg.grid.dt_ns, 0.05),
                    sample_stride=cfg.grid.sample_stride)
    res = berry_vs_oracle(seq, cfg.transmon, grid, metric_threshold=b.metric_threshold)
    summary = Table("berry",
                    ("gamma_berry_rad", "gamma_oracle_rad", "mismatch_rad", "leakage"),
                    np.array([[res.gamma_berry, res.gamma_oracle, res.mismatch, res.leakage]]))
    path = realized_path(seq, grid.times[::grid.sample_stride])
    path_table = Table("berry_path", ("t_ns", "theta_rad", "phi_rad"), path.samples)
    return SweepResult(Experiment.BERRY.value, {"t_ns": path.samples[:, 0]},
                       [summary, path_table], {"config_hash": config_hash(cfg)})


_RUNNERS = {
    Experiment.TIME_EVOLUTION: run_time_evolution,
    Experiment.SEPARATION_SWEEP: run_separation_sweep,
    Experiment.DETUNING_MAP: run_detuning_map,
    Experiment.HYBRID: run_hybrid,
    Experiment.REVERSAL: run_reversal,
    Experiment.SPLIT_MAP: run_split_map,
    Experiment.TOMOGRAPHY_TIMELINE: run_tomography_timeline,
    Experiment.BERRY: run_berry,
}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run cfg.experiment; a sweep axis that experiment does not read is an error."""
    reads = EXPERIMENT_AXES[cfg.experiment]
    for name in cfg.sweep:
        if name not in reads:
            raise ConfigurationError(
                f"sweep axis {name!r} is not read by {cfg.experiment.value}; "
                f"it reads {list(reads) if reads else 'no sweep axis'}")
    return _RUNNERS[cfg.experiment](cfg)


# ---------------------------------------------------------------------------
# emission

def emit(result: SweepResult, out_dir, fmt: str = "csv") -> List[Path]:
    """Write tables plus a manifest; byte-deterministic given config+seed."""
    if fmt not in ("csv", "json"):
        raise ConfigurationError(f"unknown output format {fmt!r}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []

    if fmt == "csv":
        for table in result.tables:
            path = out / f"{table.name}.csv"
            lines = [",".join(table.columns)]
            for row in table.rows:
                lines.append(",".join(repr(float(v)) for v in row))
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
    else:
        payload = {
            "metadata": dict(result.metadata),
            "axes": {k: [float(v) for v in vals] for k, vals in result.axes.items()},
            "data": {
                t.name: {"columns": list(t.columns),
                         "rows": [[float(v) for v in row] for row in t.rows]}
                for t in result.tables
            },
            "failures": result.failures,
        }
        path = out / f"{result.kind}.json"
        path.write_text(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        written.append(path)

    manifest = {
        "kind": result.kind,
        "config_hash": result.metadata.get("config_hash", ""),
        "version": __version__,
        "format": fmt,
        "tables": [t.name for t in result.tables],
        "failures": result.failures,
        "metadata": dict(result.metadata),
    }
    mpath = out / f"{result.kind}_manifest.json"
    mpath.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    written.append(mpath)
    return written
