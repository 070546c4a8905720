"""Correctness gate: emitted tables against values recorded at the seed commit.

Integrated populations must match the recorded values to TOLERANCE
(absolute), the accuracy ROADMAP direction 5 asks of the production
kernel. Tomography estimates carry seeded noise, so they are checked
against the simulated truth instead: mean absolute error at most
TOMOGRAPHY_MAE, as in acceptance criterion 7. A cell out of tolerance is
a failed operation.
"""

from __future__ import annotations

import collections
import dataclasses
import gzip
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

TOLERANCE = 1e-8
TOMOGRAPHY_MAE = 0.03
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# table -> (leading columns that name the cell, row stride, columns checked).
# Strides are coprime to the per-cell series length, so the sampled rows
# of a long series table land on every cell at varying times.
CHECKED = {
    "detuning_map": (2, 1, None),
    "split_map": (2, 1, None),
    "time_evolution": (0, 5, None),
    "time_evolution_unitary": (0, 5, None),
    "time_evolution_summary": (0, 1, None),
    "separation_sweep": (1, 1, None),
    "separation_sweep_timeseries": (1, 37, None),
    "hybrid": (1, 1, None),
    "hybrid_timeseries": (1, 13, None),
    "reversal": (0, 1, None),
    "reversal_timeseries": (0, 5, None),
    "tomography_timeline": (0, 1, ("t_ns", "p0", "p1", "p2")),
    "berry": (0, 1, None),
    "berry_path": (0, 5, None),
}
# The cell an unkeyed table belongs to, when it is not the table itself.
CELL = {"time_evolution_summary": "time_evolution", "reversal_timeseries": "reversal",
        "berry_path": "berry"}
# The Berry oracle's cell and the comparison it feeds fail together.
OPS_PER_CELL = {"berry": 2}
# Table whose row c is cell c of a batch, for failures the runner reports.
KEY_TABLE = {"detuning_map": "detuning_map", "split_map": "split_map",
             "separation_sweep": "separation_sweep"}


def sample_rows(n_rows: int, stride: int) -> List[int]:
    rows = list(range(0, n_rows, stride))
    if n_rows and rows[-1] != n_rows - 1:
        rows.append(n_rows - 1)
    return rows


def record(outcome) -> Dict[str, dict]:
    """Reference values for every checked table of a pass."""
    stages = {}
    for s in outcome.stages:
        if s.error:
            raise RuntimeError(f"cannot record {s.name}: runner raised {s.error}")
        tables = {}
        for t in s.result.tables:
            if t.name not in CHECKED:
                continue
            key, stride, cols = CHECKED[t.name]
            cols = list(cols or t.columns)
            idx = sample_rows(len(t.rows), stride)
            tables[t.name] = {
                "columns": cols, "key": key, "n_rows": len(t.rows), "stride": stride,
                "rows": t.rows[np.ix_(idx, [t.columns.index(c) for c in cols])].tolist(),
            }
        stages[s.name] = tables
    return stages


def load(workload: str) -> Dict[str, dict]:
    with gzip.open(REFERENCE_DIR / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)["stages"]


def save(workload: str, stages: Dict[str, dict], provenance: dict) -> Path:
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json.gz"
    payload = {**provenance, "tolerance": TOLERANCE, "stages": stages}
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
    return path


@dataclasses.dataclass
class Verdict:
    """Operations attempted and failed in a pass, and what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)
    failures: collections.Counter = dataclasses.field(default_factory=collections.Counter)

    @property
    def correct(self) -> bool:
        return not self.problems


def _bad_cells(stage: str, result, ref_tables: dict, problems: List[str]):
    """Cells with a value out of tolerance; None when a table does not
    line up with its reference at all."""
    bad = set()
    for name, ref in ref_tables.items():
        try:
            table = result.table(name)
        except KeyError:
            problems.append(f"{stage}: table {name} missing")
            return None
        missing = [c for c in ref["columns"] if c not in table.columns]
        if missing or len(table.rows) != ref["n_rows"]:
            problems.append(f"{stage}: table {name} has {len(table.rows)} rows and "
                            f"lacks {missing}; reference has {ref['n_rows']} rows")
            return None
        idx = sample_rows(ref["n_rows"], ref["stride"])
        got = table.rows[np.ix_(idx, [table.columns.index(c) for c in ref["columns"]])]
        want = np.asarray(ref["rows"], dtype=float)
        off = ~(np.abs(got - want) <= TOLERANCE)  # NaN counts as off
        for r in np.flatnonzero(off.any(axis=1)):
            key = ref["key"]
            bad.add((stage, tuple(want[r, :key])) if key else CELL.get(name, name))
        if off.any():
            problems.append(f"{stage}: {int(off.any(axis=1).sum())} sampled rows of {name} "
                            f"off by up to {np.nanmax(np.abs(got - want)):.3e}")
    return bad


def _reported_cells(stage: str, result, ref_tables: dict):
    """Cells the runner itself reports as failed (trace drift, eigenvalue)."""
    ref = ref_tables.get(KEY_TABLE.get(stage, ""))
    cells = set()
    for f in result.failures:
        c = int(f["cell"])
        cells.add((stage, tuple(ref["rows"][c][:ref["key"]])) if ref else (stage, c))
    return cells


def check_pass(outcome, plans, reference: Dict[str, dict]) -> Verdict:
    v = Verdict()
    for plan, s in zip(plans, outcome.stages):
        v.attempted += plan.ops
        if s.error:
            v.failed += plan.ops
            v.failures[s.error] += plan.ops
            v.problems.append(f"{s.name}: runner raised {s.error}")
            continue
        if s.name not in reference:
            v.problems.append(f"{s.name}: no reference values")
            continue
        bad = _bad_cells(s.name, s.result, reference[s.name], v.problems)
        if bad is None:
            n = plan.cells + plan.comparisons
            v.failures["out_of_tolerance"] += n
        else:
            reported = _reported_cells(s.name, s.result, reference[s.name])
            n = sum(OPS_PER_CELL.get(c, 1) for c in bad | reported)
            v.failures["out_of_tolerance"] += sum(OPS_PER_CELL.get(c, 1) for c in bad)
            v.failures["reported_by_runner"] += len(reported - bad)
        v.failed += n
        if plan.inversions:
            v.failed += s.inversion_failures
            v.failures["MaxIterationsError"] += s.inversion_failures
            t = s.result.table("tomography_timeline")
            mae = float(np.mean([np.abs(t.column(f"p{j}_hat") - t.column(f"p{j}"))
                                 for j in range(3)]))
            if not mae <= TOMOGRAPHY_MAE:
                v.problems.append(f"{s.name}: tomography MAE {mae:.4f} > {TOMOGRAPHY_MAE}")
                rest = plan.inversions - s.inversion_failures
                v.failed += rest
                v.failures["tomography_mae"] += rest
    v.failures = collections.Counter({k: n for k, n in v.failures.items() if n})
    return v
