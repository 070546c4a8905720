"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Smoke runs use small, coarse variants of each workload (workloads.SMOKE)
and a reference recorded from their own first pass.
"""

import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import reference
import run
import tracing
import workloads
from stirap import experiments, tomography
from stirap.errors import MaxIterationsError

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def smoke_pass(tmp_path, name, stage=None):
    plans = workloads.setup(name, workloads.DEFAULT_SEED, smoke=True)
    if stage:
        plans = [p for p in plans if p.stage.name == stage]
    with workloads.InversionGuard() as guard:
        outcome = workloads.run_pass(plans, tmp_path / "emit", guard)
    return plans, outcome


def test_metric_names_are_valid_and_unique():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert "setup_s" in END_TO_END
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_metric(tmp_path, name):
    plans, outcome = smoke_pass(tmp_path, name)
    ref = reference.record(outcome)
    for trace, expected in ((False, END_TO_END), (True, PER_LAYER)):
        tracer = tracing.Tracer("smoke") if trace else None
        metrics, verdicts, _ = run.measure(name, workloads.DEFAULT_SEED, 0.0, plans, ref,
                                           f"smoke-{name}", tracer)
        assert set(metrics) == expected
        assert all(NAME.fullmatch(n) for n in metrics)
        assert all(np.isfinite(v) for v, _ in metrics.values())
        assert all(v.correct for v in verdicts), [v.problems for v in verdicts]
    if name != "experiment-set":
        assert metrics["batch.chunks"][0] >= 1 and metrics["batch.rhs_evals"][0] > 0
    else:
        assert metrics["lindblad.evolve_calls"][0] > 0 and metrics["tomography.inversions"][0] > 0


def test_runs_attempt_and_fail_the_same_on_every_seed():
    assert run.pass_count("experiment-set", 30) == run.pass_count("experiment-set", 30.0) == 3
    assert run.pass_count("detuning-map", 0) == run.MIN_PASSES
    for seed in (1, 2, 99):
        plans = workloads.setup("experiment-set", seed)
        seeds = {p.stage.name: p.cfg.seed for p in plans}
        assert seeds.pop("tomography_timeline") == workloads.DEFAULT_SEED
        assert set(seeds.values()) == {seed}


def test_gate_trips_on_perturbed_reference(tmp_path):
    plans, outcome = smoke_pass(tmp_path, "detuning-map")
    ref = reference.record(outcome)
    assert reference.check_pass(outcome, plans, ref).correct

    rows = ref["detuning_map"]["detuning_map"]["rows"]
    rows[1][4] += 0.1 * reference.TOLERANCE
    assert reference.check_pass(outcome, plans, ref).failed == 0

    rows[1][4] += 10 * reference.TOLERANCE
    verdict = reference.check_pass(outcome, plans, ref)
    assert not verdict.correct
    assert verdict.failed == 1
    assert verdict.failures == {"out_of_tolerance": 1}


def test_forced_max_iterations_is_counted_not_raised(tmp_path, monkeypatch):
    real = tomography.reconstruct_populations
    calls = []

    def every_third_fails(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        if len(calls) % 3 == 0:
            raise MaxIterationsError("forced", result=result)
        return result

    monkeypatch.setattr(tomography, "reconstruct_populations", every_third_fails)
    plans, outcome = smoke_pass(tmp_path, "experiment-set", stage="tomography_timeline")
    stage = outcome.stages[0]
    assert stage.error is None
    assert stage.inversion_failures == len(calls) // 3 > 0
    assert len(calls) == plans[0].inversions
    verdict = reference.check_pass(outcome, plans, reference.record(outcome))
    assert verdict.correct
    assert verdict.failures == {"MaxIterationsError": len(calls) // 3}


def test_runner_exception_is_a_failed_stage_and_the_rest_still_run(tmp_path, monkeypatch):
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    plans, good = smoke_pass(tmp_path, "experiment-set")
    ref = reference.record(good)
    monkeypatch.setattr(experiments, "run_batch", diverged)
    with workloads.InversionGuard() as guard:
        outcome = workloads.run_pass(plans, tmp_path / "emit", guard)
    errors = {s.name: s.error for s in outcome.stages}
    assert errors.pop("separation_sweep") == "LinAlgError"
    assert set(errors.values()) == {None}
    verdict = reference.check_pass(outcome, plans, ref)
    sweep = next(p for p in plans if p.stage.name == "separation_sweep")
    assert verdict.failures["LinAlgError"] == sweep.ops
    assert verdict.failed == sweep.ops + verdict.failures.get("MaxIterationsError", 0)


def test_exits_nonzero_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "detuning-map",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
