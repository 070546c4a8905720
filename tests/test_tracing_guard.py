"""The names perfbench's tracer wraps, and what its notes read, must exist.

perfbench/tracing.py wraps public functions of the stirap modules by name
and skips a name that is gone; its _note_* functions read arguments by
name and result fields, and skip an argument that is not passed.  So a
rename in src/ would zero the per-layer metric built on it without any
error, and so would a planner or runner that reaches a traced builder or
integrator other than through experiments' module globals.  This reads
perfbench/ and changes nothing there.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

from stirap import _batch, experiments, holonomy, tomography
from stirap.config import Experiment
from stirap.pulses import PulseSequence

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_patched(monkeypatch):
    tracing = load_tracing()
    calls = []
    wrap = tracing.Tracer.wrap

    def counting_wrap(self, owner, attr, name, note=None):
        calls.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return wrap(self, owner, attr, name, note)

    monkeypatch.setattr(tracing.Tracer, "wrap", counting_wrap)
    tracer = tracing.Tracer("guard")
    with tracer.installed():
        patched = [f"{getattr(owner, '__name__', owner)}.{attr}"
                   for owner, attr, _ in tracer._patches]
    assert calls
    assert patched == calls, sorted(set(calls) - set(patched))
    assert not tracer._patches  # the block restores every original


def test_noted_arguments_and_fields_exist():
    # _note_chunk reads seqs and grid, _note_evolve grid, _note_samples t,
    # and the notes read BatchResult.failures and TomographyResult.iterations
    tracing = load_tracing()
    for note in ("_note_chunk", "_note_evolve", "_note_samples", "_note_iterations"):
        assert callable(getattr(tracing, note))
    takes = {
        _batch.evolve_chunk: {"seqs", "grid"},
        experiments.evolve: {"grid"},
        holonomy.evolve: {"grid"},
        PulseSequence.complex_amplitude: {"t"},
    }
    for fn, names in takes.items():
        assert names <= set(inspect.signature(fn).parameters), fn.__qualname__
    for cls, name in ((_batch.BatchResult, "failures"), (tomography.TomographyResult, "iterations")):
        assert name in {f.name for f in dataclasses.fields(cls)}, (cls.__name__, name)


@pytest.mark.parametrize("experiment", list(Experiment), ids=lambda e: e.value)
def test_each_experiment_opens_its_build_and_integration_spans(small_config, experiment):
    # the planner and the runners must call the traced builders and
    # integrators through experiments' module globals, or the pulses.*,
    # batch.* and lindblad.* figures read zero without an error
    tracer = load_tracing().Tracer("guard")
    with tracer.installed():
        experiments.run_experiment(small_config(experiment))
    names = [s.name for s in tracer.spans]
    assert "pulses.build" in names, names
    integrated = "batch.run_batch" if experiments._EXPERIMENTS[experiment][1] else "lindblad.evolve"
    assert integrated in names, names


def test_chunk_span_notes_the_integrated_cells(small_config):
    # batch.cell_steps_per_s is the cells x steps noted on the batch.evolve_chunk
    # spans over their time, so the note must count a plane's cells, not the one
    # drive sequence they share
    cfg = small_config(Experiment.DETUNING_MAP)
    p = experiments.plan(cfg)
    assert len(p.cells) == 4 and len(p.cells.drive) == 1
    assert not _batch._point_symmetric(p.cells, cfg.transmon)  # so every cell is integrated
    tracer = load_tracing().Tracer("guard")
    with tracer.installed():
        experiments.run_experiment(cfg)
    chunks = [s for s in tracer.spans if s.name == "batch.evolve_chunk"]
    assert [(s.attrs["cells"], s.attrs["steps"]) for s in chunks] == [(4, p.grid.n_steps)]
