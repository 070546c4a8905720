"""The names perfbench's tracer wraps, and what its notes read, must exist.

perfbench/tracing.py wraps public functions of the stirap modules by name
and skips a name that is gone; its _note_* functions read arguments by
name and result fields, and skip an argument that is not passed.  So a
rename in src/ would zero the per-layer metric built on it without any
error.  This reads perfbench/ and changes nothing there.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

from stirap import _batch, experiments, holonomy, tomography
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
