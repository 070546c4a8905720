"""The names perfbench's tracer wraps must exist in the package.

perfbench/tracing.py wraps public functions of the stirap modules by name
and skips a name that is gone, so a rename in src/ would zero the per-layer
metric built on it without any error.  This reads perfbench/ and changes
nothing there.
"""

import importlib.util
from pathlib import Path

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
