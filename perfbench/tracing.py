"""In-memory spans around the calls into each stirap layer.

The benchmark replaces public functions of the stirap modules by wrappers
that open a span, call the original and note counts taken from its
arguments and result; nothing under ``src/`` changes. Spans are kept in
memory and written out when the run ends. Calls made inside worker
processes are not seen, which is why the per-layer work figures come
from a serial pass.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from stirap import _batch, experiments, holonomy, pulses, tomography

LAYERS = ("pulses", "batch", "lindblad", "tomography", "holonomy", "experiments")


class Span:
    __slots__ = ("id", "name", "parent", "phase", "start", "end", "attrs")

    def __init__(self, span_id: int, name: str, parent: Optional[int], phase: str):
        self.id, self.name, self.parent, self.phase = span_id, name, parent, phase
        self.start = self.end = 0.0
        self.attrs: Dict[str, float] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder. ``phase`` labels the pass the next spans belong to."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = ""
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._stack[-1].id if self._stack else None, self.phase)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, note=None):
        """Trace calls of owner.attr; skipped when the name does not exist."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        bind = inspect.signature(orig).bind_partial if note else None

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = orig(*args, **kwargs)
                if note:
                    note(sp, bind(*args, **kwargs).arguments, out)
            return out

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer boundaries for the duration of the block."""
        w = self.wrap
        for attr in ("two_pulse_sequence", "build_sequence", "plateau_phase_sequence"):
            w(experiments, attr, "pulses.build")
        w(pulses.PulseSequence, "complex_amplitude", "pulses.complex_amplitude", _note_samples)
        w(experiments, "run_batch", "batch.run_batch")
        w(_batch, "evolve_chunk", "batch.evolve_chunk", _note_chunk)
        w(experiments, "evolve", "lindblad.evolve", _note_evolve)
        w(holonomy, "evolve", "lindblad.evolve", _note_evolve)
        w(experiments, "synth_reference_traces", "tomography.refs")
        w(experiments, "tomography_timeline", "tomography.timeline")
        w(tomography, "mix_traces", "tomography.mix")
        w(tomography, "reconstruct_populations", "tomography.invert", _note_iterations)
        w(experiments, "berry_vs_oracle", "holonomy.berry_vs_oracle")
        w(experiments, "realized_path", "holonomy.realized_path")
        w(holonomy, "adiabatic_phase_oracle", "holonomy.oracle")
        w(holonomy, "berry_phase", "holonomy.berry_phase")
        try:
            yield self
        finally:
            for owner, attr, orig in reversed(self._patches):
                setattr(owner, attr, orig)
            self._patches.clear()

    def write(self, path: Path, header: dict) -> None:
        spans = [{"id": s.id, "name": s.name, "parent": s.parent, "run": self.run_id,
                  "phase": s.phase, "start": s.start, "end": s.end, **s.attrs}
                 for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "run": self.run_id, "spans": spans}) + "\n")


def _n_samples(grid) -> int:
    return len(set(range(0, grid.n_steps + 1, grid.sample_stride)) | {grid.n_steps})


# The notes read arguments by name and skip what a changed signature no
# longer passes, so a refactor of the package leaves the traced run working.

def _note_samples(sp, a, out):
    if "t" in a:
        sp.attrs["samples"] = int(np.size(a["t"]))


def _note_chunk(sp, a, out):
    grid = a.get("grid")
    if grid is not None and "seqs" in a:
        sp.attrs.update(cells=len(a["seqs"]), steps=grid.n_steps, samples=_n_samples(grid),
                        failed=len(out.failures))


def _note_evolve(sp, a, out):
    if a.get("grid") is not None:
        sp.attrs["steps"] = a["grid"].n_steps


def _note_iterations(sp, a, out):
    sp.attrs["iterations"] = out.iterations


# ---------------------------------------------------------------------------
# per-layer metrics

def _named(spans: List[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: List[Span], name: str) -> float:
    return sum(s.duration for s in spans if s.name == name)


def _attr(spans: List[Span], name: str, key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans if s.name == name)


def self_times(spans: List[Span]) -> Dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s.name.split(".")[0]
        if layer in out:
            out[layer] += s.duration - child.get(s.id, 0.0)
    return out


def _under(spans: List[Span], name: str, ancestor: str) -> List[Span]:
    by_id = {s.id: s for s in spans}

    def has_ancestor(s):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == ancestor:
                return True
        return False

    return [s for s in spans if s.name == name and has_ancestor(s)]


def layer_metrics(tracer: Tracer, runners, workers: int, untraced_walls: List[float],
                  traced_walls: List[float], serial_inversion_failures: int,
                  emit_bytes: int) -> Dict[str, Tuple[float, str]]:
    """Per-layer figures of a traced run.

    Work, counts and self times come from the serial pass, where every call
    runs in this process. Wall times that include the pool come from the
    traced passes at ``workers`` (median over passes).
    """
    serial = [s for s in tracer.spans if s.phase == "serial"]
    phases = sorted({s.phase for s in tracer.spans if s.phase.startswith("traced")})
    traced = [[s for s in tracer.spans if s.phase == p] for p in phases]

    def traced_median(name):
        return statistics.median(_total(spans, name) for spans in traced)

    m: Dict[str, Tuple[float, str]] = {}
    m["pulses.drive_s"] = (_total(serial, "pulses.build")
                           + _total(serial, "pulses.complex_amplitude"), "s")
    m["pulses.drive_samples"] = (_attr(serial, "pulses.complex_amplitude", "samples"), "count")

    chunks = _named(serial, "batch.evolve_chunk")
    kernel = sum(s.duration for s in chunks)
    cell_steps = sum(s.attrs.get("cells", 0) * s.attrs.get("steps", 0) for s in chunks)
    pool_wall = traced_median("batch.run_batch")
    m["batch.kernel_s"] = (kernel, "s")
    m["batch.cell_steps_per_s"] = (cell_steps / kernel if kernel else 0.0, "1/s")
    m["batch.rhs_evals"] = (4 * cell_steps, "count")
    m["batch.sample_checks"] = (sum(s.attrs.get("cells", 0) * s.attrs.get("samples", 0)
                                    for s in chunks), "count")
    m["batch.chunks"] = (len(chunks), "count")
    m["batch.failed_cells"] = (_attr(serial, "batch.evolve_chunk", "failed"), "count")
    m["batch.pool_overhead_s"] = (pool_wall - kernel / workers if chunks else 0.0, "s")
    m["batch.parallel_efficiency"] = (kernel / (workers * pool_wall) if pool_wall else 0.0, "ratio")

    evolves = _named(serial, "lindblad.evolve")
    evolve_s = sum(s.duration for s in evolves)
    steps = _attr(serial, "lindblad.evolve", "steps")
    m["lindblad.evolve_s"] = (evolve_s, "s")
    m["lindblad.evolve_calls"] = (len(evolves), "count")
    m["lindblad.steps_per_s"] = (steps / evolve_s if evolve_s else 0.0, "1/s")
    m["lindblad.rhs_evals"] = (4 * steps, "count")

    hybrid_cells = sum(s.duration for s in _under(serial, "lindblad.evolve", "experiments.hybrid"))
    m["experiments.hybrid_pool_overhead_s"] = (
        traced_median("experiments.hybrid") - hybrid_cells / workers if hybrid_cells else 0.0, "s")

    m["tomography.refs_s"] = (_total(serial, "tomography.refs"), "s")
    m["tomography.invert_s"] = (_total(serial, "tomography.invert"), "s")
    m["tomography.inversions"] = (len(_named(serial, "tomography.invert")), "count")
    m["tomography.lm_iterations"] = (_attr(serial, "tomography.invert", "iterations"), "count")
    m["tomography.failed"] = (serial_inversion_failures, "count")
    m["holonomy.oracle_s"] = (_total(serial, "holonomy.oracle"), "s")

    for runner in runners:
        m[f"experiments.{runner}_s"] = (traced_median(f"experiments.{runner}"), "s")
    m["experiments.emit_s"] = (traced_median("experiments.emit"), "s")
    m["experiments.emit_bytes"] = (emit_bytes, "B")

    for layer, t in self_times(serial).items():
        m[f"{layer}.self_s"] = (t, "s")

    untraced = statistics.median(untraced_walls)
    overhead = statistics.median(traced_walls) - untraced
    m["trace.overhead_s"] = (overhead, "s")
    m["trace.overhead_frac"] = (overhead / untraced, "ratio")
    m["trace.spans"] = (statistics.median(len(spans) for spans in traced), "count")
    return m
