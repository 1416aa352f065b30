"""Spans around fadectrl's public functions, recorded from outside the package.

``traced(tracer)`` replaces each function in ``TARGETS`` by a wrapper that
records one span (name, start, end, parent) per call.  The package binds
names with ``from .x import y``, so the wrapper is put in place of every
reference to the original function in every loaded ``fadectrl`` module,
and every such reference is put back on exit.  Spans stay in memory until
the caller writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (defining module, function, span name, note kept per successful call).
# A note only keeps references; sizes are computed after the run, so no
# bookkeeping lands inside a parent's span.
TARGETS = (
    ("fadectrl.scenario", "load_scenario", "scenario.load", lambda a, r: r),
    ("fadectrl.wcs", "decay_threshold", "wcs.threshold", None),
    ("fadectrl.mas", "successor_index", "mas.successor", None),
    ("fadectrl.mas", "one_step_reach", "mas.one_step_reach", None),
    ("fadectrl.channel", "expected_power", "channel.expected_power", None),
    ("fadectrl.stabilization", "omega_set", "stabilization.omega", None),
    ("fadectrl.stabilization", "largest_invariant", "stabilization.invariant", None),
    ("fadectrl.stabilization", "reachable_layers", "stabilization.reach", None),
    ("fadectrl.synthesis", "build_graph", "synthesis.build_graph", None),
    ("fadectrl.synthesis", "tarjan_scc", "synthesis.scc", lambda a, r: r),
    ("fadectrl.synthesis", "karp_min_mean_cycle", "synthesis.karp",
     lambda a, r: (a[0], a[1])),
    ("fadectrl.synthesis", "synthesize", "synthesis", lambda a, r: r),
    ("fadectrl.cosim", "simulate", "cosim.simulate", lambda a, r: r),
    ("fadectrl.cosim", "counter_uniforms", "cosim.rng", None),
    ("fadectrl.cosim", "empirical_lyapunov_check", "cosim.check", None),
    ("fadectrl.cosim", "write_trace_csv", "cosim.csv", None),
)


class Tracer:
    """Spans as [name, start, end, parent index] lists, plus per-name notes."""

    def __init__(self):
        self.spans = []
        self.notes = defaultdict(list)
        self._open = []

    def wrap(self, name: str, fn, note=None):
        spans, notes, open_ = self.spans, self.notes, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()
            if note is not None:
                notes[name].append(note(args, result))
            return result

        return wrapper

    def totals(self) -> dict:
        """name -> (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the time its child spans
        cover; children never overlap, since the package is single-threaded.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out[name]
            t[0] += 1
            t[1] += end - start
            t[2] += end - start - child[i]
        return {k: tuple(v) for k, v in out.items()}


def _fadectrl_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fadectrl" or name.startswith("fadectrl."))]


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install a wrapper over every binding of every target; undo on exit."""
    replaced = []
    try:
        for modname, attr, span, note in TARGETS:
            original = getattr(importlib.import_module(modname), attr)
            wrapper = tracer.wrap(span, original, note)
            for module in _fadectrl_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        replaced.append((module, key, original))
        yield replaced
    finally:
        for module, key, original in reversed(replaced):
            setattr(module, key, original)
