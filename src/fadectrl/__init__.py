"""Co-design toolkit for wireless control loops served by mobile agents.

Computes per-loop delivery-probability thresholds, stabilizes the agent
system onto the channel-healthy region, synthesizes the cheapest
eventually-periodic agent schedule (minimum-mean cycle), and verifies
the closed loop by Monte-Carlo co-simulation.

Each export is imported from its module on first access (PEP 562), so a
process loads only the stages it uses: `fadectrl thresholds` never
imports the synthesizer or the co-simulation.
"""

import importlib

# export -> the module that defines it
_EXPORTS = {
    "expected_power": "channel",
    "SimConfig": "cosim",
    "SimTrace": "cosim",
    "empirical_lyapunov_check": "cosim",
    "simulate": "cosim",
    "write_trace_csv": "cosim",
    "ConstraintSets": "mas",
    "MasModel": "mas",
    "Schedule": "mas",
    "one_step_reach": "mas",
    "successors": "mas",
    "Scenario": "scenario",
    "StageCost": "scenario",
    "load_scenario": "scenario",
    "load_scenario_text": "scenario",
    "PerformanceRegion": "stabilization",
    "ReachabilityLayers": "stabilization",
    "Stabilization": "stabilization",
    "largest_invariant": "stabilization",
    "omega_set": "stabilization",
    "reachable_layers": "stabilization",
    "stabilize": "stabilization",
    "SynthesisResult": "synthesis",
    "TransitionGraph": "synthesis",
    "build_graph": "synthesis",
    "karp_min_mean_cycle": "synthesis",
    "synthesize": "synthesis",
    "tarjan_scc": "synthesis",
    "to_dot": "synthesis",
    "Plant": "wcs",
    "decay_threshold": "wcs",
    "default_lyapunov_weight": "wcs",
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a rebinding in the defining module (a test's or the
    # benchmark tracer's wrapper) is what every later access sees
    if name not in _EXPORTS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    return getattr(importlib.import_module("." + _EXPORTS[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
