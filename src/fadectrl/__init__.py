"""Co-design toolkit for wireless control loops served by mobile agents.

Computes per-loop delivery-probability thresholds, stabilizes the agent
system onto the channel-healthy region, synthesizes the cheapest
eventually-periodic agent schedule (minimum-mean cycle), and verifies
the closed loop by Monte-Carlo co-simulation.
"""

from .channel import expected_power
from .cosim import (
    Schedule,
    SimConfig,
    SimTrace,
    empirical_lyapunov_check,
    simulate,
    write_trace_csv,
)
from .mas import (
    ConstraintSets,
    MasModel,
    one_step_reach,
    successors,
)
from .scenario import Scenario, load_scenario, load_scenario_text
from .stabilization import (
    PerformanceRegion,
    ReachabilityLayers,
    Stabilization,
    largest_invariant,
    omega_set,
    reachable_layers,
    stabilize,
)
from .synthesis import (
    StageCost,
    SynthesisResult,
    TransitionGraph,
    build_graph,
    karp_min_mean_cycle,
    synthesize,
    tarjan_scc,
    to_dot,
)
from .wcs import (
    Plant,
    decay_threshold,
    default_lyapunov_weight,
)

__version__ = "0.1.0"
