"""Set stabilization of the agent system toward channel-healthy states.

The first stage picks the per-link delivery thresholds s: an override (the
caller's, else the scenario's) as given, warning on each link whose decay
bound it does not certify, or else each link's computed `decay_threshold`.
The performance region Omega(s) collects the admissible agent states
whose per-link success probabilities clear every plant's delivery
threshold.  Control must then (a) reach Omega and (b) stay inside it,
which needs the largest control-invariant subset I(Omega): the fixed
point of discarding states with no admissible successor inside the
current candidate set, reached by a backward worklist.  Reachability
from alpha0 is explored layer by layer; a state enters the layer of its
first discovery, and the search tree records the smallest state of the
previous layer that reaches it, so synthesis walks a shortest prefix
back from any state.  Each stage asks `one_step_reach` once per set of
states (Omega, or one layer's frontier), not once per state.  `stabilize`
runs the four stages once for a scenario, and synthesis extends the
record it returns.  Sets of states are frozensets of delta indices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InitialStateViolatesConstraint, PreconditionViolated, ToolkitError
from .mas import ConstraintSets, MasModel, one_step_reach
from .wcs import decay_threshold


def link_name(plant, i: int) -> str:
    """'link <i + 1>', followed by the plant's name when it has one."""
    return "link %d (%s)" % (i + 1, plant.name) if plant.name else "link %d" % (i + 1)


def link_threshold(scenario, i: int) -> float:
    """The computed threshold of link i + 1; its error names the link."""
    plant = scenario.plants[i]
    try:
        return decay_threshold(plant)
    except ToolkitError as e:
        raise type(e)("%s: %s" % (link_name(plant, i), e)) from None


def _uncertified(plants, override):
    """A warning for each link whose computed threshold does not certify its override."""
    for i, (plant, s) in enumerate(zip(plants, override)):
        link = "%s: threshold override %.10g" % (link_name(plant, i), s)
        try:
            computed = decay_threshold(plant)
        except ToolkitError as e:
            yield "%s is uncertified: no computed threshold (%s)" % (link, e)
            continue
        if s < computed:
            yield ("%s is below the computed threshold %.10g; the decay bound is not "
                   "certified" % (link, computed))


@dataclass(frozen=True)
class PerformanceRegion:
    """Omega(s) together with the thresholds that carved it."""

    omega: frozenset
    thresholds: tuple


@dataclass(frozen=True)
class ReachabilityLayers:
    """layers[k] = states first reached in exactly k steps (layers[0] = {alpha0}).

    The start state is excluded from the visited bookkeeping, so it may
    legitimately re-appear in one later layer (it is then genuinely
    re-reachable); all layers beyond the zeroth are pairwise disjoint.
    parent maps each state b of a layer k >= 1 to the smallest state of
    layer k - 1 that reaches b in one step.
    """

    layers: tuple
    parent: dict

    @property
    def union(self) -> frozenset:
        """Every state of the layers k >= 1."""
        return frozenset(self.parent)


def omega_set(success, thresholds, constraints: ConstraintSets) -> PerformanceRegion:
    """Admissible states whose success probabilities clear all thresholds;
    success maps each admissible state to its per-link probabilities."""
    thresholds = tuple(thresholds)
    for s in thresholds:
        if not 0 <= s <= 1:
            raise PreconditionViolated("threshold %r outside [0, 1]" % (s,))
    keep = []
    for a in sorted(constraints.state_set):
        probs = success[a]
        if len(probs) != len(thresholds):
            raise PreconditionViolated(
                "%d thresholds for %d links" % (len(thresholds), len(probs))
            )
        if all(p >= s for p, s in zip(probs, thresholds)):
            keep.append(a)
    return PerformanceRegion(frozenset(keep), thresholds)


def largest_invariant(region: PerformanceRegion, model: MasModel,
                      constraints: ConstraintSets) -> frozenset:
    """Largest subset of Omega closed under some admissible input.

    A backward worklist (the safety-game attractor): each state counts
    its successors inside Omega, a state whose count is zero leaves, and
    each leaving state decrements its predecessors' counts, so every edge
    is touched once.  What stays is the unique maximal control-invariant
    subset (union of all invariant subsets of Omega).
    """
    omega = frozenset(region.omega)
    count, preds = {}, {b: [] for b in omega}
    for a, succ in one_step_reach(model, constraints, omega).items():
        inside = [b for b in succ if b in omega]
        count[a] = len(inside)
        for b in inside:
            preds[b].append(a)
    doomed = [a for a, c in count.items() if not c]
    removed = set(doomed)
    while doomed:
        for a in preds[doomed.pop()]:
            count[a] -= 1
            if not count[a]:
                doomed.append(a)
                removed.add(a)
    return omega - removed


def reachable_layers(model: MasModel, constraints: ConstraintSets,
                     alpha0: int) -> ReachabilityLayers:
    """Breadth-first reachable sets from alpha0 under the constraints, one
    `one_step_reach` call per layer."""
    if alpha0 not in constraints.state_set:
        raise InitialStateViolatesConstraint(
            "start state %d outside the admissible state set" % alpha0
        )
    layers = [frozenset({alpha0})]
    parent = {}  # its keys are the visited states, alpha0 excluded at first
    while True:
        fresh = {}
        # ascending sources, so the first parent is the smallest
        for a, succ in one_step_reach(model, constraints, layers[-1]).items():
            for b in succ:
                if b not in parent:
                    fresh.setdefault(b, a)
        if not fresh:
            return ReachabilityLayers(tuple(layers), parent)
        layers.append(frozenset(fresh))
        parent.update(fresh)


@dataclass(frozen=True)
class Stabilization:
    """Omega, I(Omega), the reachable layers from alpha0, and the feasible
    core Phi = I(Omega) intersected with the reachable set; whether the
    thresholds were an override, and the override's uncertified links."""

    region: PerformanceRegion
    invariant: frozenset
    layers: ReachabilityLayers
    phi: frozenset
    overridden: bool
    warnings: tuple

    @property
    def feasible(self) -> bool:
        """Stabilizable to Omega from the start iff some invariant state is reachable."""
        return bool(self.phi)


def stabilize(scenario, override=None) -> Stabilization:
    """Pick the thresholds of a scenario, `override` else its
    `s_override` else the computed ones, and run the three
    set-stabilization stages under them."""
    if override is None:
        override = scenario.s_override
    overridden = override is not None
    thresholds = (tuple(override) if overridden else
                  tuple(link_threshold(scenario, i) for i in range(len(scenario.plants))))
    region = omega_set(scenario.success, thresholds, scenario.constraints)
    warnings = tuple(_uncertified(scenario.plants, thresholds)) if overridden else ()
    invariant = largest_invariant(region, scenario.mas, scenario.constraints)
    layers = reachable_layers(scenario.mas, scenario.constraints, scenario.alpha0)
    return Stabilization(region, invariant, layers, invariant & layers.union,
                         overridden, warnings)
