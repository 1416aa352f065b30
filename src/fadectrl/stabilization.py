"""Set stabilization of the agent system toward channel-healthy states.

The performance region Omega(s) collects the admissible agent states
whose per-link success probabilities clear every plant's delivery
threshold.  Control must then (a) reach Omega and (b) stay inside it,
which needs the largest control-invariant subset I(Omega): the fixed
point of discarding states with no admissible successor inside the
current candidate set.  Reachability from alpha0 is explored layer by
layer; a state enters the layer of its first discovery.  `stabilize`
runs the three stages once for a scenario, and synthesis reads the
record it returns.

Internally sets of delta indices live in bitmasks (bit a-1 <=> state a);
the public surface speaks frozensets and sorted tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InitialStateViolatesConstraint, PreconditionViolated
from .mas import ConstraintSets, MasModel, one_step_reach


def _to_mask(states) -> int:
    mask = 0
    for a in states:
        mask |= 1 << (a - 1)
    return mask


def _from_mask(mask: int) -> frozenset:
    out = []
    a = 1
    while mask:
        if mask & 1:
            out.append(a)
        mask >>= 1
        a += 1
    return frozenset(out)


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
    union collects every layer k >= 1.
    """

    layers: tuple
    union: frozenset


def omega_set(success, thresholds, constraints: ConstraintSets) -> PerformanceRegion:
    """Admissible states whose success probabilities clear all thresholds."""
    thresholds = tuple(thresholds)
    if len(thresholds) != success.link_count:
        raise PreconditionViolated(
            "%d thresholds for %d links" % (len(thresholds), success.link_count)
        )
    for s in thresholds:
        if not 0 <= s <= 1:
            raise PreconditionViolated("threshold %r outside [0, 1]" % (s,))
    keep = []
    for a in sorted(constraints.state_set):
        if all(success.prob(i, a) >= thresholds[i] for i in range(len(thresholds))):
            keep.append(a)
    return PerformanceRegion(frozenset(keep), thresholds)


def largest_invariant(region: PerformanceRegion, model: MasModel,
                      constraints: ConstraintSets) -> frozenset:
    """Largest subset of Omega closed under some admissible input.

    Iteratively removes states all of whose admissible successors have
    left the candidate set; the fixed point is the unique maximal
    control-invariant subset (union of all invariant subsets of Omega).
    """
    reach_mask = {
        a: _to_mask(one_step_reach(model, constraints, a))
        for a in sorted(region.omega)
    }
    mask = _to_mask(region.omega)
    while True:
        nxt = 0
        for a, rm in reach_mask.items():
            bit = 1 << (a - 1)
            if mask & bit and rm & mask:
                nxt |= bit
        if nxt == mask:
            return _from_mask(mask)
        mask = nxt


def reachable_layers(model: MasModel, constraints: ConstraintSets,
                     alpha0: int) -> ReachabilityLayers:
    """Breadth-first reachable sets from alpha0 under the constraints."""
    if alpha0 not in constraints.state_set:
        raise InitialStateViolatesConstraint(
            "start state %d outside the admissible state set" % alpha0
        )
    layers = [frozenset({alpha0})]
    visited = 0  # deliberately excludes alpha0; see class docstring
    frontier = frozenset({alpha0})
    while frontier:
        candidates = set()
        for a in sorted(frontier):
            candidates.update(one_step_reach(model, constraints, a))
        fresh = frozenset(a for a in candidates if not visited & (1 << (a - 1)))
        if not fresh:
            break
        layers.append(fresh)
        visited |= _to_mask(fresh)
        frontier = fresh
    return ReachabilityLayers(tuple(layers), _from_mask(visited))


@dataclass(frozen=True)
class Stabilization:
    """Omega, I(Omega), the reachable layers from alpha0, and the feasible
    core Phi = I(Omega) intersected with the reachable set."""

    region: PerformanceRegion
    invariant: frozenset
    layers: ReachabilityLayers
    phi: frozenset

    @property
    def feasible(self) -> bool:
        """Stabilizable to Omega from the start iff some invariant state is reachable."""
        return bool(self.phi)


def stabilize(scenario, thresholds) -> Stabilization:
    """Run the three set-stabilization stages of a scenario under the thresholds."""
    region = omega_set(scenario.success, thresholds, scenario.constraints)
    invariant = largest_invariant(region, scenario.mas, scenario.constraints)
    layers = reachable_layers(scenario.mas, scenario.constraints, scenario.alpha0)
    return Stabilization(region, invariant, layers, invariant & layers.union)
