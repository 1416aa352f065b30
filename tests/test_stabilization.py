"""Performance region, invariance, reachability, feasibility.

Proves:
 Group 1 - the bundled worked example's frozen sets, one stage at a time
           and through stabilize
 Group 2 - structural properties (disjoint layers, the search tree's
           smallest parents, threshold monotonicity)
 Group 3 - largest_invariant vs the exhaustive subset oracle
 Group 4 - error contracts
"""

import random
from fractions import Fraction

import pytest

from fadectrl.errors import InitialStateViolatesConstraint, PreconditionViolated
from fadectrl.mas import ConstraintSets, MasModel, one_step_reach
from fadectrl.stabilization import (
    PerformanceRegion,
    largest_invariant,
    omega_set,
    reachable_layers,
    stabilize,
)
from oracles import brute_invariant, random_mas_instance

MODEL = MasModel(2, 3, ({0: 1, 1: 2}, {0: 1, 1: 1}))
CONSTRAINTS = ConstraintSets(range(1, 7), {a: {4, 5, 7, 8} for a in range(1, 7)})
THRESHOLDS = (Fraction("0.29"), Fraction("0.10"))


# ── Group 1: the worked example ──────────────────────────────────────────────

def test_omega_frozen(scenario):
    region = omega_set(scenario.success, THRESHOLDS, scenario.constraints)
    assert region.omega == frozenset({2, 4, 5, 6})
    assert region.thresholds == THRESHOLDS


def test_invariant_is_whole_region(scenario):
    region = omega_set(scenario.success, THRESHOLDS, scenario.constraints)
    assert largest_invariant(region, MODEL, CONSTRAINTS) == region.omega


def test_reachable_layers_frozen():
    reach = reachable_layers(MODEL, CONSTRAINTS, 4)
    assert reach.layers == (
        frozenset({4}),
        frozenset({2, 3}),
        frozenset({1, 5, 6}),
        frozenset({4}),
    )
    assert reach.union == frozenset(range(1, 7))
    # 1 is reached from 3 alone; layer 3 re-reaches the start 4 from each
    # layer-2 state, and the smallest, 1, is its parent
    assert reach.parent == {2: 4, 3: 4, 1: 3, 5: 2, 6: 2, 4: 1}


def test_feasibility_frozen(scenario):
    stab = stabilize(scenario, THRESHOLDS)
    assert stab.region == omega_set(scenario.success, THRESHOLDS, scenario.constraints)
    assert stab.invariant == frozenset({2, 4, 5, 6})
    assert stab.layers == reachable_layers(MODEL, CONSTRAINTS, 4)
    assert stab.feasible
    assert stab.phi == frozenset({2, 4, 5, 6})


def test_infeasible_when_invariant_empty(scenario):
    stab = stabilize(scenario, (Fraction("0.99"), Fraction("0.99")))
    assert stab.invariant == frozenset()
    assert stab.layers.union == frozenset(range(1, 7))
    assert not stab.feasible and stab.phi == frozenset()


# ── Group 2: structural properties ───────────────────────────────────────────

def test_layers_beyond_start_are_disjoint():
    rng = random.Random(31)
    for _ in range(40):
        model, constraints, _ = random_mas_instance(rng)
        alpha0 = rng.choice(sorted(constraints.state_set))
        reach = reachable_layers(model, constraints, alpha0)
        seen = set()
        for layer in reach.layers[1:]:
            assert not layer & seen
            seen |= layer
        assert reach.union == seen


def test_search_tree_parents_are_smallest_predecessors():
    rng = random.Random(37)
    for _ in range(60):
        model, constraints, _ = random_mas_instance(rng)
        alpha0 = rng.choice(sorted(constraints.state_set))
        reach = reachable_layers(model, constraints, alpha0)
        assert set(reach.parent) == set().union(*reach.layers[1:])
        for k in range(1, len(reach.layers)):
            previous = reach.layers[k - 1]
            for b in reach.layers[k]:
                a = reach.parent[b]
                assert a in previous
                assert b in one_step_reach(model, constraints, a)
                assert not any(b in one_step_reach(model, constraints, c)
                               for c in previous if c < a)


def test_omega_shrinks_with_thresholds(scenario):
    low = omega_set(scenario.success, THRESHOLDS, scenario.constraints)
    high = omega_set(
        scenario.success,
        (Fraction("0.33"), Fraction("0.12")),
        scenario.constraints,
    )
    assert high.omega < low.omega
    assert high.omega == frozenset({2, 4})


def test_invariant_shrink_pair():
    # {3, 4} can rotate inside itself (4 -> 3 -> 3), the singleton {4} cannot
    region = PerformanceRegion(frozenset({3, 4}), ())
    assert largest_invariant(region, MODEL, CONSTRAINTS) == frozenset({3, 4})
    region = PerformanceRegion(frozenset({4}), ())
    assert largest_invariant(region, MODEL, CONSTRAINTS) == frozenset()


# ── Group 3: the exhaustive oracle ───────────────────────────────────────────

def test_invariant_matches_subset_oracle():
    rng = random.Random(97)
    for _ in range(60):
        model, constraints, omega = random_mas_instance(rng)
        region = PerformanceRegion(omega, ())
        got = largest_invariant(region, model, constraints)
        assert got == brute_invariant(model, constraints, omega)
        assert got <= omega


# ── Group 4: error contracts ─────────────────────────────────────────────────

def test_start_outside_constraints_raises():
    with pytest.raises(InitialStateViolatesConstraint):
        reachable_layers(MODEL, CONSTRAINTS, 7)


def test_omega_threshold_validation(scenario):
    with pytest.raises(PreconditionViolated):
        omega_set(scenario.success, (Fraction("0.29"),), scenario.constraints)
    with pytest.raises(PreconditionViolated):
        omega_set(scenario.success, (Fraction("0.29"), Fraction("1.5")),
                  scenario.constraints)
