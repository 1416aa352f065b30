"""Performance region, invariance, reachability, feasibility.

Proves:
 Group 1 - the bundled worked example's frozen sets, one stage at a time
           and through stabilize
 Group 2 - structural properties (disjoint layers, the search tree's
           smallest parents, threshold monotonicity)
 Group 3 - the worklist core vs the exhaustive subset oracle and the plain
           fixed point, and the batched layers vs the state-by-state search
 Group 4 - error contracts
 Group 5 - the thresholds stabilize picks: an override as given, the
           document's when none is passed, else the computed ones; an
           override the computed threshold does not certify is recorded
           as a warning, and a threshold that cannot be computed without
           an override is an error naming its link
"""

import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadectrl.errors import InitialStateViolatesConstraint, PreconditionViolated
from fadectrl.scenario import load_scenario_text
from fadectrl.mas import ConstraintSets, MasModel
from fadectrl.stabilization import (
    PerformanceRegion,
    largest_invariant,
    omega_set,
    reachable_layers,
    stabilize,
)
from fadectrl.wcs import decay_threshold
from oracles import (
    brute_invariant,
    fixed_point_invariant,
    random_mas_instance,
    reach_of,
    state_by_state_layers,
)

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
                assert b in reach_of(model, constraints, a)
                assert not any(b in reach_of(model, constraints, c)
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


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(st.integers(0, 2**32))
def test_worklist_core_equals_subset_oracle_and_fixed_point(seed):
    model, constraints, omega = random_mas_instance(random.Random(seed))
    got = largest_invariant(PerformanceRegion(omega, ()), model, constraints)
    assert type(got) is frozenset
    assert got == brute_invariant(model, constraints, omega)
    assert got == fixed_point_invariant(model, constraints, omega)


@PROPERTY
@given(st.integers(0, 2**32), st.data())
def test_batched_layers_equal_state_by_state_search(seed, data):
    model, constraints, _ = random_mas_instance(random.Random(seed))
    alpha0 = data.draw(st.sampled_from(sorted(constraints.state_set)))
    got = reachable_layers(model, constraints, alpha0)
    expect = state_by_state_layers(model, constraints, alpha0)
    assert got.layers == expect.layers
    assert got.parent == expect.parent


def test_one_reach_call_for_the_core_and_one_per_layer(monkeypatch):
    import fadectrl.mas as mas
    import fadectrl.stabilization as stabilization

    calls = []

    def counted(model, constraints, states):
        calls.append(frozenset(states))
        return mas.one_step_reach(model, constraints, states)

    monkeypatch.setattr(stabilization, "one_step_reach", counted)
    largest_invariant(PerformanceRegion(frozenset({2, 4, 5, 6}), ()), MODEL, CONSTRAINTS)
    assert calls == [frozenset({2, 4, 5, 6})]
    calls.clear()
    reach = reachable_layers(MODEL, CONSTRAINTS, 4)
    assert calls == list(reach.layers)


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


# ── Group 5: the thresholds ──────────────────────────────────────────────────

BUNDLED_OVERRIDE = "thresholds_override: [0.29, 0.10]\n"
NO_IMPROVEMENT = "closed loop does not strictly improve on open loop in Q-metric"


def _cell(scenario_path, override=True, uncomputable=False):
    """The bundled cell, without its override, or with a conveyor whose
    closed loop does not beat its open loop (no computed threshold)."""
    text = scenario_path.read_text()
    if uncomputable:
        text = text.replace("    a_closed: 0.2\n    a_open: 1.0\n",
                            "    a_closed: 1.0\n    a_open: 0.2\n")
    if not override:
        text = text.replace(BUNDLED_OVERRIDE, "")
    assert (BUNDLED_OVERRIDE in text) == override
    assert ("a_closed: 1.0\n" in text) == uncomputable
    return load_scenario_text(text)


def test_stabilize_without_override_uses_computed_thresholds(scenario_path):
    scn = _cell(scenario_path, override=False)
    stab = stabilize(scn)
    assert stab.region.thresholds == tuple(decay_threshold(p) for p in scn.plants)
    assert not stab.overridden and stab.warnings == ()
    assert stab.phi == frozenset({2, 4, 6})  # state 5's conveyor link is below 5/48


def test_stabilize_uses_the_document_override_with_its_warning(scenario):
    stab = stabilize(scenario)
    assert stab.region.thresholds == THRESHOLDS
    assert stab.overridden
    assert stab.warnings == ("link 2 (conveyor): threshold override 0.1 is below the "
                             "computed threshold 0.104166667; the decay bound is not "
                             "certified",)


def test_stabilize_override_argument_replaces_the_document_override(scenario):
    stab = stabilize(scenario, (Fraction("0.3"), Fraction("0.11")))
    assert stab.region.thresholds == (Fraction("0.3"), Fraction("0.11"))
    assert stab.overridden and stab.warnings == ()
    assert stab.region.omega == frozenset({2, 4, 6})


def test_stabilize_warns_on_an_override_without_computed_threshold(scenario_path):
    stab = stabilize(_cell(scenario_path, uncomputable=True))
    assert stab.region.thresholds == THRESHOLDS
    assert stab.overridden
    assert stab.warnings == ("link 2 (conveyor): threshold override 0.1 is uncertified: "
                             "no computed threshold (%s)" % NO_IMPROVEMENT,)
    assert stab.phi == frozenset({2, 4, 5, 6})


def test_stabilize_names_the_link_whose_threshold_cannot_be_computed(scenario_path):
    scn = _cell(scenario_path, override=False, uncomputable=True)
    with pytest.raises(PreconditionViolated,
                       match=r"^link 2 \(conveyor\): %s$" % re.escape(NO_IMPROVEMENT)):
        stabilize(scn)
