"""Schedule synthesis over the restricted transition graph.

Proves:
 Group 1 - stage costs (exact arithmetic, input-indexed table)
 Group 2 - the frozen nine-edge graph of the bundled worked example
 Group 3 - strongly connected components vs a reachability oracle,
           including a path deeper than the recursion limit
 Group 4 - Karp's minimum-mean cycle vs the DFS enumeration oracle
 Group 5 - end-to-end synthesis: frozen schedule, prefix handling,
           infeasibility, DOT export
"""

import random
from fractions import Fraction

import pytest

from fadectrl.errors import (
    DimensionMismatch,
    Infeasible,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from fadectrl.mas import ConstraintSets, MasModel
from fadectrl.synthesis import (
    Edge,
    StageCost,
    TransitionGraph,
    build_graph,
    joint_stage_cost,
    karp_min_mean_cycle,
    synthesize,
    tarjan_scc,
    to_dot,
)
from oracles import (
    brute_min_mean,
    brute_scc,
    cycle_mean,
    random_scc_graph,
    simple_cycles,
)

MODEL = MasModel(2, 3, ({0: 1, 1: 2}, {0: 1, 1: 1}))
CONSTRAINTS = ConstraintSets.uniform(frozenset(range(1, 7)), frozenset({4, 5, 7, 8}))
PHI = frozenset({2, 4, 5, 6})

# (source, target) -> (weight, cheapest steering input)
FROZEN_EDGES = {
    (2, 2): (27, 4),
    (2, 5): (23, 7),
    (2, 6): (31, 8),
    (4, 2): (23, 7),
    (5, 4): (32, 5),
    (5, 6): (26, 4),
    (6, 2): (34, 5),
    (6, 4): (24, 7),
    (6, 5): (32, 8),
}


def _graph(scenario):
    return build_graph(
        scenario.mas, scenario.constraints, scenario.tables, scenario.policy,
        scenario.wcs, scenario.cost, PHI,
    )


# ── Group 1: stage costs ─────────────────────────────────────────────────────

def test_stage_cost_validation():
    with pytest.raises(ValueOutOfRange):
        StageCost(0, 1, ((1,),))
    with pytest.raises(ValueOutOfRange):
        StageCost(2.0, 1, ((1,),))
    with pytest.raises(ValueOutOfRange):
        StageCost(1, -1, ((1,),))
    with pytest.raises(ValueOutOfRange):
        StageCost(1, 1, ((-1,),))
    with pytest.raises(DimensionMismatch):
        StageCost(1, 1, ((1, 2), (3,)))


def test_from_input_costs_replicates_per_state():
    cost = StageCost.from_input_costs(40, 1, (8, 10, 12))
    assert cost.n_states == 3
    for a in range(1, 4):
        for u, expect in ((1, 8), (2, 10), (3, 12)):
            assert cost.input_cost(a, u) == expect


def test_joint_stage_cost_exact(scenario):
    c = joint_stage_cost(
        scenario.tables, scenario.policy, scenario.wcs, scenario.cost, 2, 4
    )
    assert c == 27 and isinstance(c, Fraction)
    c = joint_stage_cost(
        scenario.tables, scenario.policy, scenario.wcs, scenario.cost, 5, 5
    )
    assert c == 32


# ── Group 2: the frozen graph ────────────────────────────────────────────────

def test_graph_has_exactly_the_frozen_edges(scenario):
    graph = _graph(scenario)
    assert graph.vertices == (2, 4, 5, 6)
    assert set(graph.edges) == set(FROZEN_EDGES)
    for (a, b), (weight, steer) in FROZEN_EDGES.items():
        edge = graph.edges[(a, b)]
        assert edge.weight == weight
        assert edge.steering == (steer,)
        assert steer in edge.admissible


def test_graph_adjacency_helpers(scenario):
    graph = _graph(scenario)
    assert graph.successors(2) == (2, 5, 6)
    assert graph.weight(6, 4) == 24


def test_graph_rejects_inadmissible_vertices(scenario):
    with pytest.raises(PreconditionViolated):
        build_graph(
            scenario.mas, scenario.constraints, scenario.tables, scenario.policy,
            scenario.wcs, scenario.cost, frozenset({2, 7}),
        )


# ── Group 3: strongly connected components ───────────────────────────────────

def test_scc_single_component(scenario):
    assert tarjan_scc(_graph(scenario)) == (PHI,)


def test_scc_split_components():
    unit = Edge(1, (1,), (1,))
    graph = TransitionGraph(
        (1, 2, 3, 4),
        {(1, 2): unit, (2, 1): unit, (2, 3): unit, (3, 3): unit, (4, 1): unit},
    )
    assert tarjan_scc(graph) == (frozenset({1, 2}), frozenset({3}), frozenset({4}))


def test_scc_matches_reachability_oracle():
    rng = random.Random(31)
    unit = Edge(1, (1,), (1,))
    for _ in range(300):
        verts = tuple(range(1, rng.randint(1, 9) + 1))
        edges = {(rng.choice(verts), rng.choice(verts)): unit
                 for _ in range(rng.randint(0, 2 * len(verts)))}
        graph = TransitionGraph(verts, edges)
        assert tarjan_scc(graph) == brute_scc(graph)


def test_scc_long_chain():
    # one DFS path 3000 vertices deep, beyond the default recursion limit
    unit = Edge(1, (1,), (1,))
    verts = tuple(range(1, 3001))
    graph = TransitionGraph(verts, {(a, a + 1): unit for a in verts[:-1]})
    assert tarjan_scc(graph) == tuple(frozenset({a}) for a in verts)


# ── Group 4: minimum-mean cycles ─────────────────────────────────────────────

def test_karp_frozen_answer(scenario):
    mean, cycle = karp_min_mean_cycle(_graph(scenario), PHI)
    assert mean == 24 and isinstance(mean, Fraction)
    assert cycle == (2, 5, 6, 4, 2)


def test_karp_exact_on_fractional_weights():
    third = Edge(Fraction(1, 3), (1,), (1,))
    half = Edge(Fraction(1, 2), (1,), (1,))
    graph = TransitionGraph((1, 2), {(1, 2): third, (2, 1): half})
    mean, cycle = karp_min_mean_cycle(graph, frozenset({1, 2}))
    assert mean == Fraction(5, 12)
    assert cycle == (1, 2, 1)


def test_karp_no_cycle():
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, (1,), (1,))})
    with pytest.raises(NoCycle):
        karp_min_mean_cycle(graph, frozenset({1}))


def test_karp_matches_enumeration_oracle():
    rng = random.Random(2024)
    for _ in range(80):
        graph = random_scc_graph(rng, max_vertices=7)
        mean, cycle = karp_min_mean_cycle(graph, frozenset(graph.vertices))
        assert mean == brute_min_mean(graph)
        assert cycle_mean(graph, cycle) == mean
        body = cycle[:-1]
        assert len(set(body)) == len(body)  # simple
        assert cycle[0] == min(body)


# ── Group 5: end-to-end synthesis ────────────────────────────────────────────

def test_synthesis_frozen_result(synthesis):
    assert synthesis.alpha0 == 4
    assert synthesis.region.omega == PHI
    assert synthesis.invariant == PHI
    assert synthesis.phi == PHI
    assert synthesis.prefix_states == ()
    assert synthesis.prefix_inputs == ()
    assert synthesis.cycle_states == (4, 2, 5, 6, 4)
    assert synthesis.cycle_inputs == (7, 7, 4, 7)
    assert synthesis.mean_weight == 24
    assert synthesis.optimal_cost == Fraction(3, 5)
    assert synthesis.entry_step == 0 and synthesis.period == 4


def test_synthesis_schedule_pattern(synthesis):
    assert synthesis.trajectory(9) == (4, 2, 5, 6, 4, 2, 5, 6, 4)
    for k in range(20):
        expect = 4 if k % 4 == 2 else 7
        assert synthesis.input_at(k) == expect
    assert synthesis.schedule(8) == (7, 7, 4, 7, 7, 7, 4, 7)


def test_synthesized_cycle_is_minimum_over_enumeration(scenario, synthesis):
    graph = _graph(scenario)
    means = sorted(cycle_mean(graph, c) for c in simple_cycles(graph))
    assert means[0] == synthesis.mean_weight
    assert means[1] > synthesis.mean_weight  # unique minimum here


def test_synthesis_with_off_cycle_start(scenario):
    result = synthesize(
        scenario.mas, scenario.constraints, scenario.tables, scenario.policy,
        scenario.wcs, scenario.cost, scenario.success, scenario.s_override, 1,
    )
    assert result.prefix_states == (1,)
    assert result.prefix_inputs == (4,)
    assert result.cycle_states == (4, 2, 5, 6, 4)
    assert result.mean_weight == 24
    assert result.trajectory(6) == (1, 4, 2, 5, 6, 4)
    assert result.state_at(0) == 1 and result.input_at(0) == 4
    assert result.entry_step == 1


def test_synthesis_infeasible_thresholds(scenario):
    with pytest.raises(Infeasible):
        synthesize(
            scenario.mas, scenario.constraints, scenario.tables, scenario.policy,
            scenario.wcs, scenario.cost, scenario.success,
            (Fraction("0.99"), Fraction("0.99")), 4,
        )


def test_dot_export(scenario, synthesis):
    dot = to_dot(synthesis.graph, 9, highlight_cycle=synthesis.cycle_states)
    assert dot.startswith("digraph")
    assert 's2 [label="δ_9^2"]' in dot
    assert "s2 -> s5" in dot
    assert dot.count("color=red") == 4
    assert "w=24" in dot and "u={δ_9^7}" in dot
    plain = to_dot(synthesis.graph, 9)
    assert "color=red" not in plain
