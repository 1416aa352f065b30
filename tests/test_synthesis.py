"""Schedule synthesis over the restricted transition graph.

Proves:
 Group 1 - stage costs (exact arithmetic, input-indexed table)
 Group 2 - the frozen nine-edge graph of the bundled worked example and
           the per-state out-edges it is built from
 Group 3 - strongly connected components vs a reachability oracle,
           including a path deeper than the recursion limit
 Group 4 - Karp's minimum-mean cycle vs the DFS enumeration oracle and
           the scalar Karp oracle: exact past int64, tie-breaking pinned
           and checked on tie-heavy random graphs
 Group 5 - end-to-end synthesis: frozen schedule, prefix handling,
           infeasibility, DOT export
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadectrl.errors import (
    DimensionMismatch,
    Infeasible,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from fadectrl.mas import one_step_reach, successor_index
from fadectrl.stabilization import stabilize
from fadectrl.synthesis import (
    Edge,
    StageCost,
    TransitionGraph,
    build_graph,
    joint_stage_cost,
    karp_min_mean_cycle,
    out_edges,
    synthesize,
    tarjan_scc,
    to_dot,
)
from oracles import (
    admissible_inputs,
    brute_min_mean,
    brute_scc,
    cycle_mean,
    graph_successors,
    random_scc_graph,
    scalar_karp,
    simple_cycles,
)

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
    return build_graph(scenario, PHI)


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


def test_shared_cost_row_is_still_checked():
    with pytest.raises(ValueOutOfRange, match=r"g\[1\]\[2\] = -1 negative"):
        StageCost(1, 1, ((0, -1, 2),) * 3)
    with pytest.raises(DimensionMismatch, match="row 1 has 2 entries, expected 3"):
        StageCost(1, 1, ((1, 2),) * 3)
    ok = (1, 2, 3)
    with pytest.raises(ValueOutOfRange, match=r"g\[3\]\[3\]"):
        StageCost(1, 1, (ok, ok, (1, 2, -3)))  # a distinct row after a shared one
    with pytest.raises(DimensionMismatch, match="row 3 has 2 entries"):
        StageCost(1, 1, (ok, ok, (1, 2)))
    shared = StageCost(1, 1, [[4, 5]] * 2)  # one list object, two states
    assert shared.g == ((4, 5), (4, 5)) and shared.g[0] is shared.g[1]


def test_loaded_input_costs_share_one_row(scenario):
    g = scenario.cost.g
    assert len(g) == 9 and all(row is g[0] for row in g)
    assert sum(len(row) for row in g) == 81


def test_joint_stage_cost_exact(scenario):
    c = joint_stage_cost(scenario, 2, 4)
    assert c == 27 and isinstance(c, Fraction)
    c = joint_stage_cost(scenario, 5, 5)
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
        assert steer in admissible_inputs(scenario, a, b)


def test_graph_adjacency_helpers(scenario):
    graph = _graph(scenario)
    assert graph_successors(graph, 2) == (2, 5, 6)
    assert graph.weight(6, 4) == 24


def test_graph_rejects_inadmissible_vertices(scenario):
    with pytest.raises(PreconditionViolated):
        build_graph(scenario, frozenset({2, 7}))


def test_out_edges_frozen_values(scenario):
    admissible = scenario.constraints.state_set
    # (source, target) -> the one admissible input that realizes the edge
    for (a, b), inputs in {(4, 2): (7,), (4, 3): (8,), (2, 2): (4,), (6, 4): (7,)}.items():
        assert admissible_inputs(scenario, a, b) == inputs
        assert out_edges(scenario, a, admissible)[b].steering == inputs
    assert 4 not in out_edges(scenario, 4, admissible)
    assert set(out_edges(scenario, 4, {2, 4})) == {2}


def test_out_edges_cover_reach_exactly(scenario):
    mas, constraints = scenario.mas, scenario.constraints
    for a in sorted(constraints.state_set):
        edges = out_edges(scenario, a, constraints.state_set)
        assert tuple(edges) == one_step_reach(mas, constraints, a)
        for b, edge in edges.items():
            inputs = admissible_inputs(scenario, a, b)
            assert inputs
            for u in inputs:
                assert successor_index(mas, a, u) == b
                assert u in constraints.inputs_for(a)
            costs = {u: joint_stage_cost(scenario, a, u) for u in inputs}
            assert edge.weight == min(costs.values())
            assert edge.steering == tuple(u for u in sorted(costs)
                                          if costs[u] == edge.weight)


# ── Group 3: strongly connected components ───────────────────────────────────

def test_scc_single_component(scenario):
    assert tarjan_scc(_graph(scenario)) == (PHI,)


def test_scc_split_components():
    unit = Edge(1, (1,))
    graph = TransitionGraph(
        (1, 2, 3, 4),
        {(1, 2): unit, (2, 1): unit, (2, 3): unit, (3, 3): unit, (4, 1): unit},
    )
    assert tarjan_scc(graph) == (frozenset({1, 2}), frozenset({3}), frozenset({4}))


def test_scc_matches_reachability_oracle():
    rng = random.Random(31)
    unit = Edge(1, (1,))
    for _ in range(300):
        verts = tuple(range(1, rng.randint(1, 9) + 1))
        edges = {(rng.choice(verts), rng.choice(verts)): unit
                 for _ in range(rng.randint(0, 2 * len(verts)))}
        graph = TransitionGraph(verts, edges)
        assert tarjan_scc(graph) == brute_scc(graph)


def test_scc_long_chain():
    # one DFS path 3000 vertices deep, beyond the default recursion limit
    unit = Edge(1, (1,))
    verts = tuple(range(1, 3001))
    graph = TransitionGraph(verts, {(a, a + 1): unit for a in verts[:-1]})
    assert tarjan_scc(graph) == tuple(frozenset({a}) for a in verts)


# ── Group 4: minimum-mean cycles ─────────────────────────────────────────────

def test_karp_frozen_answer(scenario):
    mean, cycle = karp_min_mean_cycle(_graph(scenario), PHI)
    assert mean == 24 and isinstance(mean, Fraction)
    assert cycle == (2, 5, 6, 4, 2)


def test_karp_exact_on_fractional_weights():
    third = Edge(Fraction(1, 3), (1,))
    half = Edge(Fraction(1, 2), (1,))
    graph = TransitionGraph((1, 2), {(1, 2): third, (2, 1): half})
    mean, cycle = karp_min_mean_cycle(graph, frozenset({1, 2}))
    assert mean == Fraction(5, 12)
    assert cycle == (1, 2, 1)


def test_karp_no_cycle():
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, (1,))})
    with pytest.raises(NoCycle):
        karp_min_mean_cycle(graph, frozenset({1}))


def test_karp_pinned_tie_break():
    # 1 -> 3 -> 1 and the self-loop at 2 are disjoint cycles of mean 0.
    # From source 1: H[3] = (9, 4, 0); vertex 1 scores max(9/3, 9/1) = 9,
    # vertex 2 scores (4 - 4)/1 = 0, vertex 3 scores (0 - 0)/2 = 0, and the
    # first (smallest) v with the minimum is 2.  Its parent walk
    # 1 -> 3 -> 2 -> 2 first repeats at 2, so the loop at 2 is returned even
    # though the other cycle holds the smallest vertex.
    weights = {(1, 3): 0, (2, 1): 5, (2, 2): 0, (2, 3): 1, (3, 1): 0, (3, 2): 4}
    graph = TransitionGraph((1, 2, 3), {e: Edge(w, (1,)) for e, w in weights.items()})
    assert tarjan_scc(graph) == (frozenset({1, 2, 3}),)
    assert {c for c in simple_cycles(graph) if cycle_mean(graph, c) == 0} == {
        (1, 3, 1), (2, 2)}
    assert karp_min_mean_cycle(graph, frozenset({1, 2, 3})) == (0, (2, 2))


def _graph_strategy(weights):
    """Digraphs on 1..n (self-loops allowed) with weights drawn from the
    given strategy; small weight sets make equal-mean cycles common."""
    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 7))
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        edges = draw(st.dictionaries(pairs, weights, max_size=3 * n))
        return TransitionGraph(tuple(range(1, n + 1)),
                               {e: Edge(w, (1,)) for e, w in edges.items()})
    return graphs()


def _karp_or_none(search, graph):
    try:
        return search(graph, frozenset(graph.vertices))
    except NoCycle:
        return None


TIE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@TIE_SETTINGS
@given(_graph_strategy(st.sampled_from((0, 1, 2))))
def test_karp_equals_scalar_oracle_small_integer_weights(graph):
    assert _karp_or_none(karp_min_mean_cycle, graph) == _karp_or_none(scalar_karp, graph)


@TIE_SETTINGS
@given(_graph_strategy(st.builds(Fraction, st.integers(0, 6), st.integers(1, 4))))
def test_karp_equals_scalar_oracle_small_denominators(graph):
    assert _karp_or_none(karp_min_mean_cycle, graph) == _karp_or_none(scalar_karp, graph)


def test_karp_equals_scalar_oracle_on_acceptance_graphs():
    rng = random.Random(55)  # the 500 graphs of acceptance check 5
    for _ in range(500):
        graph = random_scc_graph(rng, max_vertices=9, max_weight=50)
        comp = frozenset(graph.vertices)
        assert karp_min_mean_cycle(graph, comp) == scalar_karp(graph, comp)


def test_karp_exact_past_int64():
    # four or more coprime denominators near 10^6 put the lcm scale above
    # 10^24, so the scaled weights overflow int64 and the Python-int
    # tables are used
    primes = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
              1000117, 1000121, 1000133, 1000151, 1000159)
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        graph = random_scc_graph(rng, max_vertices=6)
        if len(graph.edges) < 4:
            continue
        graph = TransitionGraph(graph.vertices, {
            e: Edge(Fraction(edge.weight * 1000000 + rng.randint(0, 9), primes[i % 11]), (1,))
            for i, (e, edge) in enumerate(sorted(graph.edges.items()))})
        assert math.lcm(*(e.weight.denominator for e in graph.edges.values())) > 2 ** 62
        checked += 1
        mean, cycle = karp_min_mean_cycle(graph, frozenset(graph.vertices))
        assert mean == brute_min_mean(graph)
        assert (mean, cycle) == scalar_karp(graph, frozenset(graph.vertices))
        assert cycle_mean(graph, cycle) == mean


def test_karp_float_weights_are_exact():
    graph = TransitionGraph((1, 2), {(1, 2): Edge(0.1, (1,)),
                                     (2, 1): Edge(0.2, (1,))})
    mean, cycle = karp_min_mean_cycle(graph, frozenset({1, 2}))
    assert mean == (Fraction(0.1) + Fraction(0.2)) / 2
    assert cycle == (1, 2, 1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_karp_rejects_non_finite_weight(bad):
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, (1,)),
                                     (2, 1): Edge(bad, (1,))})
    with pytest.raises(ValueOutOfRange):
        karp_min_mean_cycle(graph, frozenset({1, 2}))


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
    off_cycle = replace(scenario, alpha0=1)
    result = synthesize(off_cycle, stabilize(off_cycle, scenario.s_override))
    assert result.prefix_states == (1,)
    assert result.prefix_inputs == (4,)
    assert result.cycle_states == (4, 2, 5, 6, 4)
    assert result.mean_weight == 24
    assert result.trajectory(6) == (1, 4, 2, 5, 6, 4)
    assert result.state_at(0) == 1 and result.input_at(0) == 4
    assert result.entry_step == 1


def test_synthesis_infeasible_thresholds(scenario):
    stab = stabilize(scenario, (Fraction("0.99"), Fraction("0.99")))
    with pytest.raises(Infeasible):
        synthesize(scenario, stab)


def test_dot_export(scenario, synthesis):
    dot = to_dot(synthesis.graph, 9, highlight_cycle=synthesis.cycle_states)
    assert dot.startswith("digraph")
    assert 's2 [label="δ_9^2"]' in dot
    assert "s2 -> s5" in dot
    assert dot.count("color=red") == 4
    assert "w=24" in dot and "u={δ_9^7}" in dot
    plain = to_dot(synthesis.graph, 9)
    assert "color=red" not in plain
