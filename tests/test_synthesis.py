"""Schedule synthesis over the restricted transition graph.

Proves:
 Group 1 - stage costs (exact, as integers over one common scale that
           the graph keeps, input-indexed table, a non-finite cost
           rejected); the loader checks the cost rows, see test_scenario
 Group 2 - the frozen nine-edge graph of the bundled worked example, and
           the one edge builder against the per-state reference on random
           models and on a generated N = 256 grid: one edge per admissible
           (state, input) pair whose successor is a target, held with that
           input
 Group 3 - strongly connected components vs a reachability oracle,
           including a path deeper than the recursion limit
 Group 4 - Karp's minimum-mean cycle on the graph's integer weights vs
           the DFS enumeration oracle and the scalar Karp oracle: the mean
           divided by the graph's scale last, a weight or scale that is not
           an int rejected, exact past int64, tie-breaking pinned
           and checked on tie-heavy random graphs, the walk back's parents
           included
 Group 5 - end-to-end synthesis: the stabilization record extended by a
           frozen schedule, prefix handling (the search-tree walk equals a
           scan of the layers from every bundled start and on random
           instances), infeasibility, DOT export (a weight past float64's
           range as its exact fraction)
"""

import math
import random
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fadectrl.errors import (
    Infeasible,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from fadectrl.mas import (
    Schedule,
    _replay_slow,
    admissible_pairs,
    one_step_reach,
    successor_index,
    successors,
)
from fadectrl.scenario import StageCost, load_scenario_text
from fadectrl.stabilization import Stabilization, stabilize
from fadectrl.synthesis import (
    Edge,
    TransitionGraph,
    build_graph,
    cheapest_edges,
    karp_min_mean_cycle,
    synthesize,
    tarjan_scc,
    to_dot,
)
from oracles import (
    admissible_inputs,
    brute_min_mean,
    brute_scc,
    cycle_mean,
    exact_graph,
    graph_successors,
    grid_text,
    layer_scan_prefix,
    out_edges,
    random_scc_graph,
    random_scenario,
    scalar_karp,
    simple_cycles,
    stage_costs,
    state_by_state_graph,
)

PHI = frozenset({2, 4, 5, 6})

# (source, target) -> (weight, the one input that realizes the edge)
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

def test_loaded_input_costs_share_one_row(scenario):
    g = scenario.cost.g
    assert len(g) == 9 and all(row is g[0] for row in g)
    assert sum(len(row) for row in g) == 81


def test_joint_stage_cost_exact(scenario):
    edges, scale = cheapest_edges(scenario, (2, 5), scenario.constraints.state_set)
    c = edges[(2, 2)].weight
    assert c == 27 * scale and isinstance(c, int) and isinstance(scale, int)
    assert (edges[(5, 4)], edges[(5, 6)]) == (Edge(32 * scale, 5), Edge(26 * scale, 4))
    assert stage_costs(scenario, 5, (5, 4)) == [32, 26]  # the reference agrees


def _with_input_cost(scenario, a, u, value):
    """The scenario with g(a, u) replaced by value in a hand-built StageCost."""
    g = [list(row) for row in scenario.cost.g]
    g[a - 1][u - 1] = value
    return replace(scenario, cost=StageCost(scenario.cost.tau, scenario.cost.lam, g))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_stage_cost_is_rejected(scenario, bad):
    # input 7 steers 4 to 2, an edge of the restricted graph
    scn = _with_input_cost(scenario, 4, 7, bad)
    with pytest.raises(ValueOutOfRange, match="not a finite rational"):
        build_graph(scn, PHI)
    with pytest.raises(ValueOutOfRange):
        synthesize(scn, stabilize(scn))


def test_fractional_hand_built_costs_stay_exact(scenario):
    scn = _with_input_cost(scenario, 6, 7, Fraction(1, 3))
    graph = build_graph(scn, PHI)
    _assert_same_graph(graph, state_by_state_graph(scn, PHI))
    assert graph.weight(6, 4) == stage_costs(scn, 6, (7,))[0]
    assert graph.weight(6, 4).denominator == 3


def test_costs_past_int64_on_the_common_scale_stay_exact(scenario):
    # coprime denominators near 10^6 put the common scale near 10^66, so the
    # scaled input costs overflow int64 and stay exact Python integers
    primes = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
              1000117, 1000121, 1000133, 1000151, 1000159)
    nn = scenario.mas.state_count
    g = [[Fraction(5 * (a + u) % 7, primes[(a + 2 * u) % 11]) for u in range(nn)]
         for a in range(nn)]
    scn = replace(scenario, cost=StageCost(scenario.cost.tau, scenario.cost.lam, g))
    states = scn.constraints.state_set
    graph = build_graph(scn, states)
    assert math.lcm(*(graph.weight(a, b).denominator for a, b in graph.edges)) > 2 ** 63
    assert graph.scale > 2 ** 63
    _assert_same_graph(graph, state_by_state_graph(scn, states))


# ── Group 2: the frozen graph ────────────────────────────────────────────────

def test_graph_has_exactly_the_frozen_edges(scenario):
    graph = _graph(scenario)
    assert graph.vertices == (2, 4, 5, 6)
    assert set(graph.edges) == set(FROZEN_EDGES)
    for (a, b), (weight, steer) in FROZEN_EDGES.items():
        assert graph.weight(a, b) == weight
        assert graph.edges[(a, b)].input == steer
        assert admissible_inputs(scenario, a, b) == (steer,)


def test_graph_adjacency_helpers(scenario):
    graph = _graph(scenario)
    assert graph_successors(graph, 2) == (2, 5, 6)
    assert graph.weight(6, 4) == 24 and isinstance(graph.weight(6, 4), Fraction)


def test_graph_rejects_inadmissible_vertices(scenario):
    with pytest.raises(PreconditionViolated):
        build_graph(scenario, frozenset({2, 7}))


def test_cheapest_edges_frozen_values(scenario):
    admissible = scenario.constraints.state_set
    # (source, target) -> the one admissible input that realizes the edge
    for (a, b), u in {(4, 2): 7, (4, 3): 8, (2, 2): 4, (6, 4): 7}.items():
        assert admissible_inputs(scenario, a, b) == (u,)
        assert cheapest_edges(scenario, {a}, admissible)[0][(a, b)].input == u
        assert out_edges(scenario, a, admissible)[b][1] == u
    assert (4, 4) not in cheapest_edges(scenario, {4}, admissible)[0]
    assert set(cheapest_edges(scenario, {4}, {2, 4})[0]) == {(4, 2)}
    assert cheapest_edges(scenario, (), admissible)[0] == {}
    assert cheapest_edges(scenario, {4}, ())[0] == {}


def test_cheapest_edges_cover_reach_exactly(scenario):
    mas, constraints = scenario.mas, scenario.constraints
    states = sorted(constraints.state_set)
    edges, scale = cheapest_edges(scenario, states, constraints.state_set)
    assert list(edges) == sorted(edges)
    reach = one_step_reach(mas, constraints, states)
    assert sorted(edges) == [(a, b) for a in states for b in reach[a]]
    for (a, b), edge in edges.items():
        assert admissible_inputs(scenario, a, b) == (edge.input,)
        assert successor_index(mas, a, edge.input) == b
        assert edge.input in constraints.inputs_for(a)
        assert [Fraction(edge.weight, scale)] == stage_costs(scenario, a, (edge.input,))


def test_cheapest_edges_is_one_successor_call(scenario, monkeypatch):
    import fadectrl.synthesis as synthesis

    calls, original = [], synthesis.successors

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(synthesis, "successors", counted)
    build_graph(scenario, scenario.constraints.state_set)
    assert len(calls) == 1


def _assert_same_graph(got, expect):
    assert got.vertices == expect.vertices
    assert list(got.edges) == list(expect.edges)
    for key, edge in expect.edges.items():
        assert got.weight(*key) == expect.weight(*key)
        assert isinstance(got.edges[key].weight, int)
        assert got.edges[key].input == edge.input


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.data())
def test_build_graph_equals_per_state_reference_on_random_models(seed, data):
    scn = random_scenario(random.Random(seed))
    states = sorted(scn.constraints.state_set)
    verts = data.draw(st.sets(st.sampled_from(states), min_size=1))
    _assert_same_graph(build_graph(scn, verts), state_by_state_graph(scn, verts))


def test_build_graph_equals_per_state_reference_on_the_n256_grid():
    scn = load_scenario_text(grid_text(4, 1))
    stab = stabilize(scn)
    assert len(stab.phi) == 200
    for verts in (stab.phi, scn.constraints.state_set):
        _assert_same_graph(build_graph(scn, verts), state_by_state_graph(scn, verts))


def _assert_one_edge_per_pair(scn, sources, targets):
    # each admissible (state, input) pair whose successor is a target is
    # one edge, held with that input
    src, inp = admissible_pairs(scn.constraints, sorted(sources))
    hits = [(a, b, u) for a, b, u in zip(src.tolist(), successors(scn.mas, src, inp).tolist(),
                                         inp.tolist()) if b in targets]
    edges, _ = cheapest_edges(scn, sources, targets)
    assert len(edges) == len(hits)
    assert {key: edge.input for key, edge in edges.items()} == {(a, b): u for a, b, u in hits}


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.data())
def test_cheapest_edges_is_one_edge_per_pair_on_random_models(seed, data):
    scn = random_scenario(random.Random(seed))
    states = sorted(scn.constraints.state_set)
    sources = data.draw(st.sets(st.sampled_from(states), min_size=1))
    targets = data.draw(st.sets(st.sampled_from(states)))
    _assert_one_edge_per_pair(scn, sources, targets)


def test_cheapest_edges_is_one_edge_per_pair_on_the_n256_grid():
    scn = load_scenario_text(grid_text(4, 1))
    states = scn.constraints.state_set
    src, inp = admissible_pairs(scn.constraints, sorted(states))
    nxt = successors(scn.mas, src, inp)
    # each state's admissible inputs reach pairwise distinct successors
    assert len(set(zip(src.tolist(), nxt.tolist()))) == len(src) == 3264
    phi = stabilize(scn).phi
    for sources, targets in ((states, states), (phi, phi), (states, phi)):
        _assert_one_edge_per_pair(scn, sources, targets)


# ── Group 3: strongly connected components ───────────────────────────────────

def test_scc_single_component(scenario):
    assert tarjan_scc(_graph(scenario)) == (PHI,)


def test_scc_split_components():
    unit = Edge(1, 1)
    graph = TransitionGraph(
        (1, 2, 3, 4),
        {(1, 2): unit, (2, 1): unit, (2, 3): unit, (3, 3): unit, (4, 1): unit},
        1,
    )
    assert tarjan_scc(graph) == (frozenset({1, 2}), frozenset({3}), frozenset({4}))


def test_scc_matches_reachability_oracle():
    rng = random.Random(31)
    unit = Edge(1, 1)
    for _ in range(300):
        verts = tuple(range(1, rng.randint(1, 9) + 1))
        edges = {(rng.choice(verts), rng.choice(verts)): unit
                 for _ in range(rng.randint(0, 2 * len(verts)))}
        graph = TransitionGraph(verts, edges, 1)
        assert tarjan_scc(graph) == brute_scc(graph)


def test_scc_long_chain():
    # one DFS path 3000 vertices deep, beyond the default recursion limit
    unit = Edge(1, 1)
    verts = tuple(range(1, 3001))
    graph = TransitionGraph(verts, {(a, a + 1): unit for a in verts[:-1]}, 1)
    assert tarjan_scc(graph) == tuple(frozenset({a}) for a in verts)


# ── Group 4: minimum-mean cycles ─────────────────────────────────────────────

def test_karp_frozen_answer(scenario):
    mean, cycle = karp_min_mean_cycle(_graph(scenario), PHI)
    assert mean == 24 and isinstance(mean, Fraction)
    assert cycle == (2, 5, 6, 4, 2)


def test_karp_exact_on_fractional_weights():
    graph = exact_graph((1, 2), {(1, 2): (Fraction(1, 3), 1), (2, 1): (Fraction(1, 2), 1)})
    assert graph.scale == 6
    mean, cycle = karp_min_mean_cycle(graph, frozenset({1, 2}))
    assert mean == Fraction(5, 12)
    assert cycle == (1, 2, 1)


def test_karp_no_cycle():
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, 1)}, 1)
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
    graph = TransitionGraph((1, 2, 3), {e: Edge(w, 1) for e, w in weights.items()}, 1)
    assert tarjan_scc(graph) == (frozenset({1, 2, 3}),)
    assert {c for c in simple_cycles(graph) if cycle_mean(graph, c) == 0} == {
        (1, 3, 1), (2, 2)}
    assert karp_min_mean_cycle(graph, frozenset({1, 2, 3})) == (0, (2, 2))


def _graph_strategy(weights):
    """Digraphs on 1..n (self-loops allowed) with exact weights drawn from
    the given strategy, over their common scale; small weight sets make
    equal-mean cycles common."""
    @st.composite
    def graphs(draw):
        n = draw(st.integers(1, 7))
        pairs = st.tuples(st.integers(1, n), st.integers(1, n))
        edges = draw(st.dictionaries(pairs, weights, max_size=3 * n))
        return exact_graph(range(1, n + 1), {e: (w, 1) for e, w in edges.items()})
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
    # four or more coprime denominators near 10^6 put the graph's scale
    # above 10^24, so the scaled weights overflow int64 and the Python-int
    # tables are used
    primes = (1000003, 1000033, 1000037, 1000039, 1000081, 1000099,
              1000117, 1000121, 1000133, 1000151, 1000159)
    rng = random.Random(7)
    checked = 0
    while checked < 20:
        graph = random_scc_graph(rng, max_vertices=6)
        if len(graph.edges) < 4:
            continue
        graph = exact_graph(graph.vertices, {
            e: (Fraction(edge.weight * 1000000 + rng.randint(0, 9), primes[i % 11]), 1)
            for i, (e, edge) in enumerate(sorted(graph.edges.items()))})
        assert math.lcm(*(graph.weight(a, b).denominator for a, b in graph.edges)) > 2 ** 62
        checked += 1
        mean, cycle = karp_min_mean_cycle(graph, frozenset(graph.vertices))
        assert mean == brute_min_mean(graph)
        assert (mean, cycle) == scalar_karp(graph, frozenset(graph.vertices))
        assert cycle_mean(graph, cycle) == mean


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_karp_rejects_non_finite_weight(bad):
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, 1),
                                     (2, 1): Edge(bad, 1)}, 1)
    with pytest.raises(ValueOutOfRange):
        karp_min_mean_cycle(graph, frozenset({1, 2}))


@pytest.mark.parametrize("bad", [0.1, 2.0, Fraction(1, 3), Fraction(2), np.int64(2)])
def test_karp_rejects_a_weight_that_is_not_an_int(bad):
    # an int64 table would truncate 0.1 to 0 and run on, silently wrong
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, 1), (2, 1): Edge(bad, 1)}, 1)
    with pytest.raises(ValueOutOfRange, match="edge weight .* is not an integer"):
        karp_min_mean_cycle(graph, frozenset({1, 2}))


@pytest.mark.parametrize("bad", [0, -3, 2.0, Fraction(1, 2), None])
def test_karp_rejects_a_scale_that_is_not_a_positive_int(bad):
    graph = TransitionGraph((1, 2), {(1, 2): Edge(1, 1), (2, 1): Edge(2, 1)}, bad)
    with pytest.raises(ValueOutOfRange, match="scale .* is not a positive integer"):
        karp_min_mean_cycle(graph, frozenset({1, 2}))


def test_karp_divides_by_the_graph_scale_last():
    # the same integers over scale 1 and over scale 7: the cycle is the
    # same and the mean is 1/7 as large, exactly
    weights = {(1, 2): 3, (2, 1): 4, (2, 2): 5, (1, 1): 9}
    means = {}
    for scale in (1, 7):
        graph = TransitionGraph((1, 2), {e: Edge(w, 1) for e, w in weights.items()}, scale)
        means[scale] = karp_min_mean_cycle(graph, frozenset({1, 2}))
    assert means[1] == (Fraction(7, 2), (1, 2, 1))
    assert means[7] == (Fraction(1, 2), (1, 2, 1))


@TIE_SETTINGS
@given(_graph_strategy(st.sampled_from((0, 1, 2))))
def test_karp_walk_back_cycle_has_the_brute_force_minimum_mean(graph):
    for comp in tarjan_scc(graph):
        found = _karp_or_none(lambda g, c: karp_min_mean_cycle(g, comp), graph)
        assert found == _karp_or_none(lambda g, c: scalar_karp(g, comp), graph)
        if found is None:
            continue
        mean, cycle = found
        sub = TransitionGraph(tuple(sorted(comp)), {
            (a, b): e for (a, b), e in graph.edges.items() if a in comp and b in comp},
            graph.scale)
        assert mean == brute_min_mean(sub) == cycle_mean(graph, cycle)
        assert len(set(cycle[:-1])) == len(cycle) - 1  # simple


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
    assert isinstance(synthesis, Stabilization)
    assert synthesis.region.omega == PHI
    assert synthesis.invariant == PHI
    assert synthesis.phi == PHI
    assert synthesis.prefix_states == ()
    assert synthesis.cycle_states == (4, 2, 5, 6, 4)
    assert synthesis.schedule == Schedule((), (7, 7, 4, 7), alpha0=4)
    assert synthesis.mean_weight == 24
    assert synthesis.optimal_cost == Fraction(3, 5)


def test_synthesis_extends_the_stabilization_it_was_given(scenario):
    stab = stabilize(scenario)
    result = synthesize(scenario, stab)
    for f in fields(Stabilization):
        assert getattr(result, f.name) is getattr(stab, f.name)


def test_synthesis_schedule_pattern(scenario, synthesis):
    states, inputs = _replay_slow(scenario, synthesis.schedule, 20)
    assert states[:9] == (4, 2, 5, 6, 4, 2, 5, 6, 4)
    assert inputs == tuple(4 if k % 4 == 2 else 7 for k in range(20))


def test_synthesized_cycle_is_minimum_over_enumeration(scenario, synthesis):
    graph = _graph(scenario)
    means = sorted(cycle_mean(graph, c) for c in simple_cycles(graph))
    assert means[0] == synthesis.mean_weight
    assert means[1] > synthesis.mean_weight  # unique minimum here


def test_synthesis_with_off_cycle_start(scenario):
    off_cycle = replace(scenario, alpha0=1)
    result = synthesize(off_cycle, stabilize(off_cycle))
    assert result.prefix_states == (1,)
    assert result.schedule == Schedule((4,), (7, 7, 4, 7), alpha0=1)
    assert result.cycle_states == (4, 2, 5, 6, 4)
    assert result.mean_weight == 24
    states, inputs = _replay_slow(off_cycle, result.schedule, 6)
    assert states == (1, 4, 2, 5, 6, 4)
    assert inputs == (4, 7, 7, 4, 7, 7)


def _assert_prefix_matches_layer_scan(scenario, result):
    states, inputs, entry = layer_scan_prefix(scenario, result.layers,
                                              result.cycle_states)
    assert result.prefix_states == states
    assert result.schedule.prefix_inputs == inputs
    assert result.cycle_states[0] == entry


def test_prefix_walk_equals_layer_scan_from_every_bundled_start(scenario):
    prefixes = set()
    for alpha0 in sorted(scenario.constraints.state_set):
        start = replace(scenario, alpha0=alpha0)
        result = synthesize(start, stabilize(start))
        _assert_prefix_matches_layer_scan(start, result)
        prefixes.add(len(result.prefix_states))
    assert prefixes == {0, 1, 2}  # starts on the cycle and one or two steps off


def test_prefix_walk_equals_layer_scan_on_random_instances():
    rng = random.Random(13)
    checked = 0
    for _ in range(400):
        scn = random_scenario(rng)
        stab = stabilize(scn, (1,))
        if not stab.feasible:
            continue
        try:
            result = synthesize(scn, stab)
        except NoCycle:
            continue
        _assert_prefix_matches_layer_scan(scn, result)
        checked += bool(result.prefix_states)
    assert checked >= 50  # enough draws start off the cycle


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


def test_dot_export_of_a_weight_past_float64_range():
    # its float64 image overflows, so the label is the exact fraction alone
    dot = to_dot(TransitionGraph((1,), {(1, 1): Edge(10**400 + 1, 1)}, 3), 1)
    assert 's1 -> s1 [label="w=%d/3, u={δ_1^1}"];' % (10**400 + 1) in dot
