"""Infinite-horizon-optimal schedule synthesis over the restricted graph.

One slow step at agent state alpha under input u costs

    gbar(alpha, u) = tau * expected_power(alpha) + lambda * g(alpha, u)

(the radio power accrues every fast step, tau of them per slow step).
On the feasible core Phi (invariant-and-reachable states) the relevant
object is the directed graph with an edge a -> b whenever some
admissible input steers a to b in one step, weighted by the cheapest
such input.  The long-run average cost of any eventually periodic
schedule is the mean weight of the cycle it settles into, so the
optimum is the minimum-mean cycle, found per strongly connected
component with Karp's dynamic program:

    eps* = min_v max_k ( H[n][v] - H[k][v] ) / (n - k),

H[k][v] the cheapest k-edge walk from a fixed source.  On the critical
n-edge walk every contiguous cycle has mean exactly eps* (removing one
would beat the shortest-path bound), so a simple minimum-mean cycle
falls out of the walk's first vertex repeat.

Cycle means are exact Fractions: each component's weights are scaled to
integers by the lcm of their denominators, and the dynamic program runs
on integer numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .channel import expected_power
from .cosim import Schedule
from .errors import (
    Infeasible,
    InvariantViolated,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from .mas import successors
from .stabilization import Stabilization


def _stage_costs(scenario, a: int, inputs) -> list:
    """Total expected cost of one slow step spent at a applying u, for
    each u in inputs, with the radio power term computed once."""
    cost = scenario.cost
    radio = cost.tau * expected_power(scenario, a)
    return [radio + cost.lam * cost.input_cost(a, u) for u in inputs]


@dataclass(frozen=True)
class Edge:
    weight: object
    steering: tuple  # cost-minimal admissible inputs, ascending


@dataclass(frozen=True)
class TransitionGraph:
    vertices: tuple
    edges: dict  # (a, b) -> Edge

    def weight(self, a: int, b: int):
        return self.edges[(a, b)].weight


def out_edges(scenario, a: int, targets) -> dict:
    """{b: Edge} for each successor b in targets that an admissible input
    steers a to.

    The edge weight is the minimum joint stage cost over those inputs;
    steering lists the inputs attaining it in ascending order, so
    steering[0] is the cheapest input with ties going to the smallest.
    """
    inputs = sorted(scenario.constraints.inputs_for(a))
    hits = [(u, b) for u, b in zip(inputs, successors(scenario.mas, a, inputs).tolist())
            if b in targets]
    per_target = {}
    for (u, b), c in zip(hits, _stage_costs(scenario, a, [u for u, _ in hits])):
        per_target.setdefault(b, []).append((u, c))
    edges = {}
    for b, cands in sorted(per_target.items()):
        w = min(c for _, c in cands)
        edges[b] = Edge(w, tuple(u for u, c in cands if c == w))
    return edges


def build_graph(scenario, vertices) -> TransitionGraph:
    """Transition graph of the scenario restricted to the given vertex set:
    the out-edges of every vertex that stay inside the set."""
    verts = tuple(sorted(set(vertices)))
    vert_set = frozenset(verts)
    outside = [a for a in verts if a not in scenario.constraints.state_set]
    if outside:
        raise PreconditionViolated(
            "vertices %s outside the admissible state set" % (outside,)
        )
    edges = {(a, b): edge for a in verts
             for b, edge in out_edges(scenario, a, vert_set).items()}
    return TransitionGraph(verts, edges)


def tarjan_scc(graph: TransitionGraph) -> tuple:
    """Strongly connected components, each a frozenset, ordered by
    smallest member; single-pass Tarjan with deterministic visit order,
    driven by an explicit stack so path length is not bounded by the
    interpreter's recursion limit."""
    adjacency = {a: [] for a in graph.vertices}
    for a, b in sorted(graph.edges):
        adjacency[a].append(b)
    order = {}
    low = {}
    on_stack = set()
    stack = []
    components = []
    work = []  # DFS path: (vertex, iterator over its unexamined successors)

    def visit(v):
        order[v] = low[v] = len(order)
        stack.append(v)
        on_stack.add(v)
        work.append((v, iter(adjacency[v])))

    for root in graph.vertices:
        if root in order:
            continue
        visit(root)
        while work:
            v, pending = work[-1]
            for w in pending:
                if w not in order:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == order[v]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    components.append(frozenset(comp))
    return tuple(sorted(components, key=min))


def karp_min_mean_cycle(graph: TransitionGraph, component) -> tuple:
    """(mean, cycle) for a minimum-mean cycle inside one component.

    The cycle is a tuple of vertices with first == last, rotated to
    start at its smallest vertex.  The mean is an exact Fraction: the
    weights are scaled to integers by the lcm L of their denominators
    and the dynamic program runs on integer arrays (int64 while every
    intermediate fits, Python ints otherwise).  Raises NoCycle when the
    component carries no edge cycle (a singleton without self-loop) and
    ValueOutOfRange on a non-finite weight.

    Among equal-mean cycles the result is fixed by these tie-breaks:
    each DP step keeps the smallest source vertex that attains the
    minimum; the max over k keeps the first k; the min over v keeps the
    smallest v; the cycle is the first vertex repeat on the forward
    parent walk from that v, rotated to start at its smallest vertex.
    """
    verts = sorted(component)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    arcs = sorted((pos[b], pos[a], edge.weight)
                  for (a, b), edge in graph.edges.items() if a in pos and b in pos)
    if not arcs:
        raise NoCycle("component %s has no directed cycle" % (sorted(component),))
    try:
        exact = [Fraction(w) for _, _, w in arcs]
    except (OverflowError, ValueError) as e:  # inf, nan
        raise ValueOutOfRange("edge weight is not a finite rational: %s" % e) from None
    scale = math.lcm(*(w.denominator for w in exact))
    weights = [w.numerator * (scale // w.denominator) for w in exact]
    top = max(1, max(abs(w) for w in weights))
    bound = n * top  # |H[k][v]| <= bound for every walk that exists
    # the cross-multiplied ratios stay below 2 n^2 top
    dtype = np.int64 if (n + 1) * top * (n + 1) < 2 ** 62 else object
    tgt = np.array([b for b, _, _ in arcs], dtype=np.intp)
    src = np.array([a for _, a, _ in arcs], dtype=np.intp)
    w = np.array(weights, dtype=dtype)

    # edges grouped by target, sources ascending within a group
    starts = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
    targets = tgt[starts]
    counts = np.diff(np.r_[starts, len(arcs)])
    edge_ids = np.arange(len(arcs))
    # a missing walk starts above 2 bound and, losing at most top per
    # step, stays above bound for all n steps
    unreached = 2 * bound + top + 1
    h = np.full((n + 1, n), unreached, dtype=dtype)
    parent = np.zeros((n + 1, n), dtype=np.intp)
    h[0, 0] = 0  # source: the smallest vertex of the component
    for k in range(1, n + 1):
        cand = h[k - 1][src] + w
        best = np.minimum.reduceat(cand, starts)
        hit = np.where(cand == np.repeat(best, counts), edge_ids, len(arcs))
        h[k, targets] = best
        parent[k, targets] = src[np.minimum.reduceat(hit, starts)]
    reached = h <= bound

    # max_k (H[n][v] - H[k][v]) / (n - k) per v, as num / den, compared
    # exactly by cross-multiplication
    num = np.zeros(n, dtype=dtype)
    den = np.zeros(n, dtype=np.int64)
    for k in range(n):
        ok = reached[n] & reached[k]
        diff = np.where(ok, h[n] - h[k], 0)
        better = ok & ((den == 0) | (diff * den > num * (n - k)))
        num = np.where(better, diff, num)
        den[better] = n - k

    nums, dens = num.tolist(), den.tolist()
    best_v = None
    for v in range(n):
        if dens[v] and (best_v is None or nums[v] * dens[best_v] < nums[best_v] * dens[v]):
            best_v = v
    if best_v is None:
        raise NoCycle("component %s has no directed cycle" % (sorted(component),))
    best_mean = Fraction(nums[best_v], dens[best_v] * scale)

    # walk the n-edge parent chain back from the minimizer, then take the
    # first vertex repeat on the forward walk: a simple min-mean cycle
    walk = [best_v]
    v = best_v
    for k in range(n, 0, -1):
        v = int(parent[k, v])
        walk.append(v)
    walk.reverse()

    last_seen = {}
    cycle_span = None
    for t, v in enumerate(walk):
        if v in last_seen:
            cycle_span = (last_seen[v], t)
            break
        last_seen[v] = t
    start, stop = cycle_span
    cycle = [verts[v] for v in walk[start:stop + 1]]

    length = len(cycle) - 1
    total = sum(Fraction(graph.weight(cycle[i], cycle[i + 1])) for i in range(length))
    if total / length != best_mean:
        raise InvariantViolated(
            "extracted cycle %s has mean %s, not the minimum %s"
            % (cycle, total / length, best_mean)
        )
    return best_mean, _rotate_cycle(cycle, min(cycle))


def _rotate_cycle(cycle, to_vertex) -> tuple:
    """Rotate a closed vertex list (first == last) to start at to_vertex."""
    body = list(cycle[:-1])
    i = body.index(to_vertex)
    body = body[i:] + body[:i]
    return tuple(body + [body[0]])


@dataclass(frozen=True)
class SynthesisResult(Stabilization):
    """The stabilization record extended by the optimal eventually periodic
    schedule: the restricted graph, the prefix into its minimum-mean cycle,
    and the cycle.  `schedule` holds the inputs; `cosim` replays it."""

    graph: TransitionGraph
    prefix_states: tuple
    cycle_states: tuple  # first == last, starts at the entry state
    mean_weight: object
    optimal_cost: object
    schedule: Schedule


def synthesize(scenario, stab: Stabilization) -> SynthesisResult:
    """Minimum average-cost schedule that reaches and holds the healthy set,
    given the scenario's stabilization record (`stabilization.stabilize`),
    returned as that record extended.

    Raises Infeasible when no invariant subset of the performance region
    is reachable from alpha0.
    """
    alpha0 = scenario.alpha0
    layers = stab.layers
    if not stab.feasible:
        raise Infeasible(
            "no reachable control-invariant state clears the thresholds "
            "(invariant core %s, reachable %s)"
            % (sorted(stab.invariant), sorted(layers.union))
        )
    graph = build_graph(scenario, stab.phi)

    best = None
    for comp in tarjan_scc(graph):
        try:
            mean, cycle = karp_min_mean_cycle(graph, comp)
        except NoCycle:
            continue
        if best is None or mean < best[0]:
            best = (mean, cycle)
    if best is None:
        raise NoCycle("restricted graph on %s has no cycle" % (sorted(stab.phi),))
    mean, cycle = best
    # walk the search tree back from the first layer that meets the cycle;
    # layer 0 is {alpha0}, so a start on the cycle gets the empty prefix
    cyc_verts = frozenset(cycle[:-1])
    depth = next((k for k, layer in enumerate(layers.layers) if layer & cyc_verts), None)
    if depth is None:
        raise InvariantViolated(
            "cycle %s lies outside the reachable set from %d" % (cycle, alpha0)
        )
    path = [min(layers.layers[depth] & cyc_verts)]
    for _ in range(depth):
        path.append(layers.parent[path[-1]])
    path.reverse()  # alpha0 to the cycle's entry state
    cycle = _rotate_cycle(cycle, path[-1])
    prefix_inputs = tuple(out_edges(scenario, a, {b})[b].steering[0]
                          for a, b in zip(path, path[1:]))
    cycle_inputs = tuple(
        graph.edges[(cycle[i], cycle[i + 1])].steering[0]
        for i in range(len(cycle) - 1)
    )

    return SynthesisResult(
        *(getattr(stab, f.name) for f in fields(Stabilization)),
        graph=graph,
        prefix_states=tuple(path[:-1]),
        cycle_states=cycle,
        mean_weight=mean,
        optimal_cost=mean / scenario.cost.tau,
        schedule=Schedule(prefix_inputs, cycle_inputs, alpha0),
    )


def _fmt_number(x) -> str:
    if isinstance(x, float) and not x.is_integer():  # inf and nan too
        return "%g" % x
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    try:
        return "%g" % float(f)
    except OverflowError:  # past float64's range: the exact fraction alone
        return "%d/%d" % (f.numerator, f.denominator)


def to_dot(graph: TransitionGraph, n_states: int, highlight_cycle=()) -> str:
    """Graphviz rendering; the minimum-mean cycle's edges are bolded red."""
    hot = set()
    if highlight_cycle:
        hot = {(highlight_cycle[i], highlight_cycle[i + 1])
               for i in range(len(highlight_cycle) - 1)}
    lines = ["digraph transitions {", "  rankdir=LR;", "  node [shape=circle];"]
    for a in graph.vertices:
        lines.append('  s%d [label="δ_%d^%d"];' % (a, n_states, a))
    for (a, b), edge in sorted(graph.edges.items()):
        inputs = ",".join("δ_%d^%d" % (n_states, u) for u in edge.steering)
        attrs = 'label="w=%s, u={%s}"' % (_fmt_number(edge.weight), inputs)
        if (a, b) in hot:
            attrs += ", color=red, penwidth=2.0"
        lines.append("  s%d -> s%d [%s];" % (a, b, attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"
