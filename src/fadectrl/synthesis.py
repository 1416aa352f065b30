"""Infinite-horizon-optimal schedule synthesis over the restricted graph.

One slow step at agent state alpha under input u costs

    gbar(alpha, u) = tau * expected_power(alpha) + lambda * g(alpha, u)

(the radio power accrues every fast step, tau of them per slow step).
On the feasible core Phi (invariant-and-reachable states) the relevant
object is the directed graph with an edge a -> b whenever some
admissible input steers a to b in one step.  The agent law adds the
input digit by digit mod kappa, so distinct inputs steer a state to
distinct successors: exactly one input realizes each edge, and the
edge is weighted by that input's stage cost.  The long-run average
cost of any eventually periodic schedule is the mean weight of the
cycle it settles into, so the optimum is the minimum-mean cycle, found
per strongly connected component with Karp's dynamic program:

    eps* = min_v max_k ( H[n][v] - H[k][v] ) / (n - k),

H[k][v] the cheapest k-edge walk from a fixed source.  On the critical
n-edge walk every contiguous cycle has mean exactly eps* (removing one
would beat the shortest-path bound), so a simple minimum-mean cycle
falls out of the walk's first vertex repeat.  The program stores H
alone: walking the n edges back, each parent is recomputed as the
smallest source u with H[k-1][u] + w(u, v) = H[k][v].

The edges come from one builder, `cheapest_edges`, which also steers
the prefix: one `successors` call over the sources' admissible pairs,
and the edges ordered by (source, target) with one sort.  Each edge's
weight is its exact stage cost as an integer over one common scale L,
the lcm of the cost terms' denominators; the graph keeps L, and
`TransitionGraph.weight` gives the exact Fraction.  Karp's dynamic
program runs on those integers in numpy arrays, and a cycle mean is the
exact Fraction num / (den * L).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .channel import expected_power
from .errors import (
    Infeasible,
    InvariantViolated,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from .mas import Schedule, admissible_pairs, successors
from .stabilization import Stabilization


@dataclass(frozen=True)
class Edge:
    weight: int  # the stage cost times the graph's scale
    input: int  # the one admissible input that steers the source to the target


@dataclass(frozen=True)
class TransitionGraph:
    vertices: tuple
    edges: dict  # (a, b) -> Edge
    scale: int  # every edge weight is an integer over this common denominator

    def weight(self, a: int, b: int) -> Fraction:
        """The exact stage cost of edge a -> b."""
        return Fraction(self.edges[(a, b)].weight, self.scale)


def _exact(x, what: str) -> Fraction:
    try:
        return Fraction(x)
    except (OverflowError, ValueError) as e:  # inf, nan
        raise ValueOutOfRange("%s is not a finite rational: %s" % (what, e)) from None


def cheapest_edges(scenario, sources, targets) -> tuple:
    """({(a, b): Edge}, L): an edge, ascending, for each source a and each
    target b that an admissible input steers a to, and the common scale L
    of their weights.

    Distinct inputs steer a source to distinct successors, so each edge
    holds the one input that realizes it, weighted by that input's stage
    cost.  One `successors` call covers every admissible pair of the
    sources.  The radio term tau * expected_power(a) is computed once per
    source and lambda * g(a, u) once per distinct cost row and input; both
    are scaled to integers by the lcm L of their denominators, and each
    weight is the stage cost times L.  Raises ValueOutOfRange on a stage
    cost that is not a finite rational.
    """
    sources = sorted(set(sources))
    cost = scenario.cost
    src, inp = admissible_pairs(scenario.constraints, sources)
    nxt = successors(scenario.mas, src, inp)
    radio = [_exact(cost.tau * expected_power(scenario, a), "radio cost at state %d" % a)
             for a in sources]
    hit = np.isin(nxt, np.array(sorted(set(targets)), dtype=np.int64))
    pos = np.searchsorted(sources, src[hit])  # each pair's source, as its position
    inp, nxt = inp[hit], nxt[hit]

    # lambda * g once per distinct (cost row, input): rows are told apart by
    # identity, since a loaded `input_costs` row is one object shared by all
    row_ids, rows, src_row = {}, [], []
    for a in sources:
        row = cost.g[a - 1]
        if id(row) not in row_ids:
            row_ids[id(row)] = len(rows)
            rows.append(row)
        src_row.append(row_ids[id(row)])
    n_inputs = scenario.mas.state_count
    keys, which = np.unique(np.array(src_row)[pos] * n_inputs + (inp - 1),
                            return_inverse=True)
    price = [_exact(cost.lam * rows[k // n_inputs][k % n_inputs],
                    "input cost of input %d" % (k % n_inputs + 1)) for k in keys.tolist()]

    scale = math.lcm(*{f.denominator for f in radio + price})
    radio = [f.numerator * (scale // f.denominator) for f in radio]
    price = [f.numerator * (scale // f.denominator) for f in price]
    order = np.lexsort((nxt, pos))
    return {(sources[p], b): Edge(radio[p] + price[k], u)
            for p, b, k, u in zip(pos[order].tolist(), nxt[order].tolist(),
                                  which[order].tolist(), inp[order].tolist())}, scale


def build_graph(scenario, vertices) -> TransitionGraph:
    """Transition graph of the scenario restricted to the given vertex set:
    the edges between its vertices."""
    verts = tuple(sorted(set(vertices)))
    outside = [a for a in verts if a not in scenario.constraints.state_set]
    if outside:
        raise PreconditionViolated(
            "vertices %s outside the admissible state set" % (outside,)
        )
    return TransitionGraph(verts, *cheapest_edges(scenario, verts, verts))


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
    dynamic program runs on the graph's integer weights in arrays (int64
    while every intermediate fits, Python ints otherwise), and the mean
    is divided by the graph's scale last.  Raises NoCycle when the
    component carries no edge cycle (a singleton without self-loop) and
    ValueOutOfRange on a weight that is not an int or a scale that is
    not a positive int.

    The dynamic program keeps the table H alone; the n-edge walk back
    from the minimizing v recomputes each step's parent from H.  Among
    equal-mean cycles the result is fixed by these tie-breaks: each
    parent is the smallest source vertex that attains H[k][v]; the max
    over k keeps the first k; the min over v keeps the smallest v; the
    cycle is the first vertex repeat on the forward walk from that v,
    rotated to start at its smallest vertex.
    """
    scale = graph.scale
    if not isinstance(scale, int) or scale < 1:
        raise ValueOutOfRange("graph scale %r is not a positive integer" % (scale,))
    verts = sorted(component)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    arcs = sorted((pos[b], pos[a], edge.weight)
                  for (a, b), edge in graph.edges.items() if a in pos and b in pos)
    if not arcs:
        raise NoCycle("component %s has no directed cycle" % (sorted(component),))
    tgt, src, weights = zip(*arcs)
    for x in weights:
        if not isinstance(x, int):  # an int64 array would truncate it silently
            raise ValueOutOfRange("edge weight %r is not an integer" % (x,))
    top = max(1, max(map(abs, weights)))
    bound = n * top  # |H[k][v]| <= bound for every walk that exists
    # the cross-multiplied ratios stay below 2 n^2 top
    dtype = np.int64 if (n + 1) * top * (n + 1) < 2 ** 62 else object
    tgt, src = np.array(tgt, dtype=np.intp), np.array(src, dtype=np.intp)
    w = np.array(weights, dtype=dtype)

    # edges grouped by target, sources ascending within a group
    starts = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
    targets = tgt[starts]
    # a missing walk starts above 2 bound and, losing at most top per
    # step, stays above bound for all n steps
    unreached = 2 * bound + top + 1
    h = np.full((n + 1, n), unreached, dtype=dtype)
    h[0, 0] = 0  # source: the smallest vertex of the component
    for k in range(1, n + 1):
        h[k, targets] = np.minimum.reduceat(h[k - 1][src] + w, starts)

    # max_k (H[n][v] - H[k][v]) / (n - k) per v, as num / den, compared
    # exactly by cross-multiplication
    num = np.zeros(n, dtype=dtype)
    den = np.zeros(n, dtype=np.int64)
    reached_n = h[n] <= bound
    for k in range(n):
        ok = reached_n & (h[k] <= bound)
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
    mean = Fraction(nums[best_v], dens[best_v] * scale)

    # walk the n-edge chain back from the minimizer, each parent the
    # smallest source that attains h[k][v], then take the first vertex
    # repeat on the forward walk: a simple min-mean cycle
    group = dict(zip(targets.tolist(), zip(starts.tolist(), [*starts[1:].tolist(), len(arcs)])))
    walk = [best_v]
    v = best_v
    for k in range(n, 0, -1):
        lo, hi = group[v]
        cand = h[k - 1][src[lo:hi]] + w[lo:hi]
        v = int(src[lo + np.flatnonzero(cand == h[k, v])[0]])
        walk.append(v)
    walk.reverse()

    last_seen = {}
    for t, v in enumerate(walk):  # n + 1 vertices of n: one repeats
        if v in last_seen:
            break
        last_seen[v] = t
    cycle = [verts[u] for u in walk[last_seen[v]:t + 1]]

    length = len(cycle) - 1
    total = sum(graph.edges[e].weight for e in zip(cycle, cycle[1:]))
    if total * dens[best_v] != nums[best_v] * length:
        raise InvariantViolated(
            "extracted cycle %s has mean %s, not the minimum %s"
            % (cycle, Fraction(total, length * scale), mean)
        )
    return mean, _rotate_cycle(cycle, min(cycle))


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
    and the cycle.  `schedule` holds the inputs; `mas._replay_slow` replays it."""

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

    found = []  # (mean, cycle) per component that carries a cycle
    for comp in tarjan_scc(graph):
        try:
            found.append(karp_min_mean_cycle(graph, comp))
        except NoCycle:
            pass
    if not found:
        raise NoCycle("restricted graph on %s has no cycle" % (sorted(stab.phi),))
    mean, cycle = min(found, key=lambda result: result[0])  # the first of equal means
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
    steps, _ = cheapest_edges(scenario, path[:-1], path[1:])
    prefix_inputs = tuple(steps[(a, b)].input for a, b in zip(path, path[1:]))
    cycle_inputs = tuple(graph.edges[e].input for e in zip(cycle, cycle[1:]))

    return SynthesisResult(
        *(getattr(stab, f.name) for f in fields(Stabilization)),
        graph=graph,
        prefix_states=tuple(path[:-1]),
        cycle_states=cycle,
        mean_weight=mean,
        optimal_cost=mean / scenario.cost.tau,
        schedule=Schedule(prefix_inputs, cycle_inputs, alpha0),
    )


def _fmt_number(f: Fraction) -> str:
    try:
        return str(f) if f.denominator == 1 else "%g" % float(f)
    except OverflowError:  # past float64's range: the exact fraction alone
        return str(f)


def to_dot(graph: TransitionGraph, n_states: int, highlight_cycle=()) -> str:
    """Graphviz rendering; the minimum-mean cycle's edges are bolded red."""
    hot = set(zip(highlight_cycle, highlight_cycle[1:]))
    lines = ["digraph transitions {", "  rankdir=LR;", "  node [shape=circle];"]
    for a in graph.vertices:
        lines.append('  s%d [label="δ_%d^%d"];' % (a, n_states, a))
    for (a, b), edge in sorted(graph.edges.items()):
        attrs = 'label="w=%s, u={δ_%d^%d}"' % (_fmt_number(graph.weight(a, b)), n_states,
                                              edge.input)
        if (a, b) in hot:
            attrs += ", color=red, penwidth=2.0"
        lines.append("  s%d -> s%d [%s];" % (a, b, attrs))
    lines.append("}")
    return "\n".join(lines) + "\n"
