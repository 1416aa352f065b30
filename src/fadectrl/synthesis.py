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

All arithmetic stays exact (int/Fraction) whenever the scenario's
probabilities and costs are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from .channel import ChannelTables, TransmitPolicy, expected_power
from .errors import (
    DimensionMismatch,
    Infeasible,
    NoCycle,
    PreconditionViolated,
    ValueOutOfRange,
)
from .mas import (
    ConstraintSets,
    MasModel,
    admissible_inputs,
    one_step_reach,
    successor_table,
)
from .stabilization import (
    feasibility,
    largest_invariant,
    omega_set,
    reachable_layers,
)
from .wcs import WcsModel


@dataclass(frozen=True)
class StageCost:
    """Slow-step cost data: fast steps per slow step, input price weight,
    and the (state, input)-indexed input cost table."""

    tau: int
    lam: object
    g: tuple  # g[a-1][u-1] >= 0

    def __post_init__(self):
        if not isinstance(self.tau, int) or self.tau < 1:
            raise ValueOutOfRange("tau must be a positive integer, got %r" % (self.tau,))
        if self.lam < 0:
            raise ValueOutOfRange("lambda weight must be nonnegative")
        g = tuple(tuple(row) for row in self.g)
        n = len(g)
        for a, row in enumerate(g):
            if len(row) != n:
                raise DimensionMismatch(
                    "input cost row %d has %d entries, expected %d" % (a + 1, len(row), n)
                )
            for u, v in enumerate(row):
                if v < 0:
                    raise ValueOutOfRange(
                        "input cost g[%d][%d] = %r negative" % (a + 1, u + 1, v)
                    )
        object.__setattr__(self, "g", g)

    @property
    def n_states(self) -> int:
        return len(self.g)

    def input_cost(self, a: int, u: int):
        return self.g[a - 1][u - 1]

    @staticmethod
    def from_input_costs(tau, lam, costs) -> "StageCost":
        """Cost attached to the input symbol alone, replicated per state."""
        costs = tuple(costs)
        return StageCost(tau, lam, tuple(costs for _ in costs))


def joint_stage_cost(tables: ChannelTables, policy: TransmitPolicy,
                     wcs_model: WcsModel, cost: StageCost, a: int, u: int):
    """Total expected cost of one slow step spent at a applying u."""
    return cost.tau * expected_power(tables, policy, wcs_model, a) \
        + cost.lam * cost.input_cost(a, u)


@dataclass(frozen=True)
class Edge:
    weight: object
    steering: tuple    # cost-minimal admissible inputs, ascending
    admissible: tuple  # every admissible input that realizes the edge


@dataclass(frozen=True)
class TransitionGraph:
    vertices: tuple
    edges: dict  # (a, b) -> Edge

    def successors(self, a: int) -> tuple:
        return tuple(b for (x, b) in sorted(self.edges) if x == a)

    def weight(self, a: int, b: int):
        return self.edges[(a, b)].weight


def build_graph(model: MasModel, constraints: ConstraintSets,
                tables: ChannelTables, policy: TransmitPolicy,
                wcs_model: WcsModel, cost: StageCost, vertices) -> TransitionGraph:
    """Transition graph restricted to the given vertex set.

    Edge a -> b exists iff an admissible input steers a to b with b in
    the vertex set; its weight is the minimum joint stage cost over
    those inputs and the minimizers are recorded.
    """
    verts = tuple(sorted(set(vertices)))
    vert_set = frozenset(verts)
    outside = [a for a in verts if a not in constraints.state_set]
    if outside:
        raise PreconditionViolated(
            "vertices %s outside the admissible state set" % (outside,)
        )
    succ = successor_table(model, constraints)
    edges = {}
    for a in verts:
        per_target = {}
        for u in sorted(constraints.inputs_for(a)):
            b = succ[(a, u)]
            if b not in vert_set:
                continue
            per_target.setdefault(b, []).append((u, joint_stage_cost(
                tables, policy, wcs_model, cost, a, u)))
        for b, cands in sorted(per_target.items()):
            w = min(c for _, c in cands)
            steering = tuple(u for u, c in cands if c == w)
            edges[(a, b)] = Edge(w, steering, tuple(u for u, _ in cands))
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


def _ratio(num, den: int):
    if isinstance(num, Rational):
        return Fraction(num) / den
    return num / den


def karp_min_mean_cycle(graph: TransitionGraph, component) -> tuple:
    """(mean, cycle) for a minimum-mean cycle inside one component.

    The cycle is a tuple of vertices with first == last, rotated to
    start at its smallest vertex.  Means are exact (Fraction) whenever
    the edge weights are rational.  Raises NoCycle when the component
    carries no edge cycle (a singleton without self-loop).
    """
    verts = sorted(component)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    incoming = [[] for _ in range(n)]  # per vertex: (src position, weight)
    for (a, b), edge in sorted(graph.edges.items()):
        if a in pos and b in pos:
            incoming[pos[b]].append((pos[a], edge.weight))

    source = 0  # smallest vertex of the component
    h = [[None] * n for _ in range(n + 1)]
    parent = [[None] * n for _ in range(n + 1)]
    h[0][source] = 0
    for k in range(1, n + 1):
        for v in range(n):
            best = None
            best_u = None
            for u, w in incoming[v]:
                prev = h[k - 1][u]
                if prev is None:
                    continue
                cand = prev + w
                if best is None or cand < best:
                    best, best_u = cand, u
            h[k][v] = best
            parent[k][v] = best_u

    best_mean = None
    best_v = None
    for v in range(n):
        if h[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if h[k][v] is None:
                continue
            r = _ratio(h[n][v] - h[k][v], n - k)
            if worst is None or r > worst:
                worst = r
        if worst is not None and (best_mean is None or worst < best_mean):
            best_mean, best_v = worst, v

    if best_mean is None:
        raise NoCycle("component %s has no directed cycle" % (sorted(component),))

    # walk the n-edge parent chain back from the minimizer, then take the
    # first vertex repeat on the forward walk: a simple min-mean cycle
    walk = [best_v]
    v = best_v
    for k in range(n, 0, -1):
        v = parent[k][v]
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
    total = sum(graph.weight(cycle[i], cycle[i + 1]) for i in range(length))
    extracted = _ratio(total, length)
    if isinstance(extracted, Rational) and isinstance(best_mean, Rational):
        assert extracted == best_mean, "extracted cycle is not min-mean"
    else:
        tol = 1e-9 * max(1.0, abs(float(best_mean)))
        assert abs(float(extracted) - float(best_mean)) <= tol

    return best_mean, _rotate_cycle(cycle, min(cycle))


def _rotate_cycle(cycle, to_vertex) -> tuple:
    """Rotate a closed vertex list (first == last) to start at to_vertex."""
    body = list(cycle[:-1])
    i = body.index(to_vertex)
    body = body[i:] + body[:i]
    return tuple(body + [body[0]])


@dataclass(frozen=True)
class SynthesisResult:
    """Optimal eventually-periodic schedule and everything that led to it."""

    alpha0: int
    region: object
    invariant: frozenset
    layers: object
    phi: frozenset
    graph: TransitionGraph
    prefix_states: tuple
    prefix_inputs: tuple
    cycle_states: tuple  # first == last, starts at the entry state
    cycle_inputs: tuple
    mean_weight: object
    optimal_cost: object

    @property
    def entry_step(self) -> int:
        return len(self.prefix_states)

    @property
    def period(self) -> int:
        return len(self.cycle_inputs)

    def state_at(self, k: int) -> int:
        if k < self.entry_step:
            return self.prefix_states[k]
        return self.cycle_states[(k - self.entry_step) % self.period]

    def input_at(self, k: int) -> int:
        if k < self.entry_step:
            return self.prefix_inputs[k]
        return self.cycle_inputs[(k - self.entry_step) % self.period]

    def trajectory(self, count: int) -> tuple:
        return tuple(self.state_at(k) for k in range(count))

    def schedule(self, count: int) -> tuple:
        return tuple(self.input_at(k) for k in range(count))


def synthesize(model: MasModel, constraints: ConstraintSets,
               tables: ChannelTables, policy: TransmitPolicy,
               wcs_model: WcsModel, cost: StageCost,
               success, thresholds, alpha0: int) -> SynthesisResult:
    """Minimum average-cost schedule that reaches and holds the healthy set.

    Raises Infeasible when no invariant subset of the performance region
    is reachable from alpha0.
    """
    region = omega_set(success, thresholds, constraints)
    invariant = largest_invariant(region, model, constraints)
    layers = reachable_layers(model, constraints, alpha0)
    feas = feasibility(invariant, layers)
    if not feas.feasible:
        raise Infeasible(
            "no reachable control-invariant state clears the thresholds "
            "(invariant core %s, reachable %s)"
            % (sorted(invariant), sorted(layers.union))
        )
    graph = build_graph(model, constraints, tables, policy, wcs_model, cost, feas.phi)

    best = None
    for comp in tarjan_scc(graph):
        try:
            mean, cycle = karp_min_mean_cycle(graph, comp)
        except NoCycle:
            continue
        if best is None or mean < best[0]:
            best = (mean, cycle)
    if best is None:
        raise NoCycle("restricted graph on %s has no cycle" % (sorted(feas.phi),))
    mean, cycle = best
    cyc_verts = frozenset(cycle[:-1])

    if alpha0 in cyc_verts:
        cycle = _rotate_cycle(cycle, alpha0)
        prefix_states = ()
    else:
        entry_depth = None
        for k in range(1, len(layers.layers)):
            if layers.layers[k] & cyc_verts:
                entry_depth = k
                break
        # cycle vertices lie in phi, hence in the reachable union
        assert entry_depth is not None
        chain = [min(layers.layers[entry_depth] & cyc_verts)]
        for k in range(entry_depth - 1, 0, -1):
            preds = [a for a in sorted(layers.layers[k])
                     if chain[0] in one_step_reach(model, constraints, a)]
            chain.insert(0, preds[0])
        chain.insert(0, alpha0)
        cycle = _rotate_cycle(cycle, chain[-1])
        prefix_states = tuple(chain[:-1])

    prefix_inputs = []
    full_path = list(prefix_states) + [cycle[0]]
    for a, b in zip(full_path, full_path[1:]):
        cands = admissible_inputs(model, constraints, a, b)
        costs = [(joint_stage_cost(tables, policy, wcs_model, cost, a, u), u)
                 for u in cands]
        cheapest = min(c for c, _ in costs)
        prefix_inputs.append(min(u for c, u in costs if c == cheapest))

    cycle_inputs = tuple(
        graph.edges[(cycle[i], cycle[i + 1])].steering[0]
        for i in range(len(cycle) - 1)
    )

    return SynthesisResult(
        alpha0=alpha0,
        region=region,
        invariant=invariant,
        layers=layers,
        phi=feas.phi,
        graph=graph,
        prefix_states=prefix_states,
        prefix_inputs=tuple(prefix_inputs),
        cycle_states=cycle,
        cycle_inputs=cycle_inputs,
        mean_weight=mean,
        optimal_cost=_ratio(mean, cost.tau),
    )


def _fmt_number(x) -> str:
    if isinstance(x, Rational):
        f = Fraction(x)
        if f.denominator == 1:
            return str(f.numerator)
        return "%g" % float(f)
    xf = float(x)
    if xf.is_integer():
        return str(int(xf))
    return "%g" % xf


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
