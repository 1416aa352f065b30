"""Independent brute-force oracles and random-instance generators.

These deliberately avoid the library's own algorithms: cycles are found
by plain DFS enumeration and by a scalar Karp on Fractions, invariance by
checking every subset, a prefix into a cycle by scanning the reachable
layers again, the counter RNG is recomputed on Python integers,
the co-simulation runs one fast step and one draw call at a time over
every trial's full trajectory (and the decay check reads it whole), the
running cost is summed one fast step at a time, a threshold comes from a
generic bisection on a caller's predicate, and the agent law is rebuilt
in the paper's semi-tensor-product (STP) form, so the fast
implementations have something honest to be compared against.  The
scenario loader's one-pass builder is compared against the reference
loader it replaced: PyYAML's composer and constructor with line-keeping,
exact-number constructors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import yaml

from fadectrl.channel import expected_power
from fadectrl.cosim import (
    LyapunovCheck,
    PlantCheck,
    SimTrace,
    _replay_slow,
    counter_uniforms,
)
from fadectrl.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    Infeasible,
    NoCycle,
    PreconditionViolated,
    ToolkitError,
    ValueOutOfDomain,
    ValueOutOfRange,
)
from fadectrl.mas import ConstraintSets, MasModel, one_step_reach
from fadectrl.scenario import StageCost, _Map, _Number
from fadectrl.synthesis import Edge, TransitionGraph, out_edges
from fadectrl.wcs import Plant


def graph_successors(graph: TransitionGraph, a: int) -> tuple:
    """Targets of a's out-edges, ascending."""
    return tuple(b for (x, b) in sorted(graph.edges) if x == a)


def admissible_inputs(scenario, a: int, b: int) -> tuple:
    """Every admissible input at a that steers a to b, ascending, by the
    agent law in STP form."""
    nn = scenario.mas.state_count
    return tuple(u for u in sorted(scenario.constraints.inputs_for(a))
                 if step_logical(scenario.mas, LogicalVector(nn, a),
                                 LogicalVector(nn, u)).index == b)


def simple_cycles(graph: TransitionGraph) -> set:
    """Every simple directed cycle, as a vertex tuple with first == last,
    rotated to start at its smallest vertex (each cycle appears once)."""
    adjacency = {a: graph_successors(graph, a) for a in graph.vertices}
    found = set()
    for root in graph.vertices:
        stack = [(root, (root,))]
        while stack:
            v, path = stack.pop()
            for w in adjacency[v]:
                if w < root:
                    continue  # that cycle is found from its own minimum
                if w == root:
                    found.add(path + (root,))
                elif w not in path:
                    stack.append((w, path + (w,)))
    return found


def cycle_mean(graph: TransitionGraph, cycle) -> Fraction:
    total = sum(graph.weight(cycle[i], cycle[i + 1])
                for i in range(len(cycle) - 1))
    return Fraction(total) / (len(cycle) - 1)


def brute_min_mean(graph: TransitionGraph):
    """Minimum mean over all simple cycles, or None if the graph is acyclic."""
    best = None
    for cycle in simple_cycles(graph):
        mean = cycle_mean(graph, cycle)
        if best is None or mean < best:
            best = mean
    return best


def scalar_karp(graph: TransitionGraph, component) -> tuple:
    """Reference Karp dynamic program on scalar Fractions: (mean, cycle),
    or NoCycle.  The same recurrence and tie-breaks as the library's
    array version, one relaxation at a time: strict < keeps the smallest
    source per step, strict > the first k, strict < the smallest v."""
    verts = sorted(component)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    incoming = [[] for _ in range(n)]  # per vertex: (src position, weight)
    for (a, b), edge in sorted(graph.edges.items()):
        if a in pos and b in pos:
            incoming[pos[b]].append((pos[a], Fraction(edge.weight)))

    h = [[None] * n for _ in range(n + 1)]
    parent = [[None] * n for _ in range(n + 1)]
    h[0][0] = Fraction(0)  # source: the smallest vertex
    for k in range(1, n + 1):
        for v in range(n):
            for u, w in incoming[v]:
                prev = h[k - 1][u]
                if prev is not None and (h[k][v] is None or prev + w < h[k][v]):
                    h[k][v], parent[k][v] = prev + w, u

    best_mean = best_v = None
    for v in range(n):
        if h[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if h[k][v] is not None:
                r = (h[n][v] - h[k][v]) / (n - k)
                if worst is None or r > worst:
                    worst = r
        if worst is not None and (best_mean is None or worst < best_mean):
            best_mean, best_v = worst, v
    if best_mean is None:
        raise NoCycle("component %s has no directed cycle" % (verts,))

    walk = [best_v]
    for k in range(n, 0, -1):
        walk.append(parent[k][walk[-1]])
    walk.reverse()
    seen = {}
    for t, v in enumerate(walk):
        if v in seen:
            body = [verts[u] for u in walk[seen[v]:t]]
            break
        seen[v] = t
    i = body.index(min(body))
    body = body[i:] + body[:i]
    return best_mean, tuple(body + [body[0]])


def brute_scc(graph: TransitionGraph) -> tuple:
    """Strongly connected components as mutual-reachability classes,
    ordered by smallest member."""
    reach = {}
    for root in graph.vertices:
        seen = {root}
        todo = [root]
        while todo:
            for w in graph_successors(graph, todo.pop()):
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        reach[root] = seen
    comps = {frozenset(w for w in reach[v] if v in reach[w]) for v in graph.vertices}
    return tuple(sorted(comps, key=min))


def random_scc_graph(rng, max_vertices: int = 9, max_weight: int = 50) -> TransitionGraph:
    """Random strongly connected digraph with integer weights.

    A Hamiltonian cycle through a shuffled vertex order guarantees strong
    connectivity; extra random edges (self-loops included) are layered on.
    """
    n = rng.randint(1, max_vertices)
    verts = tuple(range(1, n + 1))
    order = list(verts)
    rng.shuffle(order)
    edges = {}

    def put(a, b):
        edges[(a, b)] = Edge(rng.randint(0, max_weight), (1,))

    for i in range(n):
        put(order[i], order[(i + 1) % n])
    for _ in range(rng.randint(0, 2 * n)):
        a = rng.choice(verts)
        b = rng.choice(verts)
        if (a, b) not in edges:
            put(a, b)
    return TransitionGraph(verts, edges)


def brute_invariant(model: MasModel, constraints: ConstraintSets, omega) -> frozenset:
    """Union of every subset of omega closed under some admissible input,
    checked subset by subset (exponential, fine for |omega| <= 8)."""
    members = sorted(omega)
    best = set()
    for bits in range(1, 1 << len(members)):
        subset = {members[i] for i in range(len(members)) if bits >> i & 1}
        if all(set(one_step_reach(model, constraints, a)) & subset
               for a in subset):
            best |= subset
    return frozenset(best)


def random_mas_instance(rng):
    """(model, constraints, omega) with |C_alpha| <= 8 for invariant checks."""
    n, kappa = rng.choice(((1, 2), (1, 3), (1, 4), (2, 2), (2, 3)))
    weights = []
    for j in range(n):
        wmap = {j: rng.randrange(kappa)}
        for l in range(n):
            if l != j and rng.random() < 0.7:
                wmap[l] = rng.randrange(kappa)
        weights.append(wmap)
    model = MasModel(n, kappa, tuple(weights))
    nn = model.state_count
    states = rng.sample(range(1, nn + 1), rng.randint(1, min(8, nn)))
    inputs = rng.sample(range(1, nn + 1), rng.randint(1, min(4, nn)))
    constraints = ConstraintSets(states, {a: inputs for a in states})
    omega = frozenset(a for a in states if rng.random() < 0.6)
    return model, constraints, omega


def random_scenario(rng):
    """A scenario-shaped namespace over a `random_mas_instance`, enough for
    `stabilize` at threshold 1 and `synthesize`: one link that succeeds
    exactly on omega, its plant a scalar loop whose computed threshold
    (5/48) the threshold 1 clears, random transmit shares and small
    integer input costs (so equal-cost inputs are common), and a random
    start."""
    model, constraints, omega = random_mas_instance(rng)
    nn = model.state_count
    return SimpleNamespace(
        mas=model,
        constraints=constraints,
        alpha0=rng.choice(sorted(constraints.state_set)),
        success={a: (Fraction(a in omega),) for a in range(1, nn + 1)},
        transmit={a: (Fraction(rng.randint(0, 4), 4),) for a in range(1, nn + 1)},
        plants=(Plant([[0.2]], [[1.0]], [[1.0]], 0.9, [[1.0]], Fraction(1)),),
        cost=StageCost(rng.randint(1, 3), Fraction(1),
                       [[rng.randint(0, 3) for _ in range(nn)] for _ in range(nn)]),
    )


def layer_scan_prefix(scenario, layers, cycle) -> tuple:
    """(prefix states, prefix inputs, entry state) of the schedule into a
    cycle, found by scanning the reachable layers again: the entry is the
    smallest cycle state of the first layer that meets the cycle, and each
    earlier state is the smallest state of its layer whose one-step reach
    contains the next one.  Each input is the cheapest that steers a
    state to the next, ties to the smallest."""
    alpha0 = scenario.alpha0
    cyc_verts = frozenset(cycle[:-1])
    if alpha0 in cyc_verts:
        return (), (), alpha0
    entry_depth = next(k for k in range(1, len(layers.layers))
                       if layers.layers[k] & cyc_verts)
    chain = [min(layers.layers[entry_depth] & cyc_verts)]
    for k in range(entry_depth - 1, 0, -1):
        preds = [a for a in sorted(layers.layers[k])
                 if chain[0] in one_step_reach(scenario.mas, scenario.constraints, a)]
        chain.insert(0, preds[0])
    chain.insert(0, alpha0)
    inputs = tuple(out_edges(scenario, a, {b})[b].steering[0]
                   for a, b in zip(chain, chain[1:]))
    return tuple(chain[:-1]), inputs, chain[-1]


# ── Co-simulation ────────────────────────────────────────────────────────────

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def _splitmix_finalize(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def integer_uniforms(seed: int, stream: int, step: int, draw: int, trials: int) -> list:
    """The keyed uniforms in (0, 1] of one fast step, on Python integers."""
    key = seed
    for comp in (stream, step, draw):
        key = _splitmix_finalize((key + (comp + 1) * _GOLDEN64) & _MASK64)
    return [((_splitmix_finalize((key + t * _GOLDEN64) & _MASK64) >> 11) + 1) * 2.0 ** -53
            for t in range(1, trials + 1)]


def counter_normals(seed: int, stream: int, step, count: int,
                    trials: int) -> np.ndarray:
    """(trials, count) standard normals via Box-Muller on the substream;
    (steps, trials, count) for a 1-D array of steps.  Uniform pair j gives
    columns 2j (cosine) and 2j + 1 (sine); an odd count skips the last sine.
    One `counter_uniforms` call per uniform: the per-stream construction
    that `simulate`'s one call per plant and block must equal."""
    out = np.empty(np.shape(step) + (trials, count))
    trig = np.empty(out.shape[:-1])
    for j in range((count + 1) // 2):
        r = counter_uniforms(seed, stream, step, 2 * j, trials)
        theta = counter_uniforms(seed, stream, step, 2 * j + 1, trials)
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta *= 2.0 * np.pi
        np.multiply(r, np.cos(theta, out=trig), out=out[..., 2 * j])
        if 2 * j + 1 < count:
            np.multiply(r, np.sin(theta, out=trig), out=out[..., 2 * j + 1])
    return out


def stepwise_simulate(scenario, schedule, config):
    """The co-simulation one fast step at a time, each draw keyed by its own
    scalar-step counter call, keeping every trial's full trajectory.

    Returns (trace, states, deliveries): the SimTrace the streaming
    `simulate` must equal, its delivery counts and decay statistics taken
    from the full arrays; per plant the (trials, horizon+1, dim) states for
    `full_lyapunov_check`; and every trial's (trials, horizon, links) 0/1
    deliveries.
    """
    tau = scenario.cost.tau
    horizon, trials = config.horizon_fast, config.trials
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, -(-horizon // tau))
    plants = scenario.plants
    factors = [plant.noise_factor for plant in plants]
    states = []
    for i, plant in enumerate(plants):
        x = np.zeros((trials, horizon + 1, plant.dim))
        if scenario.x0 is not None:
            x[:, 0, :] = scenario.x0[i]
        states.append(x)
    deliveries = np.zeros((trials, horizon, len(plants)), dtype=np.uint8)
    for l in range(horizon):
        a = alpha_slow[l // tau]
        for i, (plant, p) in enumerate(zip(plants, scenario.success[a])):
            ok = counter_uniforms(config.seed, 2 * i, l, 0, trials) <= float(p)
            deliveries[:, l, i] = ok
            z = counter_normals(config.seed, 2 * i + 1, l, plant.dim, trials)
            x = states[i]
            step = np.where(ok[:, None, None], plant.a_c, plant.a_o)
            x[:, l + 1, :] = _rows_times(step, x[:, l, :]) + _rows_times(factors[i], z)
    residuals = [_decay_residuals(x, plant) for x, plant in zip(states, plants)]
    trace = SimTrace(
        tau=tau,
        trials=trials,
        alpha_slow=alpha_slow,
        inputs_slow=inputs_slow,
        states=tuple(x[0] for x in states),
        deliveries=deliveries[0],
        delivery_counts=deliveries.sum(axis=0, dtype=np.int64),
        running_cost=average_cost_trace(scenario, schedule, horizon),
        entry_fast=len(schedule.prefix_inputs) * tau,
        decay_mean=tuple(d.mean(axis=0) for d in residuals),
        decay_sd=tuple(d.std(axis=0, ddof=1) for d in residuals),
    )
    return trace, tuple(states), deliveries


def _rows_times(m, x) -> np.ndarray:
    """x @ m.T for (trials, dim) rows, m shared or one per trial, each sum
    over d of m[e, d] x_d taken in index order, so no BLAS kernel enters."""
    m = np.broadcast_to(m, x.shape[:1] + m.shape[-2:])
    y = m[:, :, 0] * x[:, None, 0]
    for d in range(1, x.shape[1]):
        y += m[:, :, d] * x[:, None, d]
    return y


def _decay_residuals(x, plant) -> np.ndarray:
    """(trials, horizon) of V(x(l+1)) - rho V(x(l)) - tr(Q Xi)."""
    v = np.einsum("tld,de,tle->tl", x, plant.q, x)
    return v[:, 1:] - float(plant.rho) * v[:, :-1] - plant.q_xi_trace


def full_lyapunov_check(states, plants, start: int) -> LyapunovCheck:
    """The 3-sigma decay check on full (trials, horizon+1, dim) states, from
    fast step `start` on: what the streamed statistics must reproduce."""
    results = []
    all_ok = True
    for i, plant in enumerate(plants):
        x = states[i]
        d = _decay_residuals(x, plant)[:, start:]
        mean = d.mean(axis=0)
        se = d.std(axis=0, ddof=1) / math.sqrt(x.shape[0])
        margin = 3.0 * se - mean
        worst = int(np.argmin(margin))
        ok = bool(np.all(mean <= 3.0 * se + 1e-12))
        results.append(PlantCheck(i, ok, float(margin[worst]), start + worst))
        all_ok = all_ok and ok
    return LyapunovCheck(all_ok, tuple(results))


def average_cost_trace(scenario, schedule, horizon: int) -> np.ndarray:
    """Running average cost over `horizon` fast steps, one fast step at a
    time: every step costs the power expectation of its agent state, and
    the first fast step of each slow step adds lambda times its input cost."""
    cost = scenario.cost
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, -(-horizon // cost.tau))
    power = {}
    per_fast = []
    for l in range(horizon):
        k, r = divmod(l, cost.tau)
        a = alpha_slow[k]
        if a not in power:
            power[a] = float(expected_power(scenario, a))
        c = power[a]
        if r == 0:
            c += float(cost.lam) * float(cost.input_cost(a, inputs_slow[k]))
        per_fast.append(c)
    return np.cumsum(per_fast) / np.arange(1, horizon + 1)


# ── Thresholds ───────────────────────────────────────────────────────────────

def bisect_threshold(predicate, tol: float = 1e-9) -> float:
    """Smallest theta in [0, 1] with predicate(theta) true, to within tol.

    The predicate must be monotone (false below the threshold, true
    above).  predicate(1) false raises Infeasible; predicate(0) true
    returns 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValueOutOfRange("tolerance %g outside (0, 1)" % tol)
    if not predicate(1.0):
        raise Infeasible("predicate false at theta = 1")
    if predicate(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(64):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _max_sym_eigenvalue(m) -> float:
    return max(np.linalg.eigvalsh(0.5 * (m + m.T)))


def bisection_threshold(plant) -> float:
    """The plant's delivery threshold by `bisect_threshold` on negative
    semidefiniteness of theta (A_c'QA_c - A_o'QA_o) + A_o'QA_o - rho Q,
    each matrix symmetrized as (M + M')/2 before its eigenvalues."""
    gain = plant.aqa_closed - plant.aqa_open
    if _max_sym_eigenvalue(gain) > -1e-12:
        raise PreconditionViolated("closed loop does not strictly improve on open loop")
    open_term = plant.aqa_open - float(plant.rho) * plant.q
    return bisect_threshold(lambda theta: _max_sym_eigenvalue(theta * gain + open_term) <= 0.0)


# ── Semi-tensor product algebra ──────────────────────────────────────────────
#
# For A (m x n) and B (p x q), with t = lcm(n, p),
#
#     A |x| B = (A kron I_{t/n}) (B kron I_{t/p}),
#
# an (m t/n) x (q t/p) matrix; for n = p it is the ordinary product.
# Finite-valued dynamics are carried by canonical basis vectors (columns
# of the identity, 1-based), so a logical matrix is stored as its column
# indices and its products reduce to integer index arithmetic.  Tuples
# over {0,...,kappa-1} embed left-to-right, leftmost coordinate most
# significant: (v1, ..., vn) -> index 1 + sum_j v_j * kappa^(n-j).


class NonLogicalResult(ToolkitError, ValueError):
    """A product that must be a canonical basis vector is not one."""


@dataclass(frozen=True)
class LogicalVector:
    """Canonical basis vector delta_dim^index (1-based index)."""

    dim: int
    index: int

    def __post_init__(self):
        if self.dim < 1:
            raise DimensionMismatch("dimension must be positive, got %d" % self.dim)
        if not 1 <= self.index <= self.dim:
            raise IndexOutOfRange(
                "basis index %d outside 1..%d" % (self.index, self.dim)
            )

    def to_dense(self) -> np.ndarray:
        v = np.zeros(self.dim)
        v[self.index - 1] = 1.0
        return v


@dataclass(frozen=True)
class LogicalMatrix:
    """Matrix whose columns are all canonical basis vectors of R^rows.

    Stored as the 1-based row index hit by each column, so every product
    with another logical object is exact integer computation.
    """

    rows: int
    cols: int
    col_indices: tuple

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise DimensionMismatch(
                "shape (%d, %d) must be positive" % (self.rows, self.cols)
            )
        if len(self.col_indices) != self.cols:
            raise DimensionMismatch(
                "%d column indices for %d columns"
                % (len(self.col_indices), self.cols)
            )
        for j, i in enumerate(self.col_indices):
            if not 1 <= i <= self.rows:
                raise IndexOutOfRange(
                    "column %d hits row %d outside 1..%d" % (j + 1, i, self.rows)
                )

    @staticmethod
    def identity(n: int) -> "LogicalMatrix":
        return LogicalMatrix(n, n, tuple(range(1, n + 1)))

    def column(self, j: int) -> LogicalVector:
        if not 1 <= j <= self.cols:
            raise IndexOutOfRange("column %d outside 1..%d" % (j, self.cols))
        return LogicalVector(self.rows, self.col_indices[j - 1])

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.rows, self.cols))
        for j, i in enumerate(self.col_indices):
            m[i - 1, j] = 1.0
        return m


def stp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Semi-tensor product of two dense matrices (vectors as columns)."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    n = a.shape[1]
    p = b.shape[0]
    t = math.lcm(n, p)
    left = np.kron(a, np.eye(t // n))
    right = np.kron(b, np.eye(t // p))
    return left @ right


def stp_basis(u: LogicalVector, v: LogicalVector) -> LogicalVector:
    """delta_m^i |x| delta_n^j = delta_{mn}^{(i-1)n + j}, exactly."""
    return LogicalVector(u.dim * v.dim, (u.index - 1) * v.dim + v.index)


def stp_logical(a: LogicalMatrix, v: LogicalVector) -> LogicalVector:
    """STP of a logical matrix with a basis vector, by index arithmetic.

    Three shapes occur:
      * cols(a) == dim(v): ordinary product, picks column v.index;
      * dim(v) == k * cols(a): a |x| v = (a kron I_k) v, still a basis
        vector, computed from the block/offset decomposition of v;
      * cols(a) == k * dim(v) with k > 1: the product is an rows x k
        matrix, not a vector -> NonLogicalResult.
    """
    n, p = a.cols, v.dim
    if n == p:
        return LogicalVector(a.rows, a.col_indices[v.index - 1])
    if p % n == 0:
        k = p // n
        block, offset = divmod(v.index - 1, k)
        hit = a.col_indices[block]
        return LogicalVector(a.rows * k, (hit - 1) * k + offset + 1)
    if n % p == 0:
        raise NonLogicalResult(
            "product of (%d x %d) with basis of dim %d is a %d-column matrix"
            % (a.rows, n, p, n // p)
        )
    raise DimensionMismatch(
        "STP factor dimensions %d and %d divide neither way" % (n, p)
    )


def encode_tuple(values, kappa: int) -> LogicalVector:
    """Embed a tuple over {0,...,kappa-1} as a basis vector of dim kappa^n.

    Left-to-right fold of stp_basis over the per-coordinate embeddings
    delta_kappa^{v+1}; leftmost coordinate most significant.
    """
    values = tuple(values)
    if kappa < 2:
        raise ValueOutOfDomain("kappa must be >= 2, got %d" % kappa)
    if not values:
        raise DimensionMismatch("cannot encode an empty tuple")
    idx = 1
    for v in values:
        if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
            raise ValueOutOfDomain("coordinate %r is not an integer" % (v,))
        if not 0 <= v < kappa:
            raise ValueOutOfDomain(
                "coordinate %d outside 0..%d" % (v, kappa - 1)
            )
        idx = (idx - 1) * kappa + (int(v) + 1)
    return LogicalVector(kappa ** len(values), idx)


def decode_index(vec: LogicalVector, n: int, kappa: int) -> tuple:
    """Inverse of encode_tuple: recover the value tuple from delta indices."""
    if kappa < 2:
        raise ValueOutOfDomain("kappa must be >= 2, got %d" % kappa)
    if n < 1:
        raise DimensionMismatch("tuple length must be >= 1, got %d" % n)
    if vec.dim != kappa ** n:
        raise DimensionMismatch(
            "vector dim %d != kappa^n = %d" % (vec.dim, kappa ** n)
        )
    rem = vec.index - 1
    out = []
    for _ in range(n):
        rem, v = divmod(rem, kappa)
        out.append(v)
    return tuple(reversed(out))


# ── The agent law in STP form ────────────────────────────────────────────────

def step_tuple(model: MasModel, alpha, u) -> tuple:
    """One update of the modular law on value tuples."""
    alpha = tuple(alpha)
    u = tuple(u)
    if len(alpha) != model.n or len(u) != model.n:
        raise DimensionMismatch(
            "state/input tuples must have length %d" % model.n
        )
    for v in alpha + u:
        if not 0 <= v < model.kappa:
            raise ValueOutOfDomain("coordinate %r outside 0..%d" % (v, model.kappa - 1))
    out = []
    for j in range(model.n):
        acc = u[j]
        for l, a in model.weights[j].items():
            acc += a * alpha[l]
        out.append(acc % model.kappa)
    return tuple(out)


def step_logical(model: MasModel, alpha: LogicalVector, u: LogicalVector) -> LogicalVector:
    """One update on basis vectors (decode, step, encode; exact)."""
    n, kappa = model.n, model.kappa
    a_t = decode_index(alpha, n, kappa)
    u_t = decode_index(u, n, kappa)
    return encode_tuple(step_tuple(model, a_t, u_t), kappa)


def build_structure_matrix(model: MasModel) -> LogicalMatrix:
    """The N x N^2 logical matrix F with alpha' = F |x| u |x| alpha.

    Column (a-1)N + b is the encoded successor of state b under input a
    (the basis product delta_N^a |x| delta_N^b hits exactly that column).
    """
    nn = model.state_count
    cols = []
    for a in range(1, nn + 1):
        u_t = decode_index(LogicalVector(nn, a), model.n, model.kappa)
        for b in range(1, nn + 1):
            al_t = decode_index(LogicalVector(nn, b), model.n, model.kappa)
            nxt = encode_tuple(step_tuple(model, al_t, u_t), model.kappa)
            cols.append(nxt.index)
    return LogicalMatrix(nn, nn * nn, tuple(cols))


# ── Reference scenario loader ────────────────────────────────────────────────

def _unreadable(node, e):
    m = node.start_mark
    return yaml.constructor.ConstructorError(
        None, None, "cannot read %r as a number: %s" % (node.value.replace("_", ""), e),
        yaml.Mark(m.name, m.index, m.line, m.column, None, None))


class _LineMixin:
    """Loader mixin: each mapping a `_Map` that knows its source lines, each
    number exact or a non-finite float, and no key written twice in one
    mapping (a merged ``<<`` key may be overridden) or that is unhashable."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # SafeConstructor's own constructors build a plain dict, a float64 and any int
        cls.add_constructor("tag:yaml.org,2002:map", cls.construct_line_map)
        cls.add_constructor("tag:yaml.org,2002:float", cls.construct_exact_float)
        cls.add_constructor("tag:yaml.org,2002:int", cls.construct_exact_int)

    def __init__(self, stream):
        super().__init__(stream)
        self.numbers = {}  # float spelling -> its value, one object per spelling

    def construct_line_map(self, node):
        data = _Map()
        data.line = node.start_mark.line + 1
        yield data
        lines = {}
        for key_node, _ in node.value:
            if key_node.tag == "tag:yaml.org,2002:merge":
                continue
            # deep, so a sequence key is filled in before an error shows it
            key = self.construct_object(key_node, deep=True)
            line = key_node.start_mark.line + 1
            try:
                duplicate = key in lines
            except TypeError:
                raise yaml.constructor.ConstructorError(
                    problem="mapping key %r at line %d is not a scalar; agent-state "
                    "mapping keys must be 1-based basis indices" % (key, line)) from None
            if duplicate:
                raise yaml.constructor.ConstructorError(
                    problem="duplicate key %r at line %d, first written at line %d"
                    % (key, line, lines[key]))
            lines[key] = line
        data.lines = {k: n for k, n in lines.items() if n != data.line} or None
        data.update(self.construct_mapping(node))

    def construct_exact_float(self, node):
        text = self.construct_scalar(node).replace("_", "")
        number = self.numbers.get(text)
        if number is None:
            try:
                number = self.construct_yaml_float(node)
                if math.isfinite(number):
                    number = _Number(text if number else 0)
            except (ValueError, IndexError) as e:  # IndexError: an empty !!float
                raise _unreadable(node, e) from None
            self.numbers[text] = number
        return number

    def construct_exact_int(self, node):
        """An int, or as for a float the infinity that is its float64 image;
        a base-60 int has no reading."""
        try:
            if ":" in node.value:
                raise ValueError("invalid literal for int() with base 10: %r" % node.value)
            n = self.construct_yaml_int(node)
            float(n)  # OverflowError past float64's range
        except OverflowError:
            return math.inf if n > 0 else -math.inf
        except (ValueError, IndexError) as e:  # IndexError: an empty !!int
            raise _unreadable(node, e) from None
        return n


class LineLoader(_LineMixin, getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """The reference loader on libyaml's parser when PyYAML was built with it."""


class PythonLineLoader(_LineMixin, yaml.SafeLoader):
    """The reference loader on the pure-Python parser."""
