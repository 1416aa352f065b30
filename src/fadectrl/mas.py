"""Finite-field multi-agent dynamics.

Each of n agents holds a value in {0,...,kappa-1} and updates by a
weighted modular sum over its in-neighbourhood plus a local input:

    alpha_j(k+1) = ( sum_{l in I_j u {j}} a_{j,l} alpha_l(k) + u_j(k) ) mod kappa.

Joint states and inputs are 1-based indices into the N = kappa^n value
tuples, leftmost coordinate most significant:

    (v1, ..., vn)  <->  index 1 + sum_j v_j * kappa^(n-j).

The paper writes the same law in semi-tensor-product form, as one
N x N^2 logical matrix F with alpha(k+1) = F |x| u(k) |x| alpha(k); here
it is evaluated directly on arrays of indices by `successors`, the only
place the law is computed.  Since the input enters as a digit-wise sum
mod kappa, u -> successor is a bijection for each state: distinct inputs
reach distinct successors, so one input realizes each (state, successor)
pair.  Every set-level question (the one-step reach of a set of states,
the edges of a graph) is asked of one `successors` call over all the
admissible (state, input) pairs it needs.

A `Schedule` is an eventually periodic input sequence; `_replay_slow`
walks the law under it from a scenario's start state, checking every
input and state against the constraints, until the walk repeats itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InitialStateViolatesConstraint,
    ParseError,
    ScheduleViolation,
    StateNotInConstraint,
    ValueOutOfDomain,
    ValueOutOfRange,
)

INDEX_MAX = np.iinfo(np.int64).max


def require_index_range(n: int, kappa: int):
    """Raise DimensionMismatch unless the kappa^n joint states of n agents
    over kappa >= 2 values, and the n kappa^2 bound of one successor's digit
    sum, fit 64-bit index arithmetic.  2^64 already overflows, so kappa ** n
    is formed only for n < 64."""
    if n >= 64 or max(kappa ** n, n * kappa ** 2) > INDEX_MAX:
        raise DimensionMismatch(
            "%d agents over %d values overflow 64-bit index arithmetic" % (n, kappa)
        )


@dataclass(frozen=True)
class MasModel:
    """n agents over {0..kappa-1}; weights[j] maps l -> a_{j,l} (0-based).

    Every agent must carry its own self weight (a_{j,j}, possibly 0);
    the remaining keys of weights[j] are exactly its in-neighbours.
    """

    n: int
    kappa: int
    weights: tuple  # tuple of dicts, one per agent

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("need at least one agent, got %d" % self.n)
        if self.kappa < 2:
            raise ValueOutOfDomain("kappa must be >= 2, got %d" % self.kappa)
        if len(self.weights) != self.n:
            raise DimensionMismatch(
                "%d weight maps for %d agents" % (len(self.weights), self.n)
            )
        for j, wmap in enumerate(self.weights):
            if j not in wmap:
                raise ValueOutOfDomain("agent %d is missing its self weight" % j)
            for l, a in wmap.items():
                if not 0 <= l < self.n:
                    raise IndexOutOfRange(
                        "agent %d references neighbour %d outside 0..%d"
                        % (j, l, self.n - 1)
                    )
                if not 0 <= a < self.kappa:
                    raise ValueOutOfDomain(
                        "weight a[%d,%d] = %d outside 0..%d"
                        % (j, l, a, self.kappa - 1)
                    )
        require_index_range(self.n, self.kappa)

    @property
    def state_count(self) -> int:
        return self.kappa ** self.n

    @cached_property
    def weight_matrix(self) -> np.ndarray:
        """n x n integer matrix with entry [j, l] = a_{j,l} (0 off-neighbourhood)."""
        w = np.zeros((self.n, self.n), dtype=np.int64)
        for j, wmap in enumerate(self.weights):
            for l, a in wmap.items():
                w[j, l] = a
        return w

    @cached_property
    def place_values(self) -> np.ndarray:
        """kappa^(n-1), ..., kappa, 1: the weight of each tuple coordinate."""
        return self.kappa ** np.arange(self.n - 1, -1, -1, dtype=np.int64)


def to_digits(model: MasModel, indices) -> np.ndarray:
    """Value tuples, shape (..., n), of 1-based state or input indices."""
    idx = np.asarray(indices, dtype=np.int64)
    bad = idx[(idx < 1) | (idx > model.state_count)]
    if bad.size:
        raise IndexOutOfRange(
            "basis index %d outside 1..%d" % (bad.flat[0], model.state_count)
        )
    digits = (idx[..., None] - 1) // model.place_values
    digits %= model.kappa
    return digits


def to_index(model: MasModel, digits) -> np.ndarray:
    """1-based indices of value tuples (..., n); the inverse of to_digits."""
    return np.asarray(digits, dtype=np.int64) @ model.place_values + 1


def successors(model: MasModel, states, inputs) -> np.ndarray:
    """Next-state indices of paired (broadcast) 1-based state/input indices.
    The digit arithmetic runs in place, so a call over P pairs holds about
    two (P, n) arrays at once."""
    states, inputs = np.broadcast_arrays(np.asarray(states, dtype=np.int64),
                                         np.asarray(inputs, dtype=np.int64))
    nxt = to_digits(model, states) @ model.weight_matrix.T
    nxt += to_digits(model, inputs)
    nxt %= model.kappa
    return to_index(model, nxt)


def successor_index(model: MasModel, a: int, u: int) -> int:
    """Next-state index for state index a under input index u."""
    return int(successors(model, a, u))


@dataclass(frozen=True)
class ConstraintSets:
    """Admissible state set C_alpha and per-state admissible inputs C_u."""

    state_set: frozenset
    input_map: dict = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "state_set", frozenset(self.state_set))
        object.__setattr__(
            self, "input_map",
            {int(a): frozenset(us) for a, us in self.input_map.items()},
        )
        if not self.state_set:
            raise ValueOutOfDomain("state constraint set is empty")
        if set(self.input_map) != set(self.state_set):
            raise DimensionMismatch(
                "input map keys must be exactly the admissible states"
            )
        for a, us in self.input_map.items():
            if not us:
                raise ValueOutOfDomain("state %d has an empty input set" % a)

    def inputs_for(self, a: int) -> frozenset:
        try:
            return self.input_map[a]
        except KeyError:
            raise StateNotInConstraint(
                "state %d outside the admissible state set" % a
            ) from None


def admissible_pairs(constraints: ConstraintSets, states) -> tuple:
    """(sources, inputs): every admissible (state, input) pair of the given
    states as two int64 arrays, grouped by state in the given order."""
    sets = [constraints.inputs_for(a) for a in states]
    counts = np.fromiter(map(len, sets), np.int64, len(sets))
    sources = np.repeat(np.asarray(states, dtype=np.int64), counts)
    inputs = np.fromiter(itertools.chain.from_iterable(sets), np.int64, len(sources))
    return sources, inputs


def one_step_reach(model: MasModel, constraints: ConstraintSets, states) -> dict:
    """{a: sorted admissible one-step successors of a that stay in C_alpha}
    for every given state, ascending, from one `successors` call over
    their admissible (state, input) pairs."""
    states = sorted(set(states))
    src, inp = admissible_pairs(constraints, states)
    nxt = successors(model, src, inp)
    keep = np.isin(nxt, np.fromiter(constraints.state_set, np.int64,
                                    len(constraints.state_set)))
    src, nxt = src[keep], nxt[keep]
    order = np.lexsort((nxt, src))
    src, nxt = src[order], nxt[order].tolist()
    bounds = np.searchsorted(src, states, side="right").tolist()
    return {a: tuple(nxt[lo:hi]) for a, lo, hi in zip(states, [0] + bounds, bounds)}


def _require_int(value, field: str) -> int:
    """value as an int: a Python or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueOutOfRange("%s must be an integer, got %r" % (field, value))
    return int(value)


@dataclass(frozen=True)
class Schedule:
    """Eventually periodic input sequence: prefix once, then the cycle.
    Inputs and alpha0 are integers (Python or numpy, not bool); anything
    else is a ValueOutOfRange naming its field."""

    prefix_inputs: tuple
    cycle_inputs: tuple
    alpha0: int = 0  # 0 = unspecified; otherwise must match the scenario

    def __post_init__(self):
        for name in ("prefix_inputs", "cycle_inputs"):
            object.__setattr__(self, name, tuple(
                _require_int(u, "%s[%d]" % (name, i))
                for i, u in enumerate(getattr(self, name))))
        object.__setattr__(self, "alpha0", _require_int(self.alpha0, "alpha0"))
        if not self.cycle_inputs:
            raise ValueOutOfRange("schedule needs a nonempty cycle")

    def input_at(self, k: int) -> int:
        if k < len(self.prefix_inputs):
            return self.prefix_inputs[k]
        return self.cycle_inputs[(k - len(self.prefix_inputs)) % len(self.cycle_inputs)]

    def to_dict(self) -> dict:
        return {
            "alpha0": self.alpha0,
            "prefix_inputs": list(self.prefix_inputs),
            "cycle_inputs": list(self.cycle_inputs),
        }

    @staticmethod
    def from_dict(d) -> "Schedule":
        """Schedule from its JSON form (an object of the integer lists
        prefix_inputs and cycle_inputs and an integer alpha0, and no other
        key); ParseError names the first malformed or unknown field."""
        if not isinstance(d, dict):
            raise ParseError("schedule must be a JSON object, got %s" % type(d).__name__)
        unknown = [key for key in d if key not in ("alpha0", "prefix_inputs", "cycle_inputs")]
        if unknown:
            raise ParseError("schedule has an unknown key %r" % unknown[0])
        if "cycle_inputs" not in d:
            raise ParseError("schedule has no 'cycle_inputs'")
        inputs = {key: d.get(key, []) for key in ("prefix_inputs", "cycle_inputs")}
        for key, values in inputs.items():
            if not isinstance(values, list):
                raise ParseError("'%s' must be a list" % key)
        if not inputs["cycle_inputs"]:
            raise ParseError("'cycle_inputs' must not be empty")
        try:
            return Schedule(inputs["prefix_inputs"], inputs["cycle_inputs"], d.get("alpha0", 0))
        except ValueOutOfRange as e:  # a non-integer, named by its field
            raise ParseError(str(e)) from None


def _replay_slow(scenario, schedule: Schedule, n_slow: int):
    """Agent states and inputs for slow steps 0..n_slow-1, validated.

    The law is walked over the prefix, then over whole passes of the cycle,
    until a pass starts in a state that an earlier pass started in: from
    that earlier pass on, states and inputs repeat with the passes between,
    so the rest is tiled from them.  Every (state, input) pair of the run
    is walked and checked once, in at most |prefix| + |cycle| x |admissible
    states| steps whatever n_slow."""
    constraints = scenario.constraints
    alpha = scenario.alpha0
    if alpha not in constraints.state_set:
        raise InitialStateViolatesConstraint(
            "initial agent state %d outside the admissible set" % alpha
        )
    if schedule.alpha0 and schedule.alpha0 != alpha:
        raise ScheduleViolation(
            "schedule was synthesized for start state %d, scenario starts at %d"
            % (schedule.alpha0, alpha)
        )
    prefix, cycle = len(schedule.prefix_inputs), len(schedule.cycle_inputs)
    states, inputs = [], []
    passes = {}  # the state each cycle pass started in -> its first slow step
    for k in range(n_slow):
        if k >= prefix and (k - prefix) % cycle == 0:
            if alpha in passes:
                break
            passes[alpha] = k
        u = schedule.input_at(k)
        if u not in constraints.inputs_for(alpha):
            raise ScheduleViolation(
                "input %d at slow step %d not admissible in state %d" % (u, k, alpha)
            )
        states.append(alpha)
        inputs.append(u)
        alpha = successor_index(scenario.mas, alpha, u)
        if alpha not in constraints.state_set:
            raise ScheduleViolation(
                "schedule leaves the admissible state set at slow step %d "
                "(state %d)" % (k + 1, alpha)
            )
    else:
        return tuple(states), tuple(inputs)
    first = passes[alpha]
    repeats, rest = divmod(n_slow - first, k - first)

    def tile(seq):
        return tuple(seq[:first]) + tuple(seq[first:]) * repeats + tuple(seq[first : first + rest])

    return tile(states), tile(inputs)
