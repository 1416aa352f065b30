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
place the law is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    StateNotInConstraint,
    ValueOutOfDomain,
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
    return (idx[..., None] - 1) // model.place_values % model.kappa


def to_index(model: MasModel, digits) -> np.ndarray:
    """1-based indices of value tuples (..., n); the inverse of to_digits."""
    return np.asarray(digits, dtype=np.int64) @ model.place_values + 1


def successors(model: MasModel, states, inputs) -> np.ndarray:
    """Next-state indices of paired (broadcast) 1-based state/input indices."""
    nxt = to_digits(model, states) @ model.weight_matrix.T + to_digits(model, inputs)
    return to_index(model, nxt % model.kappa)


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


def one_step_reach(model: MasModel, constraints: ConstraintSets, a: int) -> tuple:
    """Sorted admissible one-step successors of a that stay in C_alpha."""
    nxt = successors(model, a, sorted(constraints.inputs_for(a))).tolist()
    return tuple(sorted(constraints.state_set.intersection(nxt)))
