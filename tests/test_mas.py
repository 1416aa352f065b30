"""Finite-field agent dynamics and constrained transitions.

The worked model throughout: two agents over a 3-letter alphabet with
update (a1 + 2 a2 + u1, a1 + a2 + u2) mod 3, admissible states 1..6 and
admissible inputs {4, 5, 7, 8} everywhere.  The paper's semi-tensor
product form of the law lives in the test oracles and serves as the
reference for the library's vectorized evaluation.

Proves:
 Group 1 - modular update on tuples and basis vectors; index/digit
           helpers agree with the STP embedding
 Group 2 - structure matrix: exhaustive agreement with the direct update,
           the basis-product route gives the same column, and F equals
           the vectorized law on the worked and on random models
 Group 3 - constrained one-step reach (frozen successor sets)
 Group 4 - validation contracts
"""

import itertools
import random

import numpy as np
import pytest

from fadectrl.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    StateNotInConstraint,
    ValueOutOfDomain,
)
from fadectrl.mas import (
    ConstraintSets,
    MasModel,
    one_step_reach,
    successor_index,
    successors,
    to_digits,
    to_index,
)
from oracles import (
    LogicalVector,
    build_structure_matrix,
    decode_index,
    random_mas_instance,
    step_logical,
    step_tuple,
    stp,
    stp_basis,
    stp_logical,
)

MODEL = MasModel(2, 3, ({0: 1, 1: 2}, {0: 1, 1: 1}))
CONSTRAINTS = ConstraintSets(range(1, 7), {a: {4, 5, 7, 8} for a in range(1, 7)})

# successors of each admissible state under each admissible input,
# worked out by hand from the modular update
REACH = {
    1: (4, 5),
    2: (2, 3, 5, 6),
    3: (1, 3),
    4: (2, 3),
    5: (4, 6),
    6: (1, 2, 4, 5),
}


# ── Group 1: the modular update ──────────────────────────────────────────────

def test_step_tuple_worked_values():
    assert step_tuple(MODEL, (1, 0), (0, 0)) == (1, 1)
    assert step_tuple(MODEL, (1, 0), (2, 0)) == (0, 1)
    assert step_tuple(MODEL, (0, 2), (2, 0)) == (0, 2)  # a self-loop
    assert step_tuple(MODEL, (2, 2), (1, 1)) == (1, 2)


def test_step_tuple_validation():
    with pytest.raises(DimensionMismatch):
        step_tuple(MODEL, (1,), (0, 0))
    with pytest.raises(ValueOutOfDomain):
        step_tuple(MODEL, (1, 3), (0, 0))
    with pytest.raises(ValueOutOfDomain):
        step_tuple(MODEL, (1, 0), (0, -1))


def test_step_logical_is_encoded_tuple_step():
    for a, u in itertools.product(range(1, 10), range(1, 10)):
        av = LogicalVector(9, a)
        uv = LogicalVector(9, u)
        out = step_logical(MODEL, av, uv)
        at = decode_index(av, 2, 3)
        ut = decode_index(uv, 2, 3)
        assert decode_index(out, 2, 3) == step_tuple(MODEL, at, ut)
        assert successor_index(MODEL, a, u) == out.index


def test_digit_helpers_match_stp_embedding():
    for n, kappa in ((1, 2), (2, 3), (3, 2), (2, 4)):
        model = MasModel(n, kappa, tuple({j: 0} for j in range(n)))
        nn = kappa ** n
        idx = np.arange(1, nn + 1)
        digits = to_digits(model, idx)
        assert [tuple(d) for d in digits.tolist()] == [
            decode_index(LogicalVector(nn, i), n, kappa) for i in range(1, nn + 1)
        ]
        assert to_index(model, digits).tolist() == idx.tolist()
    assert to_index(MODEL, (1, 0)) == 4
    with pytest.raises(IndexOutOfRange):
        successors(MODEL, [1, 10], 4)
    with pytest.raises(IndexOutOfRange):
        successor_index(MODEL, 3, 0)


def test_fixed_input_update_is_a_bijection():
    # the linear part [[1, 2], [1, 1]] is invertible mod 3, so each input
    # permutes the state space
    for u in range(1, 10):
        image = {successor_index(MODEL, a, u) for a in range(1, 10)}
        assert image == set(range(1, 10))


# ── Group 2: the structure matrix ────────────────────────────────────────────

def test_structure_matrix_exhaustive():
    f = build_structure_matrix(MODEL)
    assert (f.rows, f.cols) == (9, 81)
    for a, b in itertools.product(range(1, 10), range(1, 10)):
        expect = step_logical(MODEL, LogicalVector(9, b), LogicalVector(9, a))
        assert f.col_indices[(a - 1) * 9 + (b - 1)] == expect.index


def test_structure_matrix_basis_product_route():
    f = build_structure_matrix(MODEL)
    for a, b in itertools.product(range(1, 10), range(1, 10)):
        w = stp_basis(LogicalVector(9, a), LogicalVector(9, b))
        got = stp_logical(f, w)
        assert got == step_logical(MODEL, LogicalVector(9, b), LogicalVector(9, a))


def test_structure_matrix_dense_route_samples():
    f = build_structure_matrix(MODEL).to_dense()
    for a, b in ((1, 1), (4, 7), (3, 9), (9, 2)):
        u = LogicalVector(9, a).to_dense().reshape(-1, 1)
        al = LogicalVector(9, b).to_dense().reshape(-1, 1)
        out = stp(stp(f, u), al).ravel()
        expect = step_logical(
            MODEL, LogicalVector(9, b), LogicalVector(9, a)
        ).to_dense()
        assert np.array_equal(out, expect)


def test_structure_matrix_equals_vectorized_law():
    rng = random.Random(2408)
    models = [MODEL, MasModel(3, 3, ({0: 2, 2: 1}, {1: 1, 0: 2}, {2: 0, 1: 1}))]
    models += [random_mas_instance(rng)[0] for _ in range(40)]
    for model in models:
        nn = model.state_count
        f = build_structure_matrix(model)
        # column (a-1)N + b of F is the successor of state b under input a
        inputs, states = np.divmod(np.arange(nn * nn), nn)
        got = successors(model, states + 1, inputs + 1)
        assert got.tolist() == list(f.col_indices)


# ── Group 3: constrained transitions ─────────────────────────────────────────

def test_one_step_reach_frozen_table():
    for a, expect in REACH.items():
        assert one_step_reach(MODEL, CONSTRAINTS, a) == expect


# ── Group 4: validation ──────────────────────────────────────────────────────

def test_model_validation():
    with pytest.raises(ValueOutOfDomain):
        MasModel(2, 3, ({1: 1}, {0: 1, 1: 1}))  # missing self weight
    with pytest.raises(IndexOutOfRange):
        MasModel(2, 3, ({0: 1, 2: 1}, {1: 1}))
    with pytest.raises(ValueOutOfDomain):
        MasModel(2, 3, ({0: 3}, {1: 1}))
    with pytest.raises(ValueOutOfDomain):
        MasModel(2, 1, ({0: 0}, {1: 0}))
    with pytest.raises(DimensionMismatch):
        MasModel(2, 3, ({0: 1},))
    with pytest.raises(DimensionMismatch):
        MasModel(64, 2, tuple({j: 1} for j in range(64)))  # 2^64 states


def test_model_neighbors():
    assert MODEL.state_count == 9


def test_constraint_sets_validation():
    with pytest.raises(ValueOutOfDomain):
        ConstraintSets(frozenset(), {})
    with pytest.raises(DimensionMismatch):
        ConstraintSets(frozenset({1, 2}), {1: {4}})
    with pytest.raises(ValueOutOfDomain):
        ConstraintSets(frozenset({1}), {1: set()})
    with pytest.raises(StateNotInConstraint):
        CONSTRAINTS.inputs_for(7)


def test_per_state_input_map():
    cs = ConstraintSets(frozenset({1, 2}), {1: {4, 5}, 2: {7}})
    assert cs.inputs_for(1) == frozenset({4, 5})
    assert cs.inputs_for(2) == frozenset({7})
