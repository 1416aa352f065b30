"""Finite-field agent dynamics and constrained transitions.

The worked model throughout: two agents over a 3-letter alphabet with
update (a1 + 2 a2 + u1, a1 + a2 + u2) mod 3, admissible states 1..6 and
admissible inputs {4, 5, 7, 8} everywhere.  The paper's semi-tensor
product form of the law lives in the test oracles and serves as the
reference for the library's vectorized evaluation.

Proves:
 Group 1 - modular update on tuples and basis vectors; index/digit
           helpers agree with the STP embedding; on any model, distinct
           inputs steer a state to distinct successors
 Group 2 - structure matrix: exhaustive agreement with the direct update,
           the basis-product route gives the same column, and F equals
           the vectorized law on the worked and on random models
 Group 3 - constrained one-step reach: the frozen successor sets, and the
           batched call equal to the per-state reference on any subset
 Group 4 - validation contracts
 Group 5 - schedules: integer inputs and start state only, no unknown key
           in the JSON form, replayed under the constraints; the tiled
           replay equal to the one-step-at-a-time oracle, its errors
           included, on any model, schedule and length, also where a cycle
           pass ends elsewhere than it started or the passes reach their
           loop after a transient, and walking a bounded number of steps
           whatever the length
"""

import itertools
import random
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fadectrl.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    ParseError,
    ScheduleViolation,
    StateNotInConstraint,
    ValueOutOfDomain,
    ValueOutOfRange,
)
from fadectrl.mas import (
    ConstraintSets,
    MasModel,
    Schedule,
    _replay_slow,
    admissible_pairs,
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
    reach_of,
    step_logical,
    step_tuple,
    stepwise_replay,
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


@st.composite
def mas_models(draw):
    """Any weight map of up to 4 agents over up to 5 values, N <= 125,
    singular ones included."""
    n = draw(st.integers(1, 4))
    kappa = draw(st.integers(2, (5, 5, 5, 3)[n - 1]))
    weights = []
    for j in range(n):
        wmap = {j: draw(st.integers(0, kappa - 1))}
        for l in range(n):
            if l != j and draw(st.booleans()):
                wmap[l] = draw(st.integers(0, kappa - 1))
        weights.append(wmap)
    return MasModel(n, kappa, tuple(weights))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mas_models())
def test_distinct_inputs_steer_a_state_to_distinct_successors(model):
    # the input enters as a digit-wise sum mod kappa, so for each state
    # u -> successor is a bijection whatever the weights: one input realizes
    # each (state, successor) pair, which the edge builder relies on
    idx = np.arange(1, model.state_count + 1)
    nxt = successors(model, idx[:, None], idx[None, :])
    assert (np.sort(nxt, axis=1) == idx).all()


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
    assert one_step_reach(MODEL, CONSTRAINTS, REACH) == REACH
    assert list(one_step_reach(MODEL, CONSTRAINTS, {6, 1, 3})) == [1, 3, 6]
    assert one_step_reach(MODEL, CONSTRAINTS, [5, 5]) == {5: REACH[5]}
    assert one_step_reach(MODEL, CONSTRAINTS, ()) == {}
    for a, expect in REACH.items():
        assert reach_of(MODEL, CONSTRAINTS, a) == expect


def test_one_step_reach_is_one_successor_call(monkeypatch):
    import fadectrl.mas as mas

    calls = []

    def counted(*args):
        calls.append(args)
        return successors(*args)

    monkeypatch.setattr(mas, "successors", counted)
    assert one_step_reach(MODEL, CONSTRAINTS, range(1, 7)) == REACH
    assert len(calls) == 1


def test_one_step_reach_rejects_an_inadmissible_state():
    with pytest.raises(StateNotInConstraint):
        one_step_reach(MODEL, CONSTRAINTS, (1, 7))


def test_admissible_pairs_cover_each_state_input_once():
    cs = ConstraintSets(frozenset({1, 2}), {1: {4, 5}, 2: {7}})
    src, inp = admissible_pairs(cs, (2, 1))
    assert src.tolist() == [2, 1, 1]
    assert sorted(zip(src.tolist(), inp.tolist())) == [(1, 4), (1, 5), (2, 7)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32), st.data())
def test_batched_reach_equals_per_state_reference(seed, data):
    model, constraints, _ = random_mas_instance(random.Random(seed))
    states = data.draw(st.sets(st.sampled_from(sorted(constraints.state_set))))
    got = one_step_reach(model, constraints, states)
    assert got == {a: reach_of(model, constraints, a) for a in sorted(states)}
    assert list(got) == sorted(states)


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


# ── Group 5: schedules ───────────────────────────────────────────────────────

def test_schedule_keeps_integer_inputs_as_ints():
    sched = Schedule(np.array([7, 8]), (np.int32(4),), np.int64(4))
    assert sched == Schedule((7, 8), (4,), 4)
    assert all(type(u) is int for u in sched.prefix_inputs + sched.cycle_inputs)
    assert type(sched.alpha0) is int


@pytest.mark.parametrize("args, field", [
    (((7.9,), (4,), 4), "prefix_inputs[0]"),  # was replayed as input 7
    (((), (True,)), "cycle_inputs[0]"),        # was replayed as input 1
    (((), (4, "x")), "cycle_inputs[1]"),       # was a bare ValueError
    (((), (4,), 4.0), "alpha0"),               # was never checked
    (((), (4,), None), "alpha0"),
    (((), (4,), np.bool_(True)), "alpha0"),
])
def test_schedule_rejects_non_integers_naming_the_field(args, field):
    with pytest.raises(ValueOutOfRange, match=r"^%s must be an integer, got " % re.escape(field)):
        Schedule(*args)


def test_schedule_json_form_still_raises_parse_errors():
    with pytest.raises(ParseError, match=r"^cycle_inputs\[0\] must be an integer"):
        Schedule.from_dict({"cycle_inputs": [1.5]})
    with pytest.raises(ParseError, match=r"^alpha0 must be an integer"):
        Schedule.from_dict({"cycle_inputs": [1], "alpha0": True})


def test_schedule_json_form_rejects_an_unknown_key():
    # a misspelt "prefix_inputs" used to leave the prefix empty, silently
    with pytest.raises(ParseError, match=r"^schedule has an unknown key 'prefix_input'$"):
        Schedule.from_dict({"prefix_input": [7], "cycle_inputs": [7], "alpha0": 4})
    sched = Schedule((8,), (7,), 4)
    assert Schedule.from_dict(sched.to_dict()) == sched


def test_replay_walks_the_law_and_checks_the_constraints():
    scn = type("Scn", (), {"mas": MODEL, "constraints": CONSTRAINTS, "alpha0": 4})
    states, inputs = _replay_slow(scn, Schedule((8,), (7,), 4), 3)
    assert inputs == (8, 7, 7)
    assert states == (4, successor_index(MODEL, 4, 8),
                      successor_index(MODEL, successor_index(MODEL, 4, 8), 7))
    with pytest.raises(ScheduleViolation, match="start state 5"):
        _replay_slow(scn, Schedule((), (7,), 5), 1)
    with pytest.raises(ScheduleViolation, match="not admissible"):
        _replay_slow(scn, Schedule((), (1,)), 1)


def _replay_outcome(replay, scn, schedule, n_slow):
    try:
        return replay(scn, schedule, n_slow)
    except ScheduleViolation as e:
        return type(e), str(e)


@st.composite
def _replay_cases(draw):
    """(scenario, schedule, n_slow) on a small model: inputs mostly
    admissible, every state admissible half of the time."""
    n, kappa = draw(st.sampled_from([(1, 2), (1, 4), (1, 5), (2, 2), (2, 3)]))
    weights = tuple({l: draw(st.integers(0, kappa - 1)) for l in range(n)} for _ in range(n))
    model = MasModel(n, kappa, weights)
    every = range(1, model.state_count + 1)
    states = every if draw(st.booleans()) else draw(st.sets(st.sampled_from(every), min_size=1))
    inputs = draw(st.sets(st.sampled_from(every), min_size=1))
    alpha0 = draw(st.sampled_from(sorted(states)))
    pick = st.sampled_from(sorted(inputs)) | st.sampled_from(every)
    schedule = Schedule(draw(st.lists(pick, max_size=4)), draw(st.lists(pick, min_size=1, max_size=4)),
                        alpha0)
    scn = SimpleNamespace(mas=model, constraints=ConstraintSets(states, {a: inputs for a in states}),
                          alpha0=alpha0)
    return scn, schedule, draw(st.integers(0, 60))


# one agent over 5 values, alpha' = alpha + u: each pass of the cycle moves
# the value on by one, so the passes start in 5 states before one repeats
ROTATING = SimpleNamespace(mas=MasModel(1, 5, ({0: 1},)),
                           constraints=ConstraintSets(range(1, 6), {a: range(1, 6) for a in range(1, 6)}),
                           alpha0=1)
# one agent over 4 values, alpha' = 2 alpha + u: under u = 1 (input 2) the
# values run 0, 1, 3, 3, .., a transient of two passes into a loop of one
DOUBLING = SimpleNamespace(mas=MasModel(1, 4, ({0: 2},)),
                           constraints=ConstraintSets(range(1, 5), {a: range(1, 5) for a in range(1, 5)}),
                           alpha0=1)


@settings(max_examples=300, deadline=None)
@given(case=_replay_cases())
@example(case=(ROTATING, Schedule((), (2, 1), 1), 37))
@example(case=(DOUBLING, Schedule((3,), (2,), 1), 9))
def test_tiled_replay_equals_the_stepwise_replay(case):
    assert _replay_outcome(_replay_slow, *case) == _replay_outcome(stepwise_replay, *case)


@pytest.mark.parametrize("scn, schedule, passes", [
    (ROTATING, Schedule((), (2, 1), 1), 5),     # no pass returns to its start
    (ROTATING, Schedule((4,), (2, 2, 1), 1), 5),
    (DOUBLING, Schedule((), (2,), 1), 3),       # a transient before the loop
    (DOUBLING, Schedule((1, 1), (2,), 1), 3),
    # state 4, then state 3's self-loop: each pass returns to its start
    (SimpleNamespace(mas=MODEL, constraints=CONSTRAINTS, alpha0=4), Schedule((8,), (7,), 4), 1),
])
def test_replay_walks_each_pass_once_whatever_the_length(scn, schedule, passes, monkeypatch):
    # the walk stops at the first pass whose start repeats: its prefix and
    # `passes` passes, then the rest is tiled, for a thousand slow steps as
    # for a million
    import fadectrl.mas as mas

    calls = []
    monkeypatch.setattr(mas, "successor_index", lambda *a: calls.append(a) or successor_index(*a))
    walked = len(schedule.prefix_inputs) + passes * len(schedule.cycle_inputs)
    want = stepwise_replay(scn, schedule, 1000)
    assert _replay_slow(scn, schedule, 1000) == want and len(calls) == walked
    states, inputs = _replay_slow(scn, schedule, 10**6)
    assert len(calls) == 2 * walked
    # the tiled run follows the schedule and the law at every step
    assert len(states) == len(inputs) == 10**6 and states[:1000] == want[0]
    assert all(inputs[k] == schedule.input_at(k) for k in range(0, 10**6, 997))
    assert np.array_equal(successors(scn.mas, states[:-1], inputs[:-1]), states[1:])
