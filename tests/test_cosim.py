"""Monte-Carlo co-simulation.

Proves:
 Group 1 - counter RNG: determinism, stream separation, value ranges,
           agreement with an integer recomputation, block calls over an
           array of steps and fused calls over paired (stream, draw) arrays
           equal to the stacked single calls, a plant's one call per block
           equal to its per-stream deliveries and Box-Muller normals for
           dims 1-3, an odd normal count the prefix of the next even one,
           and a block of 64 steps up to 256 trials and about 2**14
           trial-steps past that
 Group 2 - schedules: indexing, serialization, validation
 Group 3 - simulate: bit-exact reproducibility, a fully deterministic
           closed-form case, delivery rates from the per-step delivery
           counts, trace bookkeeping, agreement with the one-step-at-a-time,
           full-trajectory oracle across block boundaries (trial 0's paths
           and deliveries, every step's delivery count and the cost
           exactly, streamed decay statistics to 1e-12, check verdicts
           exactly), at 101 trials and on the shorter blocks of 1031
           trials, also for a 3-dim plant with correlated noise and a
           scalar plant with a non-unit noise factor, and for a 2-dim plant
           with an explicit non-diagonal quality weight and a scalar one
           with Q = 2.5, no numpy warning at one or two trials, memory
           whose growth per step does not depend on the trials, and a
           working set within one budget at 1000 and 4000 trials over 2000
           steps (both measured in-process, where tracemalloc sees every
           plant); trial 0's path starts at the document's initial plant
           states; each oracle comparison also runs with the plants in
           forked workers and gets the same bytes
 Group 3b - plants in forked workers: the same trace bytes as in-process
           on the bundled cell and on three plants over 1, 2 and 3 CPUs,
           and five tasks' results back in task order when a worker takes
           two; no process left behind after a success, a worker's error or
           this process's own error, and an interrupt here kills a worker
           at once; a worker's error reaches the caller as its type and
           message (numpy-style allocation errors as MemoryError), its
           warnings reach the caller, and it prints nothing; stderr is the
           same over 1, 2 and 3 CPUs where every plant warns at the same
           lines; a worker exits on a broken pipe
 Group 4 - running cost: exact cycle averages for the worked example
 Group 5 - the empirical decay check passes where delivery is rich
           enough and fails where the schedule starves a link; below 100
           trials, or with no step past the cycle entry, it raises the
           reason the CLI prints for skipping it
 Group 6 - CSV export determinism, and a peak that does not grow with
           the horizon
"""

import dataclasses
import functools
import io
import os
import sys
import time
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fadectrl.cosim as cosim
from fadectrl.cosim import (
    MIN_CHECK_TRIALS,
    Schedule,
    SimConfig,
    _plant_draws,
    block_steps,
    counter_uniforms,
    empirical_lyapunov_check,
    simulate,
    write_trace_csv,
)
from fadectrl.errors import (
    DimensionMismatch,
    InsufficientTrials,
    ParseError,
    PreconditionViolated,
    ScheduleViolation,
    ValueOutOfRange,
)
from fadectrl.scenario import load_scenario_text
from oracles import (
    average_cost_trace,
    counter_normals,
    full_lyapunov_check,
    integer_uniforms,
    stepwise_simulate,
)

OPTIMAL = Schedule(prefix_inputs=(), cycle_inputs=(7, 7, 4, 7), alpha0=4)
# reaches the self-loop at state 2 and stays: long-run mean 27/40
SELF_LOOP = Schedule(prefix_inputs=(7,), cycle_inputs=(4,), alpha0=4)
# parks on state 3 where link 1's success probability is far below its
# threshold: the decay check must catch plant 1 and clear plant 2
STARVING = Schedule(prefix_inputs=(8,), cycle_inputs=(7,), alpha0=4)
# stays on state 1 of a one-agent scenario
STAY = Schedule((), (1,), 1)

SURE_DELIVERY = """\
name: sure delivery probe
fast_steps_per_slow: 4

plants:
  - name: probe
    a_closed: 0.5
    a_open: 2.0
    quality_weight: 1.0
    decay_rate: 0.9
    noise_cov: 0.0
    power_price: 0.25

agents:
  count: 1
  kappa: 2
  weights:
    1: {1: 1}
  initial_state: [0]

constraints:
  states: [1]
  inputs: [[0]]

channel:
  local_states: 1
  transmit_policy:
    - [1]
  fading:
    1: {decode: [1.0], dist: [[1.0]]}

cost:
  input_weight: 0
  input_costs: [3, 3]

simulation:
  initial_plant_states: [[1.0]]
"""

# a 3-dim plant with correlated noise (two uniform pairs per step, the last
# sine unused) and a scalar plant whose noise factor sqrt(2) is not 1; both
# links deliver with fixed probabilities strictly between 0 and 1
MIXED_PLANTS = """\
name: mixed plant probe
fast_steps_per_slow: 5

plants:
  - name: cart
    a_closed: [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]]
    a_open: [[1.1, 0.3, 0.0], [0.0, 0.9, 0.4], [0.2, 0.1, 1.0]]
    quality_weight: lyapunov
    decay_rate: 0.9
    noise_cov: [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 0.5]]
    power_price: 0.25
  - name: belt
    a_closed: 0.3
    a_open: -1.2
    quality_weight: 1.0
    decay_rate: 0.9
    noise_cov: 2.0
    power_price: 0.5

agents:
  count: 1
  kappa: 2
  weights:
    1: {1: 1}
  initial_state: [0]

constraints:
  states: [1]
  inputs: [[0]]

channel:
  local_states: 1
  transmit_policy:
    - [1]
    - [1]
  fading:
    1: {decode: [0.6, 0.7], dist: [[1.0], [1.0]]}

cost:
  input_weight: 0
  input_costs: [3, 3]

simulation:
  initial_plant_states: [[1.0, -1.0, 0.5], [2.0]]
"""

# quality weights given explicitly: a non-diagonal Q for a 2-dim plant and
# Q = 2.5 for a scalar one, so a V that drops or misreads Q shows in the
# decay statistics
QUALITY_WEIGHTS = """\
name: quality weight probe
fast_steps_per_slow: 3

plants:
  - name: arm
    a_closed: [[0.4, 0.2], [-0.1, 0.5]]
    a_open: [[1.2, 0.3], [0.2, 0.9]]
    quality_weight: [[2.0, 0.7], [0.7, 1.5]]
    decay_rate: 0.9
    noise_cov: identity
    power_price: 0.25
  - name: belt
    a_closed: 0.3
    a_open: -1.2
    quality_weight: 2.5
    decay_rate: 0.9
    noise_cov: 0.5
    power_price: 0.5

agents:
  count: 1
  kappa: 2
  weights:
    1: {1: 1}
  initial_state: [0]

constraints:
  states: [1]
  inputs: [[0]]

channel:
  local_states: 1
  transmit_policy:
    - [1]
    - [1]
  fading:
    1: {decode: [0.6, 0.7], dist: [[1.0], [1.0]]}

cost:
  input_weight: 0
  input_costs: [3, 3]

simulation:
  initial_plant_states: [[1.0, -1.0], [2.0]]
"""


# three plants, so that plants dealt over two processes share one and over
# three get one each
THREE_PLANTS = """\
name: three plant probe
fast_steps_per_slow: 5

plants:
  - name: cart
    a_closed: [[0.5, 0.1, 0.0], [0.0, 0.4, 0.2], [0.1, 0.0, 0.3]]
    a_open: [[1.1, 0.3, 0.0], [0.0, 0.9, 0.4], [0.2, 0.1, 1.0]]
    quality_weight: lyapunov
    decay_rate: 0.9
    noise_cov: [[2.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 0.5]]
    power_price: 0.25
  - name: belt
    a_closed: 0.3
    a_open: -1.2
    quality_weight: 1.0
    decay_rate: 0.9
    noise_cov: 2.0
    power_price: 0.5
  - name: lift
    a_closed: [[0.2, 0.1], [0.0, 0.6]]
    a_open: [[1.3, 0.0], [0.4, 0.8]]
    quality_weight: [[1.0, 0.2], [0.2, 3.0]]
    decay_rate: 0.9
    noise_cov: [[0.5, 0.1], [0.1, 0.25]]
    power_price: 0.75

agents:
  count: 1
  kappa: 2
  weights:
    1: {1: 1}
  initial_state: [0]

constraints:
  states: [1]
  inputs: [[0]]

channel:
  local_states: 1
  transmit_policy:
    - [1]
    - [1]
    - [1]
  fading:
    1: {decode: [0.6, 0.7, 0.8], dist: [[1.0], [1.0], [1.0]]}

cost:
  input_weight: 0
  input_costs: [3, 3]

simulation:
  initial_plant_states: [[1.0, -1.0, 0.5], [2.0], [-0.5, 1.5]]
"""

# ── Group 1: counter RNG ─────────────────────────────────────────────────────

def test_uniforms_deterministic_and_in_range():
    a = counter_uniforms(9, 2, 5, 0, 1000)
    b = counter_uniforms(9, 2, 5, 0, 1000)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.shape == (1000,)
    assert np.all(a > 0.0) and np.all(a <= 1.0)


def test_uniform_streams_are_separated():
    base = counter_uniforms(9, 2, 5, 0, 256)
    for other in (
        counter_uniforms(10, 2, 5, 0, 256),  # seed
        counter_uniforms(9, 3, 5, 0, 256),   # stream
        counter_uniforms(9, 2, 6, 0, 256),   # step
        counter_uniforms(9, 2, 5, 1, 256),   # draw
    ):
        assert not np.array_equal(base, other)


def test_normals_shape_and_moments():
    z = counter_normals(7, 1, 0, 3, 4000)
    assert z.shape == (4000, 3)
    assert np.array_equal(z, counter_normals(7, 1, 0, 3, 4000))
    assert abs(z.mean()) < 0.05
    assert abs(z.var() - 1.0) < 0.05


def test_uniforms_match_integer_recomputation():
    for seed, stream, step, draw in ((0, 0, 0, 0), (9, 2, 5, 0), (2**64 - 1, 3, 7999, 1)):
        assert counter_uniforms(seed, stream, step, draw, 5).tolist() == integer_uniforms(
            seed, stream, step, draw, 5)


def test_step_must_be_a_scalar_or_a_vector():
    with pytest.raises(DimensionMismatch):
        counter_uniforms(1, 0, np.zeros((2, 2), dtype=np.int64), 0, 3)


SEEDS = st.integers(0, 2**64 - 1)
STEP_ARRAYS = st.lists(st.integers(0, 2**62), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, stream=st.integers(0, 9), draw=st.integers(0, 9),
       steps=STEP_ARRAYS, trials=st.integers(1, 9))
@example(seed=0, stream=0, draw=0, steps=[0], trials=1)
@example(seed=2**64 - 1, stream=3, draw=1, steps=[2**62, 0, 2**62], trials=4)
def test_block_uniforms_equal_stacked_scalar_calls(seed, stream, draw, steps, trials):
    block = counter_uniforms(seed, stream, np.array(steps), draw, trials)
    stacked = np.stack([counter_uniforms(seed, stream, l, draw, trials) for l in steps])
    assert block.shape == (len(steps), trials) and block.dtype == np.float64
    assert block.tobytes() == stacked.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, stream=st.integers(0, 9), steps=STEP_ARRAYS,
       count=st.integers(1, 5), trials=st.integers(1, 9))
@example(seed=0, stream=0, steps=[0], count=1, trials=1)
@example(seed=2**64 - 1, stream=1, steps=[5, 5, 2**62], count=3, trials=2)
def test_block_normals_equal_stacked_scalar_calls(seed, stream, steps, count, trials):
    block = counter_normals(seed, stream, np.array(steps), count, trials)
    stacked = np.stack([counter_normals(seed, stream, l, count, trials) for l in steps])
    assert block.shape == (len(steps), trials, count)
    assert block.tobytes() == stacked.tobytes()


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, pairs=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)),
                                  min_size=1, max_size=5),
       steps=STEP_ARRAYS, trials=st.integers(1, 9))
@example(seed=2**64 - 1, pairs=[(2, 0), (3, 0), (3, 1)], steps=[2**62, 0], trials=3)
def test_paired_substreams_equal_single_substream_calls(seed, pairs, steps, trials):
    streams, draws = (list(c) for c in zip(*pairs))
    fused = counter_uniforms(seed, streams, np.array(steps), draws, trials)
    single = np.stack([counter_uniforms(seed, c, np.array(steps), d, trials) for c, d in pairs])
    assert fused.shape == (len(pairs), len(steps), trials)
    assert fused.tobytes() == single.tobytes()
    assert counter_uniforms(seed, streams, steps[0], draws, trials).tobytes() == \
        np.ascontiguousarray(single[:, 0]).tobytes()


def test_substreams_must_pair_up():
    with pytest.raises(DimensionMismatch):
        counter_uniforms(1, [0, 1], 5, [0], 3)
    with pytest.raises(DimensionMismatch):
        counter_uniforms(1, 0, 5, [0], 3)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plant_block_draws_equal_per_stream_calls(seed, dim):
    # simulate's one call per plant and block gives the deliveries and the
    # Box-Muller normals of the per-stream construction, element for element
    trials = 1031
    steps = np.arange(40, 40 + block_steps(trials) + 3)
    for plant in (0, 3):
        uniforms, z = _plant_draws(seed, plant, steps, dim, trials)
        want = counter_uniforms(seed, 2 * plant, steps, 0, trials)
        assert uniforms.shape == want.shape and uniforms.tobytes() == want.tobytes()
        normals = counter_normals(seed, 2 * plant + 1, steps, dim, trials)
        assert z.shape == (dim, len(steps), trials)
        assert z.tobytes() == np.ascontiguousarray(normals.transpose(2, 0, 1)).tobytes()


def test_block_steps_bound_the_block_by_the_trial_count():
    for trials in range(1, 257):
        assert block_steps(trials) == 64
    for trials in (257, 1000, 1031, 2048, 4000, 10**6):
        block = block_steps(trials)
        assert 8 <= block < 64
        assert block * trials <= 2**14 or block == 8
    assert block_steps(1000) == 16


def test_odd_normal_count_is_a_prefix_of_the_next_even_one():
    for step in (5, np.arange(5, 5 + block_steps(50) + 3)):
        three = counter_normals(3, 1, step, 3, 50)
        four = counter_normals(3, 1, step, 4, 50)
        assert three.shape == four.shape[:-1] + (3,)
        assert three.tobytes() == np.ascontiguousarray(four[..., :3]).tobytes()


# ── Group 2: schedules ───────────────────────────────────────────────────────

def test_schedule_indexing():
    sched = Schedule((9, 8), (1, 2, 3))
    assert [sched.input_at(k) for k in range(8)] == [9, 8, 1, 2, 3, 1, 2, 3]


def test_schedule_serialization_roundtrip():
    assert Schedule.from_dict(OPTIMAL.to_dict()) == OPTIMAL
    assert Schedule.from_dict({"cycle_inputs": [5]}) == Schedule((), (5,), 0)


def test_schedule_needs_a_cycle():
    with pytest.raises(ValueOutOfRange):
        Schedule((1,), ())
    # its JSON form names the field, as every other malformed field does
    with pytest.raises(ParseError, match=r"^'cycle_inputs' must not be empty$"):
        Schedule.from_dict({"prefix_inputs": [1], "cycle_inputs": []})


def test_schedule_from_synthesis(synthesis):
    assert synthesis.schedule == OPTIMAL


def test_sim_config_validation():
    with pytest.raises(ValueOutOfRange):
        SimConfig(0, 10, 1)
    with pytest.raises(ValueOutOfRange):
        SimConfig(10, 0, 1)
    with pytest.raises(ValueOutOfRange):
        SimConfig(10, 10, -1)


# ── Group 3: simulation ──────────────────────────────────────────────────────

def test_simulate_bit_exact_reproducibility(scenario):
    config = SimConfig(horizon_fast=80, trials=64, seed=123)
    one = simulate(scenario, OPTIMAL, config)
    two = simulate(scenario, OPTIMAL, config)
    assert np.array_equal(one.deliveries, two.deliveries)
    assert np.array_equal(one.delivery_counts, two.delivery_counts)
    for x, y in zip(one.states, two.states):
        assert np.array_equal(x, y)
    for name in ("decay_mean", "decay_sd"):
        for x, y in zip(getattr(one, name), getattr(two, name)):
            assert x.tobytes() == y.tobytes()
    other = simulate(scenario, OPTIMAL, SimConfig(80, 64, 124))
    assert not np.array_equal(one.delivery_counts, other.delivery_counts)


def test_simulate_trace_bookkeeping(scenario):
    trace = simulate(scenario, OPTIMAL, SimConfig(90, 8, 5))
    assert trace.tau == 40
    assert trace.horizon == 90 and trace.trials == 8
    assert trace.alpha_slow == (4, 2, 5)  # ceil(90 / 40) slow steps
    assert trace.inputs_slow == (7, 7, 4)
    assert trace.entry_fast == 0
    assert trace.states[0].shape == (91, 2)  # trial 0's path
    assert trace.states[1].shape == (91, 1)
    assert trace.deliveries.shape == (90, 2)  # trial 0's
    assert trace.delivery_counts.shape == (90, 2)
    assert np.all((0 <= trace.delivery_counts) & (trace.delivery_counts <= 8))
    assert np.array_equal(trace.states[0][0], np.ones(2))  # the document's start
    for stats in (trace.decay_mean, trace.decay_sd):
        assert [s.shape for s in stats] == [(90,), (90,)]
        assert all(np.isfinite(s).all() for s in stats)


def test_simulate_sure_delivery_closed_form():
    scn = load_scenario_text(SURE_DELIVERY)
    trace = simulate(scn, Schedule((), (1,), 1), SimConfig(12, 128, 77))
    assert np.all(trace.deliveries == 1)
    assert np.all(trace.delivery_counts == 128)
    for l in range(13):
        assert trace.states[0][l, 0] == 0.5 ** l
    # every trial follows x(l) = 0.5^l, so V drops from 0.25^l to 0.25^(l+1)
    # against the bound 0.9 * 0.25^l: the mean residual is -0.65 * 0.25^l
    # and the trials do not spread
    want = -0.65 * 0.25 ** np.arange(12)
    assert np.allclose(trace.decay_mean[0], want, rtol=1e-12, atol=0)
    assert np.all(trace.decay_sd[0] <= 1e-12 * np.abs(want))
    # power 0.25 every fast step, no input weight: the average is constant
    assert np.array_equal(trace.running_cost, np.full(12, 0.25))
    assert trace.entry_fast == 0
    assert empirical_lyapunov_check(trace).passed


def test_simulate_delivery_frequencies(scenario):
    trace = simulate(scenario, OPTIMAL, SimConfig(160, 3000, 42))
    for slow, a in enumerate(trace.alpha_slow):
        window = trace.delivery_counts[slow * 40 : (slow + 1) * 40, :]
        count = trace.trials * window.shape[0]
        for i in range(2):
            p = float(scenario.success[a][i])
            bound = 3.0 * np.sqrt(p * (1 - p) / count)
            assert abs(window[:, i].sum() / count - p) <= bound


def test_simulate_schedule_validation(scenario):
    with pytest.raises(ScheduleViolation):
        simulate(scenario, Schedule((), (1,), 4), SimConfig(40, 4, 1))
    with pytest.raises(ScheduleViolation):
        # admissible input, but it exits the admissible states (4 -> 8)
        simulate(scenario, Schedule((), (4,), 4), SimConfig(40, 4, 1))
    with pytest.raises(ScheduleViolation):
        simulate(scenario, Schedule((), (7, 7, 4, 7), 2), SimConfig(40, 4, 1))


def _edges(block):
    """One block and its edges, then a run of several blocks that ends inside one."""
    return {block - 1, block, block + 1, 2 * block + 3}


@pytest.mark.parametrize("horizon", sorted({1, 255, 256, 257, 515} | _edges(block_steps(101))))
@pytest.mark.parametrize("schedule", [STARVING, OPTIMAL], ids=["prefix", "cycle"])
def test_simulate_matches_stepwise_oracle(scenario, schedule, horizon, monkeypatch):
    # both schedules change the success probabilities inside a block; 101
    # trials are enough for the decay check and an odd array extent, and
    # take the longest block
    config = SimConfig(horizon, 101, 2**64 - 1)
    _assert_matches_stepwise_oracle(monkeypatch, scenario, schedule, config)


@pytest.mark.parametrize("horizon", sorted(_edges(block_steps(1031))))
@pytest.mark.parametrize("schedule", [STARVING, OPTIMAL], ids=["prefix", "cycle"])
def test_simulate_matches_stepwise_oracle_on_short_blocks(scenario, schedule, horizon,
                                                          monkeypatch):
    # past 256 trials a block is shorter than 64 steps
    assert block_steps(1031) < 64
    config = SimConfig(horizon, 1031, 7)
    _assert_matches_stepwise_oracle(monkeypatch, scenario, schedule, config)


def _on_cpus(monkeypatch, cpus):
    """Make `simulate` see `cpus` usable CPUs: the seam of its worker count."""
    monkeypatch.setattr(cosim, "_usable_cpus", lambda: cpus)


def _trace_bytes(trace):
    """Every field of a trace, each array as its dtype, shape and bytes."""
    arrays = [*trace.states, trace.deliveries, trace.delivery_counts,
              *trace.decay_mean, *trace.decay_sd, trace.running_cost]
    return ((trace.tau, trace.trials, trace.alpha_slow, trace.inputs_slow, trace.entry_fast),
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def _assert_matches_stepwise_oracle(monkeypatch, scenario, schedule, config):
    # in-process and, where the platform forks, with the plants dealt over
    # two processes: the same bytes, checked against the oracle
    horizon = config.horizon_fast
    _on_cpus(monkeypatch, 1)
    got = simulate(scenario, schedule, config)
    if hasattr(os, "fork"):
        _on_cpus(monkeypatch, 2)
        assert _trace_bytes(simulate(scenario, schedule, config)) == _trace_bytes(got)
    want, full_states, full_deliveries = stepwise_simulate(scenario, schedule, config)
    for x, y in zip(got.states, want.states, strict=True):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()
    # trial 0's deliveries, and per step the number of trials delivered
    assert got.deliveries.shape == full_deliveries[0].shape
    assert got.deliveries.tobytes() == full_deliveries[0].tobytes()
    assert got.delivery_counts.shape == want.delivery_counts.shape
    assert got.delivery_counts.tobytes() == want.delivery_counts.tobytes()
    assert got.running_cost.tobytes() == want.running_cost.tobytes()
    assert (got.trials, got.alpha_slow, got.inputs_slow, got.entry_fast) == (
        want.trials, want.alpha_slow, want.inputs_slow, want.entry_fast)
    assert 0 < full_deliveries.mean() < 1  # both branches of the recursion ran
    # numpy's einsum and std round by array extent: blocks may differ by ulps
    for name in ("decay_mean", "decay_sd"):
        for x, y in zip(getattr(got, name), getattr(want, name), strict=True):
            assert x.shape == y.shape == (horizon,)
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)
    if config.trials < MIN_CHECK_TRIALS:
        return
    # the check runs from the cycle entry: moving the entry moves its window
    for start in sorted({0, want.entry_fast, horizon // 2, horizon - 1}):
        if start >= horizon:
            continue
        streamed = empirical_lyapunov_check(dataclasses.replace(got, entry_fast=start))
        full = full_lyapunov_check(full_states, scenario.plants, start)
        assert streamed.passed == full.passed
        for a, b in zip(streamed.plants, full.plants, strict=True):
            assert (a.plant, a.passed, a.worst_step) == (b.plant, b.passed, b.worst_step)
            assert a.worst_margin == pytest.approx(b.worst_margin, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("horizon", [1, block_steps(37) + 1, 2 * block_steps(37) + 3])
def test_simulate_matches_stepwise_oracle_on_mixed_plants(horizon, monkeypatch):
    # covers the matmul recursion at dim 3 and the scalar recursion with a
    # noise factor other than 1 (the bundled conveyor's factor is exactly 1)
    scn = load_scenario_text(MIXED_PLANTS)
    assert [p.dim for p in scn.plants] == [3, 1]
    assert scn.plants[1].noise_factor[0, 0] == np.sqrt(2.0)
    _assert_matches_stepwise_oracle(monkeypatch, scn, STAY, SimConfig(horizon, 37, 2**63 + 5))


@pytest.mark.parametrize("horizon", [1, block_steps(29) + 1, 2 * block_steps(29) + 3])
def test_simulate_matches_stepwise_oracle_on_quality_weights(horizon, monkeypatch):
    # every other scenario here gives its scalar plant Q = 1, so only this
    # one tells q x^2 from x^2 in the decay statistics
    scn = load_scenario_text(QUALITY_WEIGHTS)
    arm, belt = scn.plants
    assert arm.q[0, 1] == 0.7 and belt.q[0, 0] == 2.5
    _assert_matches_stepwise_oracle(monkeypatch, scn, STAY, SimConfig(horizon, 29, 11))


@pytest.mark.parametrize("trials", [1, 2])
def test_simulate_few_trials_raises_no_warning(scenario, trials):
    # the per-step sample sd needs two trials; one trial leaves it NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = simulate(scenario, OPTIMAL, SimConfig(300, trials, 1))
    for mean, sd in zip(trace.decay_mean, trace.decay_sd):
        assert np.isfinite(mean).all()
        assert np.isnan(sd).all() if trials == 1 else np.isfinite(sd).all()


def _simulate_peak_bytes(monkeypatch, scenario, trials, horizon):
    # tracemalloc sees this process alone: every plant runs in it, one after
    # another, so each plant's working set is held to the budget
    _on_cpus(monkeypatch, 1)
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        simulate(scenario, OPTIMAL, SimConfig(horizon, trials, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_trials_times_horizon(scenario, monkeypatch):
    # keeping every trial's trajectory costs trials x dim doubles per fast
    # step (38 MB here); streaming keeps one block of them, so a step adds
    # only trial 0's states and deliveries, the delivery counts and two
    # statistics, none of which grows with the trials
    trials, horizon = 400, 4000
    plants = scenario.plants
    full_states = sum(trials * (horizon + 1) * p.dim * 8 for p in plants)
    per_step = 8 * sum(p.dim + 2 for p in plants)
    block = block_steps(trials)
    short = _simulate_peak_bytes(monkeypatch, scenario, trials, block)
    long = _simulate_peak_bytes(monkeypatch, scenario, trials, horizon)
    assert long < full_states / 2
    assert long - short < 2 * per_step * (horizon - block)


@pytest.mark.parametrize("trials", [1000, 4000])
def test_simulate_working_set_does_not_grow_with_trials(scenario, trials, monkeypatch):
    # a block holds about 2**14 trial-steps whatever the trial count, and
    # only trial 0's deliveries are kept, so the traced peak stays within one
    # budget: 5.2 and 17.8 MiB here when every trial's deliveries were kept
    assert _simulate_peak_bytes(monkeypatch, scenario, trials, 2000) < 4 * 2**20


def test_simulate_needs_success_coverage(scenario):
    gutted = dataclasses.replace(scenario, transmit=None)
    with pytest.raises(PreconditionViolated):
        simulate(gutted, OPTIMAL, SimConfig(40, 4, 1))


# ── Group 3b: plants in forked workers ──────────────────────────────────────

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _AllocationFailed(MemoryError):
    """Built from a shape and a dtype, as numpy's allocation error is."""

    def __init__(self, shape, dtype):
        super().__init__("Unable to allocate 1.00 TiB for an array with shape %s and "
                         "data type %s" % (shape, dtype))


def _rollout_failing_in_worker(monkeypatch, plant, error=None, warning=None):
    """Make plant `plant`'s rollout warn and then raise (or go on) when it
    runs outside this process."""
    rollout, parent = cosim._rollout, os.getpid()

    def patched(seed, i, *args):
        if i == plant and os.getpid() != parent:
            if warning:
                warnings.warn(warning, RuntimeWarning)
            if error:
                raise error
        return rollout(seed, i, *args)

    monkeypatch.setattr(cosim, "_rollout", patched)


@needs_fork
def test_forked_trace_equals_in_process_trace_on_the_bundled_cell(scenario, monkeypatch):
    config = SimConfig(400, 1000, 1)
    _on_cpus(monkeypatch, 1)
    serial = _trace_bytes(simulate(scenario, OPTIMAL, config))
    _on_cpus(monkeypatch, 2)
    assert _trace_bytes(simulate(scenario, OPTIMAL, config)) == serial


@needs_fork
def test_forked_trace_equals_in_process_trace_on_three_plants(monkeypatch):
    # two processes take plants {0, 2} and {1}; three take one plant each
    scn = load_scenario_text(THREE_PLANTS)
    assert [p.dim for p in scn.plants] == [3, 1, 2]
    config = SimConfig(2 * block_steps(37) + 3, 37, 2**63 + 5)
    traces = []
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        traces.append(_trace_bytes(simulate(scn, STAY, config)))
    assert traces[1] == traces[0]
    assert traces[2] == traces[0]


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3])
def test_five_tasks_come_back_in_task_order_whatever_the_deal(monkeypatch, cpus):
    # five tasks, so that a worker takes two: their results must come back
    # in task order (two CPUs: this process 0, 2, 4, a worker 1, 3; three:
    # this process 0, 3, the workers 1, 4 and 2)
    def task(k):
        return np.full((2, 3), k + 0.5), np.arange(4, dtype=np.uint8) + 10 * k, os.getpid()

    _on_cpus(monkeypatch, cpus)
    results = cosim._run_tasks([functools.partial(task, k) for k in range(5)])
    assert len(results) == 5
    for k, (a, b, _) in enumerate(results):
        assert a.shape == (2, 3) and np.all(a == k + 0.5)
        assert b.dtype == np.uint8 and np.array_equal(b, np.arange(4) + 10 * k)
    pids = [pid for _, _, pid in results]
    assert [pids[k] == os.getpid() for k in range(5)] == [k % cpus == 0 for k in range(5)]
    assert pids[1] == pids[1 + cpus] != os.getpid()
    assert len(set(pids)) == cpus
    _assert_no_child_left()


@needs_fork
def test_workers_are_reaped_after_success_and_after_an_error(scenario, monkeypatch):
    _on_cpus(monkeypatch, 2)
    simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    _assert_no_child_left()
    # the worker's error reaches the caller as its own type and message
    _rollout_failing_in_worker(monkeypatch, 1, ScheduleViolation("plant 1 failed in a worker"))
    with pytest.raises(ScheduleViolation, match=r"^plant 1 failed in a worker$"):
        simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    _assert_no_child_left()


@needs_fork
def test_no_worker_left_when_this_process_fails(scenario, monkeypatch):
    rollout = cosim._rollout

    def failing(seed, i, *args):
        if i == 0:
            raise ValueOutOfRange("plant 0 failed in this process")
        return rollout(seed, i, *args)

    _on_cpus(monkeypatch, 2)
    monkeypatch.setattr(cosim, "_rollout", failing)
    with pytest.raises(ValueOutOfRange, match=r"^plant 0 failed in this process$"):
        simulate(scenario, OPTIMAL, SimConfig(2000, 1000, 1))
    _assert_no_child_left()

    # an interrupt here does not wait for a worker that would take a minute:
    # the worker is killed
    def interrupted(seed, i, *args):
        if i == 0:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(cosim, "_rollout", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert time.monotonic() - start < 30
    _assert_no_child_left()


@needs_fork
def test_worker_allocation_error_is_a_memory_error_with_its_message(scenario, monkeypatch):
    # numpy's error takes (shape, dtype), so it comes back as the MemoryError
    # it derives from, with numpy's message, which the CLI prints
    _on_cpus(monkeypatch, 2)
    _rollout_failing_in_worker(monkeypatch, 1, _AllocationFailed((2**37,), "float64"))
    with pytest.raises(MemoryError) as caught:
        simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert type(caught.value) is MemoryError
    assert str(caught.value) == str(_AllocationFailed((2**37,), "float64"))
    _assert_no_child_left()


@needs_fork
def test_worker_warnings_reach_the_caller_and_it_writes_nothing(scenario, monkeypatch, capfd):
    _on_cpus(monkeypatch, 2)
    _rollout_failing_in_worker(monkeypatch, 1, warning="plant 1 warned in a worker")
    with pytest.warns(RuntimeWarning, match=r"^plant 1 warned in a worker$"):
        trace = simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    _on_cpus(monkeypatch, 1)
    assert _trace_bytes(trace) == _trace_bytes(simulate(scenario, OPTIMAL, SimConfig(80, 16, 1)))
    _on_cpus(monkeypatch, 2)
    _rollout_failing_in_worker(monkeypatch, 1, ValueOutOfRange("plant 1 failed in a worker"))
    with pytest.raises(ValueOutOfRange):
        simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert capfd.readouterr() == ("", "")


def _overflowing_cell(scenario_path):
    """The bundled cell with both plants' open loops at 1e100: every plant
    step overflows, and numpy warns at several lines of each rollout."""
    text = scenario_path.read_text()
    for old, new in (("a_open: [[-1.0, -0.4]", "a_open: [[-1.0e+100, -0.4]"),
                     ("a_open: 1.0\n", "a_open: 1.0e+100\n")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return load_scenario_text(text)


def _print_warnings(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@needs_fork
def test_stderr_is_the_same_whatever_the_cpu_count(scenario_path, monkeypatch, capfd):
    # each warning location prints once, as when every plant runs here
    scn = _overflowing_cell(scenario_path)
    printed = []
    for cpus in (1, 2, 3):
        _on_cpus(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = _print_warnings
            simulate(scn, OPTIMAL, SimConfig(400, 100, 1))
        printed.append(capfd.readouterr())
    assert printed[0].out == "" and "RuntimeWarning: overflow" in printed[0].err
    assert printed[1] == printed[0]
    assert printed[2] == printed[0]


@needs_fork
def test_worker_exits_on_a_broken_pipe():
    # with the parent's read end gone, the worker's first write fails: it
    # exits with status 2 instead of blocking or printing
    r, w = os.pipe()
    os.close(r)
    pid = os.fork()
    if pid == 0:
        try:
            # a 1 MiB result: more than a pipe buffers
            cosim._worker([lambda: np.zeros(2**17)], [0], w, [])
        finally:
            os._exit(3)  # never reached: the worker exits itself
    os.close(w)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 2


# ── Group 4: running cost ────────────────────────────────────────────────────

def test_cost_trace_exact_cycle_average(scenario):
    trace = average_cost_trace(scenario, OPTIMAL, 160)
    assert trace.shape == (160,)
    # one full tour costs 96 over 160 fast steps
    assert abs(trace[-1] - 0.6) < 1e-12
    # first two slow steps: 80 fast steps of power 0.325 plus two input bumps
    assert abs(trace[79] - 46 / 80) < 1e-12


def test_cost_trace_long_run_values(scenario):
    optimal = average_cost_trace(scenario, OPTIMAL, 40_000)
    assert abs(optimal[-1] - 0.6) < 1e-10
    slow = average_cost_trace(scenario, SELF_LOOP, 40_000)
    assert abs(slow[-1] - 0.675) < 1e-3
    assert optimal[-1] < slow[-1]


def test_cost_trace_matches_simulation_column(scenario):
    trace = simulate(scenario, OPTIMAL, SimConfig(100, 4, 3))
    assert np.array_equal(
        trace.running_cost, average_cost_trace(scenario, OPTIMAL, 100)
    )


# ── Group 5: the decay check ─────────────────────────────────────────────────

def test_decay_check_passes_under_optimal_schedule(scenario):
    trace = simulate(scenario, OPTIMAL, SimConfig(160, 2000, 7))
    check = empirical_lyapunov_check(trace)
    assert check.passed
    assert all(p.passed for p in check.plants)
    assert all(p.worst_margin > 0 for p in check.plants)


def test_decay_check_catches_starved_link(scenario):
    trace = simulate(scenario, STARVING, SimConfig(200, 400, 11))
    assert trace.alpha_slow == (4, 3, 3, 3, 3)
    assert trace.entry_fast == 40
    check = empirical_lyapunov_check(trace)
    assert not check.passed
    assert not check.plants[0].passed  # link 1 sees 0.09 < its 0.29 threshold
    assert check.plants[1].passed      # link 2 sees 0.25 > its 0.10 threshold


def test_decay_check_needs_trials(scenario):
    # the message is the reason `fadectrl simulate` prints for skipping the check
    trace = simulate(scenario, OPTIMAL, SimConfig(40, 99, 1))
    with pytest.raises(InsufficientTrials, match=r"^needs >= 100 trials$"):
        empirical_lyapunov_check(trace)


def test_decay_check_window_validation(scenario):
    trace = simulate(scenario, STARVING, SimConfig(40, 120, 1))
    assert trace.entry_fast == 40
    with pytest.raises(ValueOutOfRange, match=r"^horizon 40 ends at or before the "
                                              r"cycle entry at fast step 40$"):
        empirical_lyapunov_check(trace)


# ── Group 6: CSV export ──────────────────────────────────────────────────────

def test_trace_csv_layout_and_determinism(scenario):
    def render():
        trace = simulate(scenario, OPTIMAL, SimConfig(50, 3, 9))
        buf = io.StringIO()
        write_trace_csv(trace, buf)
        return buf.getvalue()

    text = render()
    assert text == render()
    lines = text.splitlines()
    assert lines[0] == "l,k,alpha,x1_1,x1_2,x2_1,delivered1,delivered2,running_cost"
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[:3] == ["0", "0", "4"]
    assert float(first[3]) == 1.0  # the configured start state
    assert first[6] in ("0", "1")
    assert float(first[8]) > 0


class _LineSink:
    """A text file that keeps only its line count and its last write."""

    lines = 0
    last = ""

    def write(self, text):
        self.lines += text.count("\n")
        self.last = text


def test_trace_csv_memory_does_not_grow_with_horizon(scenario):
    # turning the whole trace into Python rows at once took 6.6 MB at this
    # horizon; a fixed chunk of rows at a time keeps the peak in one budget
    horizon = 20_000
    trace = simulate(scenario, OPTIMAL, SimConfig(horizon, 2, 3))
    sink = _LineSink()
    tracemalloc.start()
    try:
        write_trace_csv(trace, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert sink.lines == horizon + 1  # the header and every step's row
    assert sink.last.startswith("%d,%d," % (horizon - 1, (horizon - 1) // trace.tau))
