"""Monte-Carlo co-simulation.

Proves:
 Group 1 - counter RNG: determinism, stream separation, value ranges,
           agreement with an integer recomputation, block calls over an
           array of steps and fused calls over paired (stream, draw) arrays
           equal to the stacked single calls, a plant's one call per block
           (and no other in a run) equal to its per-stream deliveries and
           the scalar AS241's normals for dims 1-3, the block's normals
           equal to the scalar oracle's over the central rational and both
           tail rationals, within 1e-14 of statistics.NormalDist at cell
           midpoints about |q| = 0.425, r = 5 and the outermost cells, odd
           in the cell and never zero, with the standard library's AS241 coefficients, an
           odd normal count the prefix of the next even one, and a block
           of the most steps within 2**15 trial-steps, at least 8; the
           portable log within 2 ulps of libm, 10^6 normals with the normal
           moments and a Kolmogorov-Smirnov statistic within fixed bounds,
           and the same trace bytes in a child with numpy's dispatched CPU
           features disabled
 Group 2 - schedules: indexing, serialization, validation
 Group 3 - simulate: bit-exact reproducibility, a fully deterministic
           closed-form case, delivery rates from the per-step delivery
           counts, trace bookkeeping, agreement with the one-step-at-a-time,
           full-trajectory oracle across block boundaries (trial 0's paths
           and deliveries, every step's delivery count and the cost
           exactly, streamed decay statistics to 1e-12, check verdicts
           exactly), at 101 trials and on the shorter blocks of 1031
           trials, also for a 3-dim plant with correlated noise and a
           scalar plant with a non-unit noise factor, for a 2-dim plant
           with an explicit non-diagonal quality weight and a scalar one
           with Q = 2.5, and for the arm with a zero row in its noise
           factor, CSV bytes and signed zeros included, over seeds 1-40; a
           quality weight asymmetric within the loader's tolerance stored
           exactly symmetric, and the decay statistics
           of it and of a 3-dim plant with a full quality weight equal,
           byte for byte, to V summed afresh term by term; no numpy
           warning at one or two trials, memory whose growth per step
           does not depend on the trials, and a working set within one
           budget at 100, 1000 and 4000 trials over 2000 steps (both
           measured in-process, where tracemalloc sees every plant);
           trial 0's path starts at the document's initial plant states;
           the same trace bytes, CSV included, for blocks of 1 to 655
           steps and key tables of one or two blocks, at 100 and 1000
           trials; the benchmark's 1000 x 2000 trace of the bundled cell
           pinned by digest
 Group 3b - plants in the calling process: `simulate` never forks; a
           rollout's error reaches the caller as its own type and message,
           and its warning reaches the caller once per location, with
           nothing else written to stdout or stderr; a horizon whose
           per-step arrays exceed physical memory is a MemoryError naming
           the bytes, before the tour is replayed
 Group 4 - running cost: exact cycle averages for the worked example
 Group 5 - the empirical decay check passes for the arm where delivery
           is rich enough and fails where the schedule starves a link; the
           simulated decay means agree with the exact second-moment
           reference, step by step on one run and without bias across
           seeds; below 100 trials, or with no step past the cycle entry,
           it raises the reason the CLI prints for skipping it
 Group 6 - CSV export determinism, and a peak that does not grow with
           the horizon
"""

import ast
import dataclasses
import hashlib
import io
import math
import os
import statistics
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import fadectrl.cosim as cosim
from fadectrl.cosim import (
    MIN_CHECK_TRIALS,
    SimConfig,
    _plant_draws,
    _plant_keys,
    block_steps,
    counter_keys,
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
from fadectrl.mas import Schedule
from fadectrl.scenario import load_scenario_text
from oracles import (
    as241,
    average_cost_trace,
    counter_normals,
    decay_mean_z,
    expected_decay_residual,
    full_lyapunov_check,
    integer_uniforms,
    ordered_decay_statistics,
    portable_log,
    stepwise_simulate,
)

OPTIMAL = Schedule(prefix_inputs=(), cycle_inputs=(7, 7, 4, 7), alpha0=4)
# the CPU features numpy dispatches to here, as CI's baseline-SIMD step lists them
DISPATCHED = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
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

# a 3-dim plant with correlated noise (three normals a step) and a scalar
# plant whose noise factor sqrt(2) is not 1; both links deliver with fixed
# probabilities strictly between 0 and 1
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


# ── Group 1: counter RNG ─────────────────────────────────────────────────────

def _uniforms(seed, stream, step, draw, trials):
    """The keyed uniforms of substreams (`counter_keys`'s arguments)."""
    return counter_uniforms(counter_keys(seed, stream, step, draw), trials)


def test_uniforms_deterministic_and_in_range():
    a = _uniforms(9, 2, 5, 0, 1000)
    b = _uniforms(9, 2, 5, 0, 1000)
    assert np.array_equal(a, b)
    assert a.dtype == np.float64 and a.shape == (1000,)
    assert np.all(a > 0.0) and np.all(a <= 1.0)


def test_uniform_streams_are_separated():
    base = _uniforms(9, 2, 5, 0, 256)
    for other in (
        _uniforms(10, 2, 5, 0, 256),  # seed
        _uniforms(9, 3, 5, 0, 256),   # stream
        _uniforms(9, 2, 6, 0, 256),   # step
        _uniforms(9, 2, 5, 1, 256),   # draw
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
        assert _uniforms(seed, stream, step, draw, 5).tolist() == integer_uniforms(
            seed, stream, step, draw, 5)


def test_step_must_be_a_scalar_or_a_vector():
    with pytest.raises(DimensionMismatch):
        _uniforms(1, 0, np.zeros((2, 2), dtype=np.int64), 0, 3)


SEEDS = st.integers(0, 2**64 - 1)
STEP_ARRAYS = st.lists(st.integers(0, 2**62), min_size=1, max_size=8)


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, stream=st.integers(0, 9), draw=st.integers(0, 9),
       steps=STEP_ARRAYS, trials=st.integers(1, 9))
@example(seed=0, stream=0, draw=0, steps=[0], trials=1)
@example(seed=2**64 - 1, stream=3, draw=1, steps=[2**62, 0, 2**62], trials=4)
def test_block_uniforms_equal_stacked_scalar_calls(seed, stream, draw, steps, trials):
    block = _uniforms(seed, stream, np.array(steps), draw, trials)
    stacked = np.stack([_uniforms(seed, stream, l, draw, trials) for l in steps])
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
    fused = _uniforms(seed, streams, np.array(steps), draws, trials)
    single = np.stack([_uniforms(seed, c, np.array(steps), d, trials) for c, d in pairs])
    assert fused.shape == (len(pairs), len(steps), trials)
    assert fused.tobytes() == single.tobytes()
    assert _uniforms(seed, streams, steps[0], draws, trials).tobytes() == \
        np.ascontiguousarray(single[:, 0]).tobytes()


def test_substreams_must_pair_up():
    with pytest.raises(DimensionMismatch):
        _uniforms(1, [0, 1], 5, [0], 3)
    with pytest.raises(DimensionMismatch):
        _uniforms(1, 0, 5, [0], 3)


def _block_draws(seed, plant, steps, dim, trials):
    """`_plant_draws` of plant `plant` over `steps`, the block's columns of
    a key table that starts at step 0, as `_rollout` reads them."""
    keys = _plant_keys(seed, plant, dim, np.arange(steps[-1] + 1))
    return _plant_draws(keys[:, steps[0] :], trials, cosim._Arena(dim, len(steps), trials))


def _assert_plant_draws_match(seed, plant, steps, dim, trials):
    """`_plant_draws` against the per-stream calls: deliveries from
    `counter_uniforms`, normals from the scalar AS241, byte for byte."""
    uniforms, z = _block_draws(seed, plant, steps, dim, trials)
    want = _uniforms(seed, 2 * plant, steps, 0, trials)
    assert uniforms.shape == want.shape and uniforms.tobytes() == want.tobytes()
    normals = counter_normals(seed, 2 * plant + 1, steps, dim, trials)
    assert z.shape == (dim, len(steps), trials)
    assert z.tobytes() == np.ascontiguousarray(normals.transpose(2, 0, 1)).tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_plant_block_draws_equal_per_stream_calls(seed, dim):
    # simulate's one call per plant and block gives the deliveries and the
    # AS241 normals of the per-stream construction, element for element
    trials = 1031
    steps = np.arange(40, 40 + block_steps(trials) + 3)
    for plant in (0, 3):
        _assert_plant_draws_match(seed, plant, steps, dim, trials)


def test_each_plant_hashes_a_block_in_one_call(scenario, monkeypatch):
    # the normals take no further draw: one `counter_uniforms` call per plant
    # and block, the benchmark's `cosim.rng` span
    calls, hashed = [], cosim.counter_uniforms
    monkeypatch.setattr(cosim, "counter_uniforms",
                        lambda *a, **k: calls.append(1) or hashed(*a, **k))
    horizon = 2 * block_steps(1000) + 3
    simulate(scenario, OPTIMAL, SimConfig(horizon, 1000, 1))
    assert len(calls) == 3 * len(scenario.plants)


# |x| at |q| = 0.425, where the central rational hands over to the tail's
CENTRAL_EDGE = -NormalDist().inv_cdf(0.075)


def test_plant_block_draws_take_both_drawn_as241_branches():
    # these counters hold both branches drawn normals take at this size, the
    # central rational and the tail's for r <= 5, on both signs (r > 5, a
    # tail probability below e^-25, is left to the cell tests below); the
    # block's normals equal the scalar oracle's
    seed, trials, steps = 7, 1031, np.arange(21)
    z = _block_draws(seed, 0, steps, 3, trials)[1]
    for branch in (np.abs(z) < CENTRAL_EDGE, np.abs(z) > CENTRAL_EDGE):
        assert (z[branch] < 0).any() and (z[branch] > 0).any()
    _assert_plant_draws_match(seed, 0, steps, 3, trials)


LAST_CELL = 2**53 - 1


def _cells(b):
    """The uniforms (b + 1) 2^-53 of cells b, as `counter_uniforms` gives them."""
    return (np.asarray(b, np.int64) + 1).astype(np.float64) * 2.0 ** -53


def _block_normals(b):
    """`cosim._normals` of cells b, as one row."""
    u = _cells(b)
    return cosim._normals(u[None], np.empty_like(u), np.empty_like(u),
                          np.empty(u.shape, bool))[0]


# cells on either side of |q| = 0.425 and of r = 5 (tail probability e^-25),
# the outermost ones and those about the middle
EDGE_CELLS = sorted({
    *range(5), *range(LAST_CELL - 4, LAST_CELL + 1), *range(2**52 - 3, 2**52 + 3),
    *(c + k for p in (0.075, math.exp(-25))
      for c in (round(p * 2**53), LAST_CELL - round(p * 2**53)) for k in range(-3, 4))})


def _test_cells(seed, n):
    """EDGE_CELLS, then n random cells."""
    return np.array(EDGE_CELLS + np.random.default_rng(seed).integers(0, 2**53, n).tolist())


def test_normals_take_every_as241_branch_as_the_scalar_oracle_does():
    # the block's normals equal the scalar oracle's byte for byte over the
    # central rational and both tail rationals, on both signs
    cells = _test_cells(5, 5000)
    got = _block_normals(cells)
    assert got.tolist() == [as241(b + 1) for b in cells.tolist()]
    q = (_cells(cells) - 0.5) - 2.0 ** -54
    tail = 0.5 - np.abs(q)
    for branch in (np.abs(q) <= 0.425, (tail < 0.075) & (tail > math.exp(-25)),
                   tail < math.exp(-25)):
        assert (q[branch] < 0).any() and (q[branch] > 0).any()


def test_normals_are_within_1e_14_of_the_inverse_cdf():
    # statistics.NormalDist evaluates AS241 in its own operation order with
    # libm's log; it is taken at the lower tail probability 1/2 - |q|, which
    # is exact, and given q's sign
    cells = _test_cells(6, 20000)
    got = _block_normals(cells).tolist()
    q = ((_cells(cells) - 0.5) - 2.0 ** -54).tolist()
    want = [math.copysign(NormalDist().inv_cdf(0.5 - abs(v)), v) for v in q]
    assert max(abs(g - w) / abs(w) for g, w in zip(got, want)) < 1e-14


def test_normals_are_odd_in_the_cell_and_never_zero():
    # draws b and 2^53 - 1 - b give x and -x; the outermost cells give
    # -+8.29, and the middle ones +-2^-54 sqrt(2 pi) to first order, not +-0
    b = np.array([0, 1, 2, 2**52 - 1, 2**52 - 2, 12345, 2**51, 2**53 // 40])
    x = _block_normals(b)
    assert (-x).tobytes() == _block_normals(LAST_CELL - b).tobytes()
    assert x[0] == -8.292361075813595
    tiny = 2.0 ** -54 * math.sqrt(2 * math.pi)
    np.testing.assert_allclose(_block_normals([2**52 - 1, 2**52]), [-tiny, tiny],
                               rtol=1e-15, atol=0)
    assert np.all(_block_normals(np.arange(2**52 - 500, 2**52 + 500)) != 0)


def _stdlib_as241_constants():
    """The float constants of the standard library's pure-Python
    statistics._normal_dist_inv_cdf, in source order."""
    tree = ast.parse(Path(statistics.__file__).read_text())
    function = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                    and node.name == "_normal_dist_inv_cdf")
    constants = [node for node in ast.walk(function)
                 if isinstance(node, ast.Constant) and type(node.value) is float]
    return [node.value for node in sorted(constants, key=lambda n: (n.lineno, n.col_offset))]


def test_as241_coefficients_are_the_standard_librarys():
    # the central rational's numerator and denominator, then each tail
    # rational's shift, numerator and denominator, are the floats of
    # Wichura's 20-digit decimals as the standard library spells them; its
    # constants between are 0.0, 1.0 and the 5.0 of r <= 5
    stdlib = _stdlib_as241_constants()
    ours = [*cosim._CENTRAL_NUM, *cosim._CENTRAL_DEN]
    for rational in (cosim._NEAR, cosim._FAR):
        ours += [rational[0], *rational[1], *rational[2]]
    assert stdlib[:3] == [0.5, 0.425, 0.180625]
    assert ours == stdlib[3:19] + stdlib[22:56]


def test_block_steps_bound_the_block_by_the_trial_count():
    # the most steps within 2**15 trial-steps, at every trial count, but
    # never fewer than 8
    for trials in (*range(1, 4097), 4000, 10**6):
        block = block_steps(trials)
        assert block >= 8
        assert block * trials <= 2**15 < (block + 1) * trials or block == 8
    assert [block_steps(t) for t in (1, 100, 256, 1000, 2048, 4096, 4097)] == [
        2**15, 327, 128, 32, 16, 8, 8]


def test_odd_normal_count_is_a_prefix_of_the_next_even_one():
    for step in (5, np.arange(5, 5 + block_steps(50) + 3)):
        three = counter_normals(3, 1, step, 3, 50)
        four = counter_normals(3, 1, step, 4, 50)
        assert three.shape == four.shape[:-1] + (3,)
        assert three.tobytes() == np.ascontiguousarray(four[..., :3]).tobytes()


def _ulps(got, want) -> float:
    return max(abs(g - w) / math.ulp(w) for g, w in zip(got, want))


def test_portable_log_is_within_two_ulps_of_libm():
    # over log's positive normal inputs, with the ends, 1, points near it
    # and the normals' tail probabilities 1/2 - |q| down to 2^-54; the
    # oracle's scalar copy agrees to the bit
    rng = np.random.default_rng(2024)
    y = np.concatenate([rng.uniform(0, 1, 20000), np.exp(rng.uniform(-700, 700, 20000)),
                        1 + rng.uniform(-1e-3, 1e-3, 20000), np.arange(1, 2001) * 2.0 ** -53,
                        rng.uniform(0, 0.075, 20000), np.arange(1, 2001) * 2.0 ** -54,
                        [2.0 ** -1022, 1.0, 2.0, math.sqrt(0.5), np.nextafter(1.0, 0.0),
                         np.nextafter(1.0, 2.0), sys.float_info.max]])
    got = cosim._log(y)
    assert _ulps(got.tolist(), [math.log(v) for v in y.tolist()]) <= 2
    assert got.tolist() == [portable_log(v) for v in y.tolist()]
    assert cosim._log(np.array([1.0])).tolist() == [0.0]


# the count of normals beyond this R is one of the distribution test's moments
DISTRIBUTION_R = 3.654152885361009


def test_block_normals_match_the_normal_distribution():
    # 10^6 normals of one stream over blocks of steps; thresholds fixed
    # before the first run: 5 standard errors for the mean, variance,
    # skewness, kurtosis and the count beyond R, and the Kolmogorov-Smirnov
    # statistic sqrt(n) D below 1.95 (p = 0.001) against Phi from math.erf
    trials, steps = 1000, 1000
    n = trials * steps
    z = np.concatenate([
        _block_draws(11, 0, np.arange(start, start + 50), 1, trials)[1].ravel()
        for start in range(0, steps, 50)])
    assert z.size == n
    mean, var = z.mean(), z.var()
    c = (z - mean) / math.sqrt(var)
    assert abs(mean) < 5 / math.sqrt(n)
    assert abs(var - 1) < 5 * math.sqrt(2 / n)
    assert abs(np.mean(c ** 3)) < 5 * math.sqrt(6 / n)
    assert abs(np.mean(c ** 4) - 3) < 5 * math.sqrt(24 / n)
    beyond = 2 * 0.5 * math.erfc(DISTRIBUTION_R / math.sqrt(2))  # P(|z| > R)
    assert abs(np.count_nonzero(np.abs(z) > DISTRIBUTION_R) - n * beyond) < \
        5 * math.sqrt(n * beyond)
    z.sort()
    phi = 0.5 * (1 + np.array([math.erf(v) for v in (z / math.sqrt(2)).tolist()]))
    ranks = np.arange(1, n + 1) / n
    d = max(np.max(ranks - phi), np.max(phi - (ranks - 1 / n)))
    assert math.sqrt(n) * d < 1.95


@pytest.mark.skipif(not DISPATCHED, reason="numpy dispatches to no CPU feature here")
def test_trace_bytes_do_not_depend_on_simd_dispatch(scenario, scenario_path):
    # numpy's log, sin and cos round differently on its AVX-512 and baseline
    # paths; the co-simulation uses none of them, so a child with every
    # dispatched feature disabled, as CI's baseline-SIMD step does, writes
    # the trace of this process byte for byte
    def digest(trace):
        out = io.StringIO()
        write_trace_csv(trace, out)
        return hashlib.sha256(out.getvalue().encode()).hexdigest()

    code = ("import hashlib, io, sys\n"
            "from fadectrl import load_scenario\n"
            "from fadectrl.cosim import SimConfig, simulate, write_trace_csv\n"
            "from fadectrl.mas import Schedule\n"
            "out = io.StringIO()\n"
            "write_trace_csv(simulate(load_scenario(sys.argv[1]), Schedule((), (7, 7, 4, 7), 4),"
            " SimConfig(2000, 200, 1)), out)\n"
            "print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    src = str(Path(cosim.__file__).resolve().parents[1])
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(DISPATCHED))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", code, str(scenario_path)], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    assert child.stdout.strip() == digest(simulate(scenario, OPTIMAL, SimConfig(2000, 200, 1)))


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
def test_simulate_matches_stepwise_oracle(scenario, schedule, horizon):
    # both schedules change the success probabilities inside a block; 101
    # trials are enough for the decay check and an odd array extent, and
    # take blocks of 324 steps
    config = SimConfig(horizon, 101, 2**64 - 1)
    _assert_matches_stepwise_oracle(scenario, schedule, config)


@pytest.mark.parametrize("horizon", sorted(_edges(block_steps(1031))))
@pytest.mark.parametrize("schedule", [STARVING, OPTIMAL], ids=["prefix", "cycle"])
def test_simulate_matches_stepwise_oracle_on_short_blocks(scenario, schedule, horizon):
    # past 512 trials a block is shorter than 64 steps
    assert block_steps(1031) < 64
    config = SimConfig(horizon, 1031, 7)
    _assert_matches_stepwise_oracle(scenario, schedule, config)


def _trace_bytes(trace):
    """Every field of a trace, each array as its dtype, shape and bytes."""
    arrays = [*trace.states, trace.deliveries, trace.delivery_counts,
              *trace.decay_mean, *trace.decay_sd, trace.running_cost]
    return ((trace.tau, trace.trials, trace.alpha_slow, trace.inputs_slow, trace.entry_fast),
            [(a.dtype.str, a.shape, a.tobytes()) for a in arrays])


def _assert_matches_stepwise_oracle(scenario, schedule, config):
    horizon = config.horizon_fast
    got = simulate(scenario, schedule, config)
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
def test_simulate_matches_stepwise_oracle_on_mixed_plants(horizon):
    # covers the matmul recursion at dim 3 and the scalar recursion with a
    # noise factor other than 1 (the bundled conveyor's factor is exactly 1)
    scn = load_scenario_text(MIXED_PLANTS)
    assert [p.dim for p in scn.plants] == [3, 1]
    assert scn.plants[1].noise_factor[0, 0] == np.sqrt(2.0)
    _assert_matches_stepwise_oracle(scn, STAY, SimConfig(horizon, 37, 2**63 + 5))


@pytest.mark.parametrize("horizon", [1, block_steps(29) + 1, 2 * block_steps(29) + 3])
def test_simulate_matches_stepwise_oracle_on_quality_weights(horizon):
    # every other scenario here gives its scalar plant Q = 1, so only this
    # one tells q x^2 from x^2 in the decay statistics
    scn = load_scenario_text(QUALITY_WEIGHTS)
    arm, belt = scn.plants
    assert arm.q[0, 1] == 0.7 and belt.q[0, 0] == 2.5
    _assert_matches_stepwise_oracle(scn, STAY, SimConfig(horizon, 29, 11))


def _csv(trace):
    """A trace's CSV, as `write_trace_csv` writes it."""
    out = io.StringIO()
    write_trace_csv(trace, out)
    return out.getvalue()


def test_simulate_matches_stepwise_oracle_on_a_noise_factor_with_a_zero_row(scenario_path):
    # the bundled cell with the arm's noise on its second state alone and no
    # initial plant states: F = [[0, 0], [0, 1]], so w_0 = 0 z_0 + 0 z_1 is a
    # signed zero, -0 only where both normals are negative, and x1_1 at l = 1
    # is that zero plus the arm's row of A times x0 = +0, both entries
    # negative: -0 + w_0.  A noise phase that skipped the factor's zeros
    # above the diagonal would print -0.0 wherever z_0 < 0 < z_1
    text = scenario_path.read_text()
    for old, new in (("noise_cov: identity", "noise_cov: [[0.0, 0.0], [0.0, 1.0]]"),
                     ("simulation:\n  initial_plant_states: [[1.0, 1.0], [1.0]]\n", "")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    scn = load_scenario_text(text)
    assert scn.x0 is None and scn.plants[0].noise_factor.tolist() == [[0.0, 0.0], [0.0, 1.0]]
    first = set()
    for seed in range(1, 41):
        config = SimConfig(5, 2, seed)
        _assert_matches_stepwise_oracle(scn, OPTIMAL, config)
        got = simulate(scn, OPTIMAL, config)
        assert _csv(got) == _csv(stepwise_simulate(scn, OPTIMAL, config)[0])
        first.add(_csv(got).splitlines()[2].split(",")[3])
    assert first == {"0.0", "-0.0"}


# quality weight rows of QUALITY_WEIGHTS' arm that differ by 1e-10, within the
# loader's symmetry tolerance, and a 3-dim plant with a full quality weight
NEAR_SYMMETRIC = QUALITY_WEIGHTS.replace("[[2.0, 0.7], [0.7, 1.5]]",
                                         "[[2.0, 0.3], [0.3000000001, 1.0]]")
FULL_Q_3D = MIXED_PLANTS.replace(
    "quality_weight: lyapunov",
    "quality_weight: [[2.0, 0.5, -0.3], [0.5, 1.5, 0.4], [-0.3, 0.4, 1.0]]")


def test_quality_weight_within_the_symmetry_tolerance_is_stored_exactly_symmetric():
    # V adds a mirrored term Q[e, d] x_e x_d as the Q[d, e] x_d x_e it made
    arm = load_scenario_text(NEAR_SYMMETRIC).plants[0]
    assert arm.q[0, 1] == 0.5 * (0.3 + 0.3000000001)
    assert np.array_equal(arm.q, arm.q.T)


@pytest.mark.parametrize("text", [NEAR_SYMMETRIC, FULL_Q_3D], ids=["near-symmetric", "full-3d"])
def test_decay_statistics_equal_the_ordered_sum_byte_for_byte(text):
    # at dim 3 a term's mirror is never the term before it in (d, e) order;
    # 40 steps take several blocks of 8 at 4096 trials
    scn = load_scenario_text(text)
    assert all(np.count_nonzero(p.q) == p.dim**2 for p in scn.plants)
    for trials in (37, 4096):
        config = SimConfig(40, trials, 2**63 + 5)
        got = simulate(scn, STAY, config)
        full_states = stepwise_simulate(scn, STAY, config)[1]
        for i, (x, plant) in enumerate(zip(full_states, scn.plants, strict=True)):
            mean, sd = ordered_decay_statistics(x, plant)
            assert got.decay_mean[i].tobytes() == mean.tobytes(), (trials, i)
            assert got.decay_sd[i].tobytes() == sd.tobytes(), (trials, i)


@pytest.mark.parametrize("trials", [1, 2])
def test_simulate_few_trials_raises_no_warning(scenario, trials):
    # the per-step sample sd needs two trials; one trial leaves it NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        trace = simulate(scenario, OPTIMAL, SimConfig(300, trials, 1))
    for mean, sd in zip(trace.decay_mean, trace.decay_sd):
        assert np.isfinite(mean).all()
        assert np.isnan(sd).all() if trials == 1 else np.isfinite(sd).all()


def _simulate_peak_bytes(scenario, trials, horizon):
    # every plant runs in this process, one after another, so tracemalloc
    # holds each plant's working set to the budget
    tracemalloc.start()  # numpy reports its array buffers to tracemalloc
    try:
        simulate(scenario, OPTIMAL, SimConfig(horizon, trials, 1))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_trials_times_horizon(scenario):
    # keeping every trial's trajectory costs trials x dim doubles per fast
    # step (38 MB here); streaming keeps one block of them, so a step adds
    # only trial 0's states and deliveries, the delivery counts and two
    # statistics, none of which grows with the trials
    trials, horizon = 400, 4000
    plants = scenario.plants
    full_states = sum(trials * (horizon + 1) * p.dim * 8 for p in plants)
    per_step = 8 * sum(p.dim + 2 for p in plants)
    block = block_steps(trials)
    short = _simulate_peak_bytes(scenario, trials, block)
    long = _simulate_peak_bytes(scenario, trials, horizon)
    assert long < full_states / 2
    assert long - short < 2 * per_step * (horizon - block)


@pytest.mark.parametrize("trials", [100, 1000, 4000])
def test_simulate_working_set_does_not_grow_with_trials(scenario, trials):
    # a block holds about 2**15 trial-steps whatever the trial count (327
    # steps at 100 trials, 8 at 4000), and
    # only trial 0's deliveries are kept, so the traced peak stays within one
    # budget: 5.2 and 17.8 MiB here when every trial's deliveries were kept
    assert _simulate_peak_bytes(scenario, trials, 2000) < 4 * 2**20


def _digests(trace):
    """SHA-256 of each array of a trace, in field order, and of its CSV."""
    arrays = [*trace.states, trace.deliveries, trace.delivery_counts, trace.running_cost,
              *trace.decay_mean, *trace.decay_sd]
    return ([hashlib.sha256(a.tobytes()).hexdigest() for a in arrays],
            hashlib.sha256(_csv(trace).encode()).hexdigest())


@pytest.mark.parametrize("trials", [100, 1000])
def test_trace_bytes_do_not_depend_on_the_block(scenario, trials, monkeypatch):
    # a draw depends on its counters alone and each step's arithmetic and
    # statistics on its own rows, so every split of the horizon into blocks,
    # and of the key table into spans, gives the same trace bytes:
    # `block_steps` may pick the block for speed alone.  655 steps end in a one-step block at 327, the default
    # at 100 trials, and 32 is the default at 1000; 10 key steps make a table
    # per two blocks of 7 steps and per block of 64
    config = SimConfig(655, trials, 2**64 - 1)
    want = _digests(simulate(scenario, OPTIMAL, config))
    assert block_steps(trials) in (32, 327)
    splits = [(block, cosim._KEY_STEPS) for block in (1, 7, 32, 64, 327, config.horizon_fast)]
    for block, key_steps in splits + [(7, 10), (64, 10)]:
        monkeypatch.setattr(cosim, "block_steps", lambda trials, block=block: block)
        monkeypatch.setattr(cosim, "_KEY_STEPS", key_steps)
        assert _digests(simulate(scenario, OPTIMAL, config)) == want, (block, key_steps)


# `_digests` of the bundled cell's trace at seed 1 over 1000 trials x 2000
# fast steps, the benchmark's cell_mc_wide shape: each plant's path, the
# deliveries, the delivery counts, the running cost, each plant's decay mean,
# each plant's decay sd; and the CSV
BENCHMARK_SHAPE_SHA256 = ([
    "01af6337a4dc1d67689ebb64b6e7d5fd9c961d391655e2547c44659ab604f473",
    "733bc6b3dc9eabc7dbef8b84344671e9beb6798914c9fc9f4154e959a95ff3fc",
    "c37aafedeb3bdad43fbbb04f27fdaa35719c4f8c55e60b8f50d072f2ca7a3c98",
    "885c835214fe0700452f91692a8ae8fc2f228adaeb48c08927f5c5822fc65ac3",
    "1a4a04209dd0aaa86bfc7cf1bc26b953f0b38945de9c17e70552c1db76af193b",
    "3714f016b2c42b36db270506079abe46aa8937d4a4f9991d2e3aba370b716bed",
    "ec136ac30e6b1ea78c0429328137a9bb59b6b5628cb5f6f47321a9876644f963",
    "ddf4c732e431812e26af201ffa05e390b962ef1f00eb6350e89d05600cb5cc4b",
    "33ca1e3c5144e0e9ddd37ea9c3217b104c4c133ab44dca1324b2b0c39fe0e839",
], "cca4158e2f0ac7294ad96ce25e772b482e5e26ea5b73423c255f75681411eec1")


def test_benchmark_shape_trace_is_pinned(scenario):
    # the golden digests cover 100 trials x 400 steps, one block; here a
    # block is a few dozen steps of 1000 trials
    config = SimConfig(2000, 1000, 1)
    assert _digests(simulate(scenario, OPTIMAL, config)) == BENCHMARK_SHAPE_SHA256


def test_simulate_needs_success_coverage(scenario):
    gutted = dataclasses.replace(scenario, transmit=None)
    with pytest.raises(PreconditionViolated):
        simulate(gutted, OPTIMAL, SimConfig(40, 4, 1))


# ── Group 3b: plants in the calling process ──────────────────────────────────

def _rollout_failing(monkeypatch, plant, error=None, warning=None):
    """Make plant `plant`'s rollout warn and then raise (or go on)."""
    rollout = cosim._rollout

    def patched(seed, i, *args):
        if i == plant:
            if warning:
                warnings.warn(warning, RuntimeWarning)
            if error:
                raise error
        return rollout(seed, i, *args)

    monkeypatch.setattr(cosim, "_rollout", patched)


def test_simulate_never_forks(scenario, monkeypatch):
    # two plants and two usable CPUs: once enough to fork a worker
    def fork():
        raise AssertionError("simulate forked")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    trace = simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert len(trace.states) == len(scenario.plants) == 2


class _AllocationFailed(MemoryError):
    """Built from a shape and a dtype, as numpy's allocation error is."""

    def __init__(self, shape, dtype):
        super().__init__("Unable to allocate 1.00 TiB for an array with shape %s and "
                         "data type %s" % (shape, dtype))


@pytest.mark.parametrize("plant", [0, 1])
@pytest.mark.parametrize("error, args", [
    (ScheduleViolation, ("plant failed",)),
    (ValueOutOfRange, ("plant failed",)),
    (_AllocationFailed, ((2**37,), "float64")),
    (KeyboardInterrupt, ()),
], ids=["schedule", "range", "allocation", "interrupt"])
def test_a_rollout_error_reaches_the_caller_as_its_own_type_and_message(scenario, monkeypatch,
                                                                        plant, error, args):
    # numpy's allocation error, built from (shape, dtype), and an interrupt
    # come back unchanged too; the first error ends the run, so no later
    # plant's rollout starts
    started, rollout = [], cosim._rollout

    def counted(seed, i, *rest):
        started.append(i)
        return rollout(seed, i, *rest)

    monkeypatch.setattr(cosim, "_rollout", counted)
    _rollout_failing(monkeypatch, plant, error(*args))
    with pytest.raises(error) as caught:
        simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert type(caught.value) is error
    assert str(caught.value) == str(error(*args))
    assert started == list(range(plant))


@pytest.mark.parametrize("changed, old, new", [
    (0, "a_open: [[-1.0, -0.4]", "a_open: [[-0.9, -0.4]"),
    (1, "a_open: 1.0\n", "a_open: 1.1\n"),
])
def test_a_plant_rows_do_not_depend_on_the_other_plants(scenario_path, changed, old, new):
    # one plant's open loop changed: the other plant's path, deliveries,
    # delivery counts and decay statistics keep their bytes, since each
    # rollout draws from its own plant's streams alone
    text = scenario_path.read_text()
    assert text.count(old) == 1
    config = SimConfig(400, 100, 1)
    traces = [simulate(load_scenario_text(t), OPTIMAL, config)
              for t in (text, text.replace(old, new))]

    def rows(trace, i):
        return [np.ascontiguousarray(a).tobytes() for a in (
            trace.states[i], trace.deliveries[:, i], trace.delivery_counts[:, i],
            trace.decay_mean[i], trace.decay_sd[i])]

    other = 1 - changed
    assert rows(traces[1], other) == rows(traces[0], other)
    assert traces[1].states[changed].tobytes() != traces[0].states[changed].tobytes()


def test_a_rollout_warning_reaches_the_caller_and_nothing_is_written(scenario, monkeypatch,
                                                                      capfd):
    want = _trace_bytes(simulate(scenario, OPTIMAL, SimConfig(80, 16, 1)))
    _rollout_failing(monkeypatch, 1, warning="plant 1 warned")
    with pytest.warns(RuntimeWarning, match=r"^plant 1 warned$") as caught:
        trace = simulate(scenario, OPTIMAL, SimConfig(80, 16, 1))
    assert len(caught) == 1
    assert _trace_bytes(trace) == want
    assert capfd.readouterr() == ("", "")


def _overflowing_cell(scenario_path):
    """The bundled cell with both plants' open loops at 1e100: every plant
    step overflows, at several lines of each rollout."""
    text = scenario_path.read_text()
    for old, new in (("a_open: [[-1.0, -0.4]", "a_open: [[-1.0e+100, -0.4]"),
                     ("a_open: 1.0\n", "a_open: 1.0e+100\n")):
        assert text.count(old) == 1
        text = text.replace(old, new)
    return load_scenario_text(text)


@pytest.mark.parametrize("trials, step", [(100, 0), (1, 1)])
def test_a_plant_leaving_float64_range_is_one_located_error(scenario_path, trials, step):
    # the arm, rolled out first, overflows at once: its sd at step 0 (r * r
    # past 1e308) or, for one trial, whose sd is NaN by design, its V at
    # step 1.  simulate used to print numpy's RuntimeWarnings, one per line
    # and plant, and return a trace of inf and nan
    scn = _overflowing_cell(scenario_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueOutOfRange) as caught:
            simulate(scn, OPTIMAL, SimConfig(400, trials, 1))
    assert str(caught.value) == ("plant arm leaves float64 range at fast step %d: its state "
                                 "or decay statistics are not finite" % step)


def test_physical_memory_probe(monkeypatch):
    memory = cosim._physical_memory()
    assert memory is None or memory > 2**20

    def unknown(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "sysconf", unknown, raising=False)
    assert cosim._physical_memory() is None


def test_a_horizon_past_physical_memory_is_a_memory_error_before_the_replay(scenario,
                                                                            monkeypatch):
    # the bundled cell keeps 40 + (8 x 2 + 34) + (8 x 1 + 34) = 132 bytes per
    # fast step: 7 steps fit in 1000 bytes and 8 do not
    replays, replay = [], cosim._replay_slow
    monkeypatch.setattr(cosim, "_replay_slow", lambda *a: replays.append(a) or replay(*a))
    monkeypatch.setattr(cosim, "_physical_memory", lambda: 1000)
    with pytest.raises(MemoryError, match=r"^a horizon of 8 fast steps needs 1056 bytes, "
                                          r"more than the 1000 bytes of physical memory$"):
        simulate(scenario, OPTIMAL, SimConfig(8, 4, 1))
    assert replays == []
    assert simulate(scenario, OPTIMAL, SimConfig(7, 4, 1)).horizon == 7
    assert len(replays) == 1
    monkeypatch.setattr(cosim, "_physical_memory", lambda: None)  # not known: not checked
    assert simulate(scenario, OPTIMAL, SimConfig(8, 4, 1)).horizon == 8


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
    arm = empirical_lyapunov_check(trace).plants[0]
    assert arm.passed and arm.worst_margin > 0
    # the conveyor's 3-sigma verdict is a coin flip per seed: at state 5 its
    # exact one-step factor is 0.1 - 0.96 x 0.10 = +0.004, so its expected
    # residual there is positive.  Its decay mean is held to the exact
    # second-moment reference instead
    z = decay_mean_z(trace, expected_decay_residual(scenario, OPTIMAL, 160), 1)
    assert np.abs(z).max() < STEP_Z


# Fixed before the first run: per-step z bound over 160 steps (two-sided
# normal tail 6.8e-6 a step), and the across-seed bias check's seeds,
# trials and bound on a t statistic with 19 degrees of freedom (2.5e-4 a
# test, 8 tests)
STEP_Z = 4.5
BIAS_SEEDS = range(1, 21)
BIAS_TRIALS = 500
BIAS_Z = 4.5


def test_decay_mean_is_unbiased_against_the_exact_second_moments(scenario):
    # each seed's mean error over each slow step is one batch value; the
    # seeds are independent, so the batch means' t statistic tests the
    # co-simulation's normals, deliveries and recursion for bias
    horizon, tau = 160, scenario.cost.tau
    exact = expected_decay_residual(scenario, OPTIMAL, horizon)
    batches = np.array([
        [(mean - want).reshape(-1, tau).mean(axis=1)
         for mean, want in zip(simulate(scenario, OPTIMAL,
                                        SimConfig(horizon, BIAS_TRIALS, seed)).decay_mean,
                               exact, strict=True)]
        for seed in BIAS_SEEDS])  # (seeds, plants, slow steps)
    t = batches.mean(axis=0) / (batches.std(axis=0, ddof=1) / math.sqrt(len(BIAS_SEEDS)))
    assert t.shape == (2, 4)
    assert np.abs(t).max() < BIAS_Z, t


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
