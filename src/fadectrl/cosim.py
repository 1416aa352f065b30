"""Two-time-scale Monte-Carlo co-simulation of plants, links, and agents.

Agents move on the slow scale k; plants and radios run on the fast
scale l with tau fast steps per slow step (k = floor(l / tau)).  At
fast step l each link i delivers independently with the success
probability of the current agent state, and each plant applies its
closed- or open-loop matrix accordingly plus Gaussian process noise,
from the scenario's initial plant states (zeros when it gives none).

Randomness is a stateless counter construction on the splitmix64
finalizer: every draw is keyed by (seed, stream, step, draw, trial)
with stream 2*i for link i's deliveries and 2*i+1 for plant i's noise,
so results are bit-reproducible and independent of evaluation order
(parallel trials would reproduce the serial run exactly).  Since a key
depends on its counter alone, each plant's rollout derives its keys in
one table (`_plant_keys`): a row per draw of a step, the delivery draw
and one noise draw per dimension, and a column per fast step.  One table
covers the whole rollout up to 4096 steps; a longer one takes a table
per span of whole blocks of at least 4096 steps.  A block of fast steps
then reads its columns, hashes them with the trial counters in one
`counter_uniforms` call, and runs only the plant recursion step by step.

Each noise uniform u = (b + 1) 2^-53 becomes one normal, the inverse
normal CDF at the midpoint of its cell, q = (u - 1/2) - 2^-54, by
Wichura's AS241 (the algorithm of statistics.NormalDist.inv_cdf, about
1e-16 relative error).  q is exact and never 0, so no normal is +-0 or
infinite, draws b and 2^53 - 1 - b give x and -x, and the tails are
truncated: past about 8.1 sigma only the outermost cells' midpoints
occur, and nothing beyond 8.29 sigma.  A normal depends on its
own uniform alone: there is no rejection and no further draw, so not on
the block or the plant's dimension either.  The central rational runs on
every draw, and the draws past |q| = 0.425, about 15 %, are gathered from
every noise row of the block for the tail's rational in r = sqrt(-log(1/2
- |q|)) in one pass.  Every operation is an exact IEEE one, the
logarithm included (`_log`, from frexp, +, -, x and /), and sqrt:
numpy's transcendental functions, whose last bits depend on the SIMD path
it dispatches to, are not used, so a trace is the same bytes on every CPU.

A block is `block_steps(trials)` fast steps, 2**15 // trials but at
least 8, so its arrays hold at most 2**15 trial-steps (256 KiB of
doubles, which stay in a 2 MiB L2 cache) up to 4096 trials, and
8 x trials past that; the numpy calls a block pays beyond its steps
(about 40 per noise row and 100 for the tails of the normals, the
hashing's set-up, about 25 for V and the statistics) are spread over as
many steps as that budget allows (327 at 100 trials, 32 at 1000).
The trace is the same bytes for every block: each step's statistics are
reduced in trial order, a one-step block's included.  The states are
streamed through a plant-major working buffer of shape
(block + 1, dim, trials) per plant, and every other array of trials x
steps a block needs is a view of one arena per rollout (`_Arena`),
written with out=: the draws, the normals' scratch, the noise's
terms, the step matrices' index and the decay statistics take its slabs
phase after phase, so no block allocates such an array and the C
library never maps and faults one in again.
Every plant dimension takes the same step, with each sum in index order
on elementwise numpy operations, so a trace is the same on every BLAS
kernel: noise w_e = sum_d F[e, d] z_d (F the Cholesky factor), step
x'_e = sum_d A[e, d] x_d + w_e (A each trial's closed- or open-loop
matrix), and V = sum_{d, e} Q[d, e] x_d x_e.  A fast step is one take
of the step matrices, one product with x into scratch, dim - 1 adds for
the sums over d and one add into x'; V's first term is written in place,
and a term whose mirror was made just before adds that product again.
After each block the across-trial mean and sample standard deviation of
the decay residual V(x(l+1)) - rho V(x(l)) - tr(Q Xi) are recorded per
fast step, trial 0's path and deliveries are kept for the CSV, each
step's count of trials whose packet arrived is recorded, and the block's
last state carries over.  Memory is a few block arrays, a key table of fewer than
4096 + block steps, and a few values per fast step, link and plant
dimension, O(trials x block + horizon x (links + dims)): nothing grows
with trials x horizon.

Once the agent tour is replayed, the plants share nothing: each one's
rollout (`_rollout`) reads its own streams and its link's success
probabilities and returns its arrays.  `simulate` runs them one after
another in the calling process, so a rollout's warning or error reaches
the caller as every other stage's does.  Before the replay it checks
that the arrays it keeps per fast step fit in physical memory, so a
horizon too long for the machine is a MemoryError naming the bytes, not
a process the kernel kills part way through.

The running-average cost column is deterministic: the radio power term
enters through its per-state expectation, not the sampled deliveries,
matching the cost functional the synthesizer optimizes.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .channel import expected_power
from .errors import DimensionMismatch, InsufficientTrials, ValueOutOfRange
from .mas import Schedule, _replay_slow

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# splitmix64 finalizer: z ^= z >> shift, then z *= mult, twice; then z ^= z >> 31
_FIN_ROUNDS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
               (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_U64_MAX = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
_INV_2_54 = 2.0 ** -54
# trials the decay check needs before its 3-sigma rule is applied
MIN_CHECK_TRIALS = 100
# trace rows `write_trace_csv` turns into Python objects at a time
_CSV_CHUNK_ROWS = 256
# the fewest fast steps one key table of a rollout covers, in whole blocks
_KEY_STEPS = 4096

# fdlibm's split of ln 2: k * _LN2_HI is exact for |k| < 2**20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_SQRT_HALF = 0.7071067811865476
# Taylor coefficients, highest degree first: log((1 + s) / (1 - s)) = 2s +
# s (2s^2/3 + .. + 2s^20/21)
_LOG_COEFFS = tuple(2.0 / (2 * j + 1) for j in range(10, 0, -1))
# Wichura's AS241 (Applied Statistics 37, 1988), the inverse normal CDF of
# statistics.NormalDist.inv_cdf, coefficients highest degree first: for
# |q| <= 0.425 a rational in r = 0.180625 - q^2, and past it one in
# r = sqrt(-log(1/2 - |q|)) less 1.6 for r <= 5 (`_NEAR`), less 5 beyond
# (`_FAR`), each a (shift, numerator, denominator)
_CENTRAL_NUM = (2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4,
                6.72657_70927_00870_0853e+4, 4.59219_53931_54987_1457e+4,
                1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
                1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0)
_CENTRAL_DEN = (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4,
                3.93078_95800_09271_0610e+4, 2.12137_94301_58659_5867e+4,
                5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
                4.23133_30701_60091_1252e+1, 1.0)
_NEAR = (1.6,
         (7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2,
          2.41780_72517_74506_11770e-1, 1.27045_82524_52368_38258e+0,
          3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
          4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
         (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4,
          1.51986_66563_61645_71966e-2, 1.48103_97642_74800_74590e-1,
          6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
          2.05319_16266_37758_82187e+0, 1.0))
_FAR = (5.0,
        (2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5,
         1.24266_09473_88078_43860e-3, 2.65321_89526_57612_30930e-2,
         2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
         5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
        (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7,
         1.84631_83175_10054_68180e-5, 7.86869_13114_56132_59100e-4,
         1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
         5.99832_20655_58879_37690e-1, 1.0))


def _horner(coeffs, r, out):
    """The polynomial in r with `coeffs`, highest degree first, by Horner's
    rule into `out`."""
    np.multiply(r, coeffs[0], out=out)
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= r
        out += c
    return out


def _log(x):
    """log(x) for a float64 array of positive normal numbers, within an ulp
    of libm, from frexp, +, -, x and / alone (fdlibm's reduction: x = 2^e m
    with m in [sqrt(1/2), sqrt(2)), f = m - 1 and s = f / (2 + f)), as
    k ln2_hi - ((f^2 / 2 - (s (f^2 / 2 + R(s^2)) + k ln2_lo)) - f)."""
    f, e = np.frexp(x)
    low = f < _SQRT_HALF
    e -= low
    k = e.astype(np.float64)
    f *= low + 1.0  # 2f, exactly, where low
    f -= 1.0
    s = f + 2.0
    np.divide(f, s, out=s)
    z = s * s
    r = _horner(_LOG_COEFFS, z, np.empty_like(z))
    r *= z
    hfsq = np.multiply(f, f, out=z)
    hfsq *= 0.5
    r += hfsq
    r *= s
    r += np.multiply(k, _LN2_LO, out=s)
    hfsq -= r
    hfsq -= f
    k *= _LN2_HI
    k -= hfsq
    return k


def _fin(z, t=None):
    """splitmix64 finalizer, elementwise and in place on a uint64 array,
    with t (the shape of z) or a new array as its one scratch array."""
    t = np.empty_like(z) if t is None else t
    for shift, mult in _FIN_ROUNDS:
        z ^= np.right_shift(z, shift, out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _chain(key, *counters):
    """The finalizer chained from `key` over broadcast uint64 arrays of
    counters in turn: key = fin(key + (counter + 1) * golden).  On arrays
    only, since numpy wraps uint64 arrays silently but warns when a scalar
    overflows."""
    for counter in counters:
        key = _fin(key + (counter + np.uint64(1)) * _GOLDEN)
    return key


def _to_uniforms(bits):
    """The top 53 bits b of each hash as (b + 1) 2^-53, in place: a float64
    view of `bits`.  The cast runs on flat views, which numpy copies
    element for element; a cast between overlapping arrays of more
    dimensions first copies the whole input.  It reads b as int64, whose
    cast is faster than uint64's: b < 2^53, so both are exact."""
    bits >>= np.uint64(11)
    u = bits.view(np.float64)
    np.copyto(u.reshape(-1), bits.view(np.int64).reshape(-1), casting="unsafe")
    u += 1.0
    u *= _INV_2_53
    return u


def block_steps(trials: int) -> int:
    """Fast steps `simulate` advances at once: 2**15 trial-steps, but never
    fewer than 8."""
    return max(8, 2**15 // trials)


def counter_keys(seed: int, stream, step, draw):
    """The keys of keyed substreams, for `counter_uniforms`.

    `step` is a fast step or a 1-D array of them, giving one key per step.
    `stream` and `draw` are one substream's, or paired 1-D arrays naming
    one substream each, giving a leading axis: the result has shape
    np.shape(stream) + np.shape(step), and every key equals the
    single-step, single-substream one."""
    steps, streams, draws = (np.atleast_1d(np.asarray(c, dtype=np.uint64))
                             for c in (step, stream, draw))
    if steps.ndim != 1 or streams.ndim != 1 or np.shape(stream) != np.shape(draw):
        raise DimensionMismatch("step must be a scalar or a 1-D array, and "
                                "stream and draw scalars or paired 1-D arrays")
    # the stream, step and draw counters in turn
    key = _chain(np.uint64(seed), streams[:, None], steps, draws[:, None])
    return key.reshape(np.shape(stream) + np.shape(step))


def counter_uniforms(keys, trials: int, out=None, scratch=None):
    """One uniform in (0, 1] per trial for each of the uint64 `keys`
    (`counter_keys`), of shape keys.shape + (trials,).  The result is
    written into `out` where given, a C-contiguous float64 array of its
    shape, and the hashing runs one row of keys' leading axis at a time
    with `scratch`, a uint64 array of one row's keys x trials, or a new one.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    tids = np.arange(1, trials + 1, dtype=np.uint64)
    tids *= _GOLDEN
    shape = keys.shape + (trials,)
    bits = np.empty(shape, np.uint64) if out is None else out.view(np.uint64).reshape(shape)
    np.add(keys[..., None], tids, out=bits)
    rows = bits.reshape(-1, math.prod(shape[1:]) if keys.ndim > 1 else bits.size)
    scratch = np.empty(rows.shape[1], np.uint64) if scratch is None else scratch.reshape(-1)
    for row in rows:
        _fin(row, scratch)
    return _to_uniforms(bits)  # in place: no second array of the draws


def _plant_keys(seed: int, i: int, dim: int, steps):
    """Plant i's keys over the fast steps `steps`, (1 + dim, steps): one row
    per row of its draws, the delivery draw of stream 2i, then noise draws
    0..dim-1 of stream 2i+1 (`counter_keys`)."""
    return counter_keys(seed, [2 * i] + [2 * i + 1] * dim, steps, [0, *range(dim)])


def _tail(rational, r):
    """AS241's tail rational `rational`, (shift, numerator, denominator),
    at r = sqrt(-log p)."""
    shift, num, den = rational
    r = r - shift
    x = _horner(num, r, np.empty_like(r))
    x /= _horner(den, r, np.empty_like(r))
    return x


def _normals(z, r, den, tail):
    """Standard normals in place on uniforms z (rows, ...) of the form
    (b + 1) 2^-53, with float64 scratch r and den and boolean scratch
    `tail`, each of one row's shape.  Each is the normal at the midpoint of
    its uniform's cell, q = (u - 1/2) - 2^-54 (exact), by AS241: x =
    N(r) (q / D(r)) on every draw, row by row, then the draws with
    |q| > 0.425, gathered from every row, take the tail's rational in one
    pass and their sign from q."""
    z -= 0.5
    z -= _INV_2_54
    at, qs = [], []
    for d, q in enumerate(z):
        np.greater(np.abs(q, out=r), 0.425, out=tail)
        at.append(np.flatnonzero(tail))
        qs.append(q.take(at[-1]))
        at[-1] += d * q.size
        np.multiply(q, q, out=r)
        np.subtract(0.180625, r, out=r)
        np.divide(q, _horner(_CENTRAL_DEN, r, den), out=den)
        _horner(_CENTRAL_NUM, r, q)
        q *= den
    q = np.concatenate(qs)
    # r = sqrt(-log p) of the tail probability p = 1/2 - |q| >= 2^-54, exact
    r = _log(np.subtract(0.5, np.abs(q)))
    np.sqrt(np.negative(r, out=r), out=r)
    x = _tail(_NEAR, r)
    far = np.flatnonzero(r > 5.0)
    x[far] = _tail(_FAR, r[far])
    z.reshape(-1)[np.concatenate(at)] = np.copysign(x, q, out=x)
    return z


def _plant_draws(keys, trials: int, arena):
    """A plant's draws for a block of steps from one `counter_uniforms` call
    on the block's columns of its `_plant_keys`: the delivery uniforms,
    (steps, trials), and the noise normals z, (dim, steps, trials), each
    equal to its own per-stream call (`_normals`).  Both are views of
    `arena` (an `_Arena`), the draws in its first 1 + dim slabs; the
    hashing's scratch and then r take the next slab, D the arena's state
    rows past the first, and the tail mask its flags."""
    dim = len(keys) - 1
    shape = (keys.shape[1], trials)
    draws = arena(0, (1 + dim,) + shape)
    r = arena(1 + dim, shape)
    counter_uniforms(keys, trials, out=draws, scratch=r.view(np.uint64))
    den = arena.states[1:].reshape(-1)[: r.size].reshape(shape)
    return draws[0], _normals(draws[1:], r, den, arena.flags[: r.size].reshape(shape))


class _Arena:
    """One rollout's working memory, so that no block allocates (and the C
    library neither maps nor faults in) an array of trials x steps.

    `states` is the plant-major state buffer, (block + 1, dim, trials):
    row 0 holds the state carried into a block, rows 1.. its states.
    Every other array of a block is a view of `data`, phase after phase,
    in slabs of block x trials doubles: the draws, 1 + dim, with one more
    for the hashing's and the normals' scratch; then the normals stay
    in slabs 1..dim while the noise's terms take slab 0; then slab 0 holds
    the step matrices' index, and the 2 dim^2 + dim rows past it one step's
    matrices, their products and sums; then V and the residuals,
    2 (block + 1) rows.
    `flags` holds one boolean array of a block: the normals' tail mask,
    then the deliveries."""

    def __init__(self, dim: int, block: int, trials: int):
        self.states = np.zeros((block + 1, dim, trials))
        self.slab = block * trials
        self.data = np.empty(max((2 + dim) * block, 2 * block + 2, block + 2 * dim * dim + dim)
                             * trials)
        self.flags = np.empty(self.slab, np.bool_)

    def __call__(self, slab: int, shape, dtype=np.float64, offset: int = 0):
        """An array of `shape` and `dtype` from slab `slab` on, `offset`
        elements past its start."""
        start = self.data[slab * self.slab + offset :].view(dtype)
        return start[: math.prod(shape)].reshape(shape)


@dataclass(frozen=True)
class SimConfig:
    horizon_fast: int
    trials: int
    seed: int

    def __post_init__(self):
        if self.horizon_fast < 1:
            raise ValueOutOfRange("horizon must be >= 1 fast steps")
        if self.trials < 1:
            raise ValueOutOfRange("need at least one trial")
        if not 0 <= self.seed <= _U64_MAX:
            raise ValueOutOfRange("seed must fit in 64 bits")


@dataclass
class SimTrace:
    tau: int
    trials: int
    alpha_slow: tuple
    inputs_slow: tuple
    states: tuple          # per plant: trial 0's path, (horizon+1, dim)
    deliveries: np.ndarray  # trial 0's, (horizon, links) of 0/1
    # (horizon, links): the number of trials whose packet arrived at each step
    delivery_counts: np.ndarray
    running_cost: np.ndarray
    entry_fast: int
    # per plant, (horizon,): across-trial mean and sample sd (NaN for one
    # trial) of V(x(l+1)) - rho V(x(l)) - tr(Q Xi) at each fast step l
    decay_mean: tuple
    decay_sd: tuple

    @property
    def horizon(self) -> int:
        return self.deliveries.shape[0]


def _slow_steps(tau: int, horizon: int) -> np.ndarray:
    """Slow step l // tau of each fast step l < horizon.  Dividing by
    min(tau, horizon) gives the same quotients (all 0 when tau >= horizon)
    and keeps a tau past 64 bits out of numpy."""
    return np.arange(horizon) // min(tau, horizon)


def _running_average(scenario, alpha_slow, inputs_slow, horizon: int) -> np.ndarray:
    """Deterministic running average of the joint cost over fast steps."""
    cost = scenario.cost
    power = {a: float(expected_power(scenario, a)) for a in set(alpha_slow)}
    lam = float(cost.lam)
    tau = cost.tau
    per_fast = np.array([power[a] for a in alpha_slow])[_slow_steps(tau, horizon)]
    per_fast[::tau] += [lam * float(cost.input_cost(a, u))
                        for a, u in zip(alpha_slow, inputs_slow)]
    return np.cumsum(per_fast) / np.arange(1, horizon + 1)


def _rollout(seed: int, i: int, plant, x0, success, state_cols, trials: int):
    """Monte-Carlo rollout of plant i over the fast steps of `state_cols`
    (each step's column of `success`, its link's success probabilities),
    from the initial state x0 (zeros for None).  Returns trial 0's path
    (horizon + 1, dim) and deliveries (horizon,) of 0/1, the per-step
    delivery counts, and the decay residual's per-step mean and sample sd
    (NaN for one trial).  It reads nothing of any other plant.  A state,
    V or statistic past float64's range raises ValueOutOfRange naming the
    plant and the first fast step whose statistics it reaches.

    Every array of trials x steps a block needs is a view of one arena
    (`_Arena`) allocated here, written with out=, phase after phase: the
    draws, the noise's terms, the step matrices' index, V and the
    residuals.  The noise w goes straight into the state rows past the
    carried state, and each step adds A x to its row."""
    horizon = len(state_cols)
    path, delivered = np.empty((horizon + 1, plant.dim)), np.empty(horizon, dtype=np.uint8)
    # the statistics keep one spare step past the horizon (see below)
    counts, decay_mean = np.empty(horizon, dtype=np.int64), np.empty(horizon + 1)
    decay_sd = np.full(horizon + 1, np.nan)
    block = min(block_steps(trials), horizon)
    dim = plant.dim
    dims = range(dim)
    arena = _Arena(dim, block, trials)
    x = arena.states
    # (dim^2, 2): each matrix entry of A_o and of A_c, indexed by delivery
    matrices = np.stack([plant.a_o, plant.a_c], axis=-1).reshape(dim * dim, 2)
    if x0 is not None:  # the loader checked the vector's length
        x[0] = np.reshape(x0, (dim, 1))
    # the keys of `span` steps at a time, a whole number of blocks: one table
    # up to 4096 steps, and none that grows with the horizon past that
    span = block * -(-_KEY_STEPS // block)
    for start in range(0, horizon, block):
        stop = min(start + block, horizon)
        n = stop - start
        if start % span == 0:
            keys = _plant_keys(seed, i, dim, np.arange(start, min(start + span, horizon)))
        uniforms, z = _plant_draws(keys[:, start % span : start % span + n], trials, arena)
        ok = np.less_equal(uniforms, success[state_cols[start:stop], None],
                           out=arena.flags[: n * trials].reshape(n, trials))
        delivered[start:stop] = ok[:, 0]
        counts[start:stop] = np.count_nonzero(ok, axis=1)
        # the float phases: a plant the schedule lets grow past float64's
        # range leaves inf and nan in them, which the check below locates
        with np.errstate(over="ignore", invalid="ignore"):
            # the noise w_e = sum_d F[e, d] z_d, each sum in index order, goes
            # into rows 1..n of x; the delivery draws' slab takes the terms
            term = arena(0, (n, trials))
            for e in dims:
                w_e = np.multiply(z[0], plant.noise_factor[e, 0], out=x[1 : n + 1, e])
                for d in dims[1:]:
                    w_e += np.multiply(z[d], plant.noise_factor[e, d], out=term)
            # x' = (sum_d A[e, d] x_d) + w, each sum in index order (w + sum is
            # the same sum), with each trial's step matrix picked per step: A_c
            # where its packet arrived, else A_o
            index = arena(0, (n, trials), np.intp)
            index[...] = ok
            # a step's matrices, their products A[e, d] x_d and the sums over d
            # follow the index in slab 0; at dim 1 the one product is the sum
            a = arena(0, (dim, dim, trials), offset=n * trials)
            prod = arena(0, (dim, dim, trials), offset=(n + dim * dim) * trials)
            a_flat = a.reshape(dim * dim, trials)
            total = (arena(0, (dim, trials), offset=(n + 2 * dim * dim) * trials) if dim > 1
                     else prod[:, 0])
            for x_l, x_next, index_l in zip(x, x[1:], index):
                matrices.take(index_l, axis=1, out=a_flat, mode="clip")
                np.multiply(a, x_l, out=prod)
                if dim > 1:
                    np.add(prod[:, 0], prod[:, 1], out=total)
                    for d in dims[2:]:
                        total += prod[:, d]
                x_next += total
            # V = sum_{d, e} Q[d, e] x_d x_e in (d, e) order.  The first term
            # Q[0, 0] x_0^2 is >= +0 (Q is positive definite), so it is the sum
            # so far, 0 + it; Q is exactly symmetric and x_d x_e = x_e x_d, so
            # a term whose mirror was the last one made (the (1, 0) one at dim 2)
            # adds that one again
            v = arena(0, (n + 1, trials))
            vterm = arena(0, (n + 1, trials), offset=(n + 1) * trials)
            xs = x[: n + 1]
            np.multiply(xs[:, 0], xs[:, 0], out=v)
            v *= plant.q[0, 0]
            made = (0, 0)
            for d, e in list(itertools.product(dims, dims))[1:]:
                if made != (e, d):
                    np.multiply(xs[:, d], xs[:, e], out=vterm)
                    vterm *= plant.q[d, e]
                    made = (d, e)
                v += vterm
            # V(x(l+1)) - rho V(x(l)) - tr(Q Xi), then as (trials, m), C-contiguous
            # with m = max(n, 2) columns: reducing over its rows adds in trial
            # order, as numpy's mean and std do, where one column alone would be
            # summed pairwise.  A one-step block's column of zeros lands on the
            # spare step, which the next block overwrites or the return drops
            residual = np.multiply(v[:-1], float(plant.rho), out=vterm[:n])
            np.subtract(v[1:], residual, out=residual)
            residual -= plant.q_xi_trace
            m = max(n, 2)
            r = arena(0, (trials, m))
            if n == 1:
                r[:, 1] = 0.0
            np.copyto(r[:, :n], residual.T)
            mean = np.add.reduce(r, axis=0, out=decay_mean[start : start + m])
            mean /= trials
            if trials > 1:  # one trial has no sample sd
                r -= mean
                r *= r
                sd = np.add.reduce(r, axis=0, out=decay_sd[start : start + m])
                sd /= trials - 1
                np.sqrt(sd, out=sd)
        finite = np.isfinite(decay_mean[start:stop])
        if trials > 1:  # one trial's sd is NaN by design
            finite &= np.isfinite(decay_sd[start:stop])
        if not finite.all():
            raise ValueOutOfRange(
                "plant %s leaves float64 range at fast step %d: its state or decay "
                "statistics are not finite" % (plant.name or i + 1,
                                               start + int(np.argmin(finite))))
        path[start : stop + 1] = x[: n + 1, :, 0]
        x[0] = x[n]
    return path, delivered, counts, decay_mean[:horizon], decay_sd[:horizon]


def _physical_memory():
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return None
    return page * pages if page > 0 and pages > 0 else None


def simulate(scenario, schedule: Schedule, config: SimConfig) -> SimTrace:
    """Monte-Carlo rollout of all plants under the scheduled agent tour.

    The tour fixes every link's success probability at every fast step, so
    each plant's rollout is an independent job (`_rollout`), run here one
    plant after another.  A horizon whose per-fast-step arrays do not fit
    in physical memory is a MemoryError before any of them is made."""
    tau = scenario.cost.tau
    horizon = config.horizon_fast
    trials = config.trials
    plants = scenario.plants
    # per fast step: each plant's path (dim doubles), delivery byte, count and
    # two statistics, then the deliveries and counts stacked, and the state
    # column and the running cost with its three temporaries
    needed = horizon * (40 + sum(8 * p.dim + 34 for p in plants))
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise MemoryError("a horizon of %d fast steps needs %d bytes, more than the %d bytes "
                          "of physical memory" % (horizon, needed, memory))
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, -(-horizon // tau))

    visited = sorted(set(alpha_slow))
    # (links, visited states): the replay keeps every visited state admissible,
    # and the loader gives every admissible state a success probability
    lam_table = np.array([scenario.success[a] for a in visited], dtype=float).T
    state_cols = np.searchsorted(visited, alpha_slow)[_slow_steps(tau, horizon)]

    paths, delivered, counts, decay_mean, decay_sd = zip(*[
        _rollout(config.seed, i, plant, None if scenario.x0 is None else scenario.x0[i],
                 lam_table[i], state_cols, trials)
        for i, plant in enumerate(plants)])

    return SimTrace(
        tau=tau,
        trials=trials,
        alpha_slow=alpha_slow,
        inputs_slow=inputs_slow,
        states=paths,
        deliveries=np.stack(delivered, axis=1),
        delivery_counts=np.stack(counts, axis=1),
        running_cost=_running_average(scenario, alpha_slow, inputs_slow, horizon),
        entry_fast=len(schedule.prefix_inputs) * tau,
        decay_mean=decay_mean,
        decay_sd=decay_sd,
    )


@dataclass(frozen=True)
class PlantCheck:
    plant: int
    passed: bool
    worst_margin: float
    worst_step: int


@dataclass(frozen=True)
class LyapunovCheck:
    passed: bool
    plants: tuple


def empirical_lyapunov_check(trace: SimTrace) -> LyapunovCheck:
    """Test the expected one-step decay bound on the simulated ensemble.

    For every fast step l at or after the cycle entry, the across-trial
    mean of  V(x(l+1)) - rho V(x(l)) - trace(Q Xi)  must not exceed
    three standard errors of that mean (law of total expectation turns
    the per-state conditional bound into this testable one), on the
    per-step statistics `simulate` gathered.  A trace that cannot be
    checked raises InsufficientTrials or ValueOutOfRange with the reason.
    """
    if trace.trials < MIN_CHECK_TRIALS:
        raise InsufficientTrials("needs >= %d trials" % MIN_CHECK_TRIALS)
    start = trace.entry_fast
    if start >= trace.horizon:
        raise ValueOutOfRange("horizon %d ends at or before the cycle entry at fast step %d"
                              % (trace.horizon, start))
    results = []
    for i, (mean, sd) in enumerate(zip(trace.decay_mean, trace.decay_sd)):
        mean = mean[start:]
        se = sd[start:] / math.sqrt(trace.trials)
        margin = 3.0 * se - mean
        worst = int(np.argmin(margin))
        ok = bool(np.all(mean <= 3.0 * se + 1e-12))
        results.append(PlantCheck(i, ok, float(margin[worst]), start + worst))
    return LyapunovCheck(all(p.passed for p in results), tuple(results))


def write_trace_csv(trace: SimTrace, fileobj):
    """Trial-0 trajectory, one row per fast step; deterministic bytes.

    Columns: fast step l, slow step k, agent state index, plant states
    at time l, per-link delivery indicator of step l, running average
    cost through step l.
    """
    dims = [x.shape[1] for x in trace.states]
    links = trace.deliveries.shape[1]
    header = ["l", "k", "alpha"]
    for i, dim in enumerate(dims):
        header += ["x%d_%d" % (i + 1, d + 1) for d in range(dim)]
    header += ["delivered%d" % (i + 1) for i in range(links)]
    header.append("running_cost")
    fileobj.write(",".join(header) + "\n")
    # one format per row: repr of a float is its shortest round-trip
    # spelling, as for the numpy scalar; Python floats and ints are made a
    # chunk of rows at a time, so memory does not grow with the horizon
    row = ",".join(["%d"] * 3 + ["%r"] * sum(dims) + ["%d"] * links + ["%r"]) + "\n"
    tau, alpha, write = trace.tau, trace.alpha_slow, fileobj.write
    for start in range(0, trace.horizon, _CSV_CHUNK_ROWS):
        rows = slice(start, start + _CSV_CHUNK_ROWS)
        paths = np.concatenate([x[rows] for x in trace.states], axis=1).tolist()
        delivered = trace.deliveries[rows].tolist()
        cost = trace.running_cost[rows].tolist()
        for l, x, d, c in zip(range(start, start + len(cost)), paths, delivered, cost):
            write(row % (l, l // tau, alpha[l // tau], *x, *d, c))
