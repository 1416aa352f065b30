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
and one noise draw per dimension, and a column per fast step, plus the
noise stream's per-step key that the ziggurat's further draws extend.
One table covers the whole rollout up to 4096 steps; a longer one takes
a table per span of whole blocks of at least 4096 steps.  A block of
fast steps then reads its columns, hashes them with the trial counters
in one `counter_uniforms` call, and runs only the plant recursion step
by step.

Each noise uniform u becomes one normal by a 256-strip ziggurat
(Marsaglia and Tsang 2000) that takes the strip, the sign and a 44-bit
in-strip fraction from disjoint bits of u (Doornik 2005): t = floor(512 u)
gives strip t mod 256 and the sign, negative from t = 256 on, and
512 u - t the fraction.  About 98.5 % of the draws fall inside their
strip's rectangle and cost a table lookup and a product (`_strips`); the
rest take a wedge or tail test on further counter draws of the same
stream, keyed by the draw and the attempt (`_resolve`), so a normal
depends on its own counters alone, not on the block or the plant's
dimension.  Every operation is an exact IEEE one, the rejection path's
logarithm included (`_log`, from frexp, +, -, x and /): numpy's
transcendental functions, whose last bits depend on the SIMD path it
dispatches to, are not used, so a trace is the same bytes on every CPU.

A block is `block_steps(trials)` fast steps, 2**15 // trials but at
least 8, so its arrays hold at most 2**15 trial-steps (256 KiB of
doubles, which stay in a 2 MiB L2 cache) up to 4096 trials, and
8 x trials past that; the numpy calls a block pays beyond its steps
(about 130 on the rejection path, the hashing's set-up, about 25 for V
and the statistics) are spread over as many steps as that budget allows
(327 at 100 trials, 32 at 1000).
The trace is the same bytes for every block: each step's statistics are
reduced in trial order, a one-step block's included.  The states are
streamed through a plant-major working buffer of shape
(block + 1, dim, trials) per plant, and every other array of trials x
steps a block needs is a view of one arena per rollout (`_Arena`),
written with out=: the draws, the fast path's scratch, the noise's
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
# trials the decay check needs before its 3-sigma rule is applied
MIN_CHECK_TRIALS = 100
# trace rows `write_trace_csv` turns into Python objects at a time
_CSV_CHUNK_ROWS = 256
# the fewest fast steps one key table of a rollout covers, in whole blocks
_KEY_STEPS = 4096

# The 256-strip ziggurat of exp(-x^2 / 2) (Marsaglia and Tsang 2000): strip
# i < 256 spans [0, X[i]] between heights exp(-X[i]^2 / 2) and
# exp(-X[i+1]^2 / 2), every strip of area V.  X[1] = R, the start of the
# tail, closes the recursion X[i+1] = sqrt(-2 ln(exp(-X[i]^2 / 2) + V / X[i]))
# at X[256] = 0, and X[0] = V / exp(-R^2 / 2) widens the base strip to hold
# the tail's area.  Each entry is the float64 nearest the exact value.
_ZIG_X = np.array([
    3.910757959524916, 3.654152885361009, 3.449278298561431, 3.3202447338398255,
    3.2245750520478014, 3.147889289518001, 3.0835261320021434, 3.0278377917695933,
    2.978603279881843, 2.9343668672088876, 2.894121053613412, 2.8571387308732246,
    2.822877396826443, 2.7909211740019275, 2.760944005279986, 2.7326853590440114,
    2.705933656123062, 2.680514643285745, 2.6562830375767432, 2.6331163936315827,
    2.6109105184888235, 2.5895759867082866, 2.569035452681844, 2.5492215503247833,
    2.530075232159854, 2.5115444416266945, 2.4935830412710467, 2.476149939670523,
    2.459208374334705, 2.442725318200364, 2.4266709849371466, 2.4110184139011195,
    2.3957431197819274, 2.3808227951720857, 2.366237056717291, 2.3519672273791445,
    2.337996148796529, 2.3243080188711325, 2.310888250601372, 2.2977233489028634,
    2.284800802724492, 2.2721089902283818, 2.2596370951737876, 2.247375032947389,
    2.235313384929921, 2.2234433400925107, 2.211756642884161, 2.2002455466112765,
    2.1889027716263607, 2.177721467740293, 2.1666951803543086, 2.1558178198767375,
    2.145083634047889, 2.134487182846017, 2.1240233156895236, 2.113687150686653,
    2.1034740557148774, 2.093379631138792, 2.0833996939983046, 2.073530263518743,
    2.0637675478117323, 2.0541079316506523, 2.0445479652175313, 2.035084353729619,
    2.025713947863854, 2.016433734906204, 2.0072408305605287, 1.9981324713584196,
    1.989106007617438, 1.9801588969004766, 1.9712886979336592, 1.962493064944363,
    1.9537697423846467, 1.9451165600086784, 1.9365314282756947, 1.9280123340526658,
    1.9195573365931882, 1.9111645637712533, 1.9028322085504292, 1.8945585256707047,
    1.8863418285367828, 1.8781804862929958, 1.8700729210712668, 1.8620176053996742,
    1.8540130597602018, 1.8460578502851854, 1.8381505865828067, 1.830289919682757,
    1.8224745400938858, 1.8147031759662826, 1.8069745913508208, 1.7992875845497203,
    1.7916409865521625, 1.7840336595494415, 1.7764644955245228, 1.7689324149112686,
    1.7614363653189102, 1.7539753203176716, 1.7465482782817223, 1.7391542612859117,
    1.7317923140529632, 1.724461502948045, 1.717160915017823, 1.7098896570713018,
    1.7026468547999232, 1.6954316519345616, 1.6882432094371953, 1.681080704725174,
    1.673943330926125, 1.6668302961616654, 1.6597408228581825, 1.652674147083056,
    1.6456295179047824, 1.6386061967755476, 1.6316034569348736, 1.6246205828330347,
    1.6176568695730156, 1.6107116223698301, 1.6037841560260946, 1.5968737944227882,
    1.5899798700241907, 1.5831017233960292, 1.5762387027359064, 1.5693901634151237,
    1.562555467531045, 1.5557339834691764, 1.5489250854741734, 1.5421281532290019,
    1.535342571441514, 1.5285677294377125, 1.521803020760998, 1.5150478427767147,
    1.5083015962813116, 1.5015636851154637, 1.4948335157804935, 1.4881104970574475,
    1.4813940396281873, 1.4746835556978555, 1.4679784586180795, 1.4612781625102755,
    1.4545820818884103, 1.447889631280576, 1.441200224848724, 1.4345132760058923,
    1.427828197030256, 1.421144398675309, 1.4144612897754711, 1.407778276846399,
    1.401094763679251, 1.394410150928141, 1.3877238356899761, 1.3810352110758555,
    1.3743436657731662, 1.367648583597476, 1.360949343033283, 1.354245316762635,
    1.3475358711805872, 1.340820365896404, 1.33409815321936, 1.3273685776279258,
    1.3206309752210563, 1.3138846731502205, 1.3071289890307312, 1.3003632303308372,
    1.2935866937369478, 1.2867986644932436, 1.279998415713818, 1.2731852076653563,
    1.2663582870182295, 1.2595168860637143, 1.2526602218948972, 1.2457874955486272,
    1.2388978911056874, 1.2319905747461362, 1.2250646937565308, 1.2181193754854815,
    1.211153726243699, 1.2041668301443815, 1.1971577478794415, 1.190125515426692,
    1.1830691426826867, 1.175987612015452, 1.168879876730833, 1.1617448594456115,
    1.1545814503599277, 1.147388505420849, 1.1401648443681514, 1.1329092486525338,
    1.1256204592155334, 1.118297174119345, 1.1109380460135758, 1.1035416794246398,
    1.0961066278520215, 1.0886313906539797, 1.0811144097034038, 1.0735540657924363,
    1.0659486747621225, 1.0582964833306752, 1.05059566459093, 1.042844313144149,
    1.035040439833441, 1.0271819660356458, 1.0192667174654841, 1.0112924174399958,
    1.003256679544673, 0.995156999635091, 0.9869907470990624, 0.9787551552942246,
    0.9704473110642244, 0.9620641432230406, 0.953602409881086, 0.9450586844681654,
    0.9364293402865751, 0.9277105334020002, 0.9188981836495906, 0.9099879534967185,
    0.9009752244612218, 0.8918550707329416, 0.8826222295851656, 0.8732710680888608,
    0.8637955455533088, 0.8541891710081638, 0.8444449549091539, 0.8345553540863822,
    0.8245122087522921, 0.8143066701352152, 0.8039291169899713, 0.7933690588406233,
    0.7826150233072331, 0.7716544242245681, 0.7604734064301081, 0.7490566620178153,
    0.7373872114342956, 0.7254461409099996, 0.7132122851909759, 0.7006618411068151,
    0.6877678927957885, 0.6744998228372938, 0.6608225742444197, 0.6466957148949938,
    0.6320722363860611, 0.6168969900077514, 0.6011046177559927, 0.5846167661063794,
    0.5673382570538188, 0.5491517023271651, 0.5299097206615582, 0.5094233296020918,
    0.487443966139236, 0.46363433679088223, 0.4375184022078717, 0.40838913461199117,
    0.37512133287838056, 0.33573751921442524, 0.2861745917920725, 0.2152418959848817, 0.0,
])
_ZIG_R = float(_ZIG_X[1])
# Noise draw d's attempt a reads draw j = d + a 2^32 of the plant's noise
# stream for its strip, and draws _AUX + 2j and _AUX + 2j + 1 for its wedge or
# tail test: a normal depends on its own counters alone, not on the plant's
# dimension or the block
_RETRY = np.uint64(1 << 32)
_AUX = np.uint64(1 << 63)
# a round of `_resolve`: its attempts' offsets from the first, and each
# attempt's three counters 2j + _AUX, 2j + _AUX + 1 and j, plus the key's 1
_ATTEMPTS = 3
_ROUND_DRAWS = np.arange(_ATTEMPTS, dtype=np.uint64)[:, None] * _RETRY
_DRAW_STRIDE = np.array([2, 2, 1], np.uint64)[:, None, None]
_DRAW_OFFSET = np.array([_AUX + np.uint64(1), _AUX + np.uint64(2), 1], np.uint64)[:, None, None]
# fdlibm's split of ln 2: k * _LN2_HI is exact for |k| < 2**20
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
_INV_LN2 = 1.4426950408889634
_SQRT_HALF = 0.7071067811865476
# Taylor coefficients, highest degree first: exp(r) = 1 + r + r^2 (1/2! + r/3! +
# .. + r^12/14!), and log((1 + s) / (1 - s)) = 2s + s (2s^2/3 + .. + 2s^20/21)
_EXP_COEFFS = tuple(1.0 / math.factorial(j) for j in range(14, 1, -1))
_LOG_COEFFS = tuple(2.0 / (2 * j + 1) for j in range(10, 0, -1))


def _exp(x):
    """exp(x) for a float64 array with finite normal results, within an ulp
    of libm, from +, -, x, rint and ldexp alone: bits that no SIMD path of
    numpy's transcendental functions changes."""
    k = np.rint(x * _INV_LN2)
    r = x - k * _LN2_HI
    r -= k * _LN2_LO  # |r| <= ln 2 / 2
    q = np.full_like(r, _EXP_COEFFS[0])
    for c in _EXP_COEFFS[1:]:
        q *= r
        q += c
    q *= r * r
    q += r
    q += 1.0
    return np.ldexp(q, k.astype(np.int32))


def _log(x):
    """log(x) for a float64 array of positive normal numbers, within an ulp
    of libm, from frexp, +, -, x and / alone (fdlibm's reduction: x = 2^e m
    with m in [sqrt(1/2), sqrt(2)), f = m - 1 and s = f / (2 + f))."""
    m, e = np.frexp(x)
    low = m < _SQRT_HALF
    m = np.where(low, m + m, m)
    k = (e - low).astype(np.float64)
    f = m - 1.0
    s = f / (f + 2.0)
    z = s * s
    r = np.full_like(z, _LOG_COEFFS[0])
    for c in _LOG_COEFFS[1:]:
        r *= z
        r += c
    r *= z
    hfsq = 0.5 * f * f
    return k * _LN2_HI - ((hfsq - (s * (hfsq + r) + k * _LN2_LO)) - f)


# Tables of t = floor(512 u) for a uniform u in (0, 1]: the strip's width and
# its inner edge X[strip + 1] for strip t mod 256, and the sign, negative
# from t = 256 on.  u = 1 alone gives t = 512, whose width 0 maps it to +0.
_ZIG_WIDTH = np.concatenate([_ZIG_X[:256], _ZIG_X[:256], [0.0]])
_ZIG_EDGE = np.concatenate([_ZIG_X[1:], _ZIG_X[1:], [_ZIG_R]])
_ZIG_SIGN = np.concatenate([np.ones(256), -np.ones(256), [1.0]])
# each strip's lower height exp(-X[i]^2 / 2) and its height
_ZIG_FLOOR = _exp(-0.5 * (_ZIG_X * _ZIG_X))
_ZIG_HEIGHT = np.diff(_ZIG_FLOOR)


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


def _strips(u, t, width, accepted):
    """The ziggurat's fast path, in place on uniforms u: t = floor(512 u)
    (an integer array), u becomes |x| = (512 u - t) X[t mod 256], and
    `accepted` marks |x| < X[t mod 256 + 1], where x lies inside its strip's
    rectangle under the curve.  `width` is float64 scratch of u's shape.
    Every step is one exact IEEE operation."""
    u *= 512.0
    np.floor(u, out=width)
    t[...] = width
    u -= width  # 44 bits in [0, 1), disjoint from the strip's and sign's
    u *= _ZIG_WIDTH.take(t, out=width, mode="clip")
    np.less(u, _ZIG_EDGE.take(t, out=width, mode="clip"), out=accepted)


def _resolve(step_keys, trials: int, z, pos):
    """Complete the normals the fast path rejected, at flat positions `pos`
    of z (dim, steps, trials), from `step_keys`, the noise stream's key of
    each step before its draw counter.  Attempt a of noise draw d reads draw
    j = d + a 2^32 of the stream, the fast path's draw at a = 0, and
    draws _AUX + 2j and _AUX + 2j + 1 for its wedge or tail test, so a
    normal depends on its own counters alone.  A draw outside its strip's
    rectangle but not in the base strip is kept when log y < -x^2 / 2 for
    y uniform over the strip's height, else the next attempt starts afresh;
    one in the base strip lies past R and takes Marsaglia's tail from then
    on, x = R + e with e = -log(u1) / R, kept when -2 log(u2) > e^2.  A
    round tries `_ATTEMPTS` attempts of every pending draw at once, in one
    fixed handful of numpy calls; a draw none of them keeps (about 1 in
    50 000 of them) goes on to the next round."""
    draw, rest = np.divmod(pos, len(step_keys) * trials)
    l, trial = np.divmod(rest, trials)
    key = step_keys[l]
    tid = (trial.astype(np.uint64) + np.uint64(1)) * _GOLDEN
    draw = draw.astype(np.uint64)
    del rest, l, trial  # the pending draws' arrays count against the working set
    in_tail, tail_t = np.zeros(pos.size, bool), np.zeros(pos.size, np.intp)
    z_flat = z.reshape(-1)
    while pos.size:
        # (3, attempts, pending): the wedge or tail draws u1 and u2 of each
        # attempt's draw j, then j itself
        j = draw + _ROUND_DRAWS
        bits = _fin(key + (_DRAW_STRIDE * j + _DRAW_OFFSET) * _GOLDEN)
        bits += tid
        u = _to_uniforms(_fin(bits))
        t, fast = np.empty(j.shape, np.intp), np.empty(j.shape, bool)
        _strips(u[2], t, np.empty(j.shape), fast)
        x, strip = u[2], t & 255
        # an attempt reaching the base strip's far end stays in the tail
        entering = (strip == 0) & ~fast
        tail = np.logical_or.accumulate(entering, axis=0)
        tail |= in_tail
        cols = np.arange(pos.size)
        tail_t = np.where(in_tail, tail_t, t[np.argmax(entering, axis=0), cols])
        t = np.where(tail, tail_t, t)
        # the attempts that take a wedge or tail test, about a third of them
        tested = tail | ~fast
        on_tail, xt, strip = tail[tested], x[tested], strip[tested]
        u1, u2 = u[0][tested], u[1][tested]
        np.copyto(u1, _ZIG_FLOOR[strip] + u1 * _ZIG_HEIGHT[strip], where=~on_tail)
        logs = _log(np.stack([u1, u2]))
        excess = logs[0] / -_ZIG_R
        kept = fast & ~tail
        kept[tested] = np.where(on_tail, -2.0 * logs[1] > excess * excess,
                                logs[0] < -0.5 * (xt * xt))
        x[tested] = np.where(on_tail, _ZIG_R + excess, xt)
        a = np.argmax(kept, axis=0)  # each draw's first kept attempt
        done = kept[a, cols]
        z_flat[pos[done]] = (x[a, cols] * _ZIG_SIGN[t[a, cols]])[done]
        keep = ~done
        pos, draw, key, tid, tail_t = (c[keep] for c in (pos, draw, key, tid, tail_t))
        in_tail = tail[-1, keep]
        draw += np.uint64(_ATTEMPTS) * _RETRY


def _plant_keys(seed: int, i: int, dim: int, steps):
    """Plant i's keys over the fast steps `steps`: (1 + dim, steps), one
    row per row of its draws, the delivery draw of stream 2i, then noise
    draws 0..dim-1 of stream 2i+1 (`counter_keys`); and (steps,), stream
    2i+1's key of each step before its draw counter, from which `_resolve`
    keys its further draws."""
    keys = counter_keys(seed, [2 * i] + [2 * i + 1] * dim, steps, [0, *range(dim)])
    return keys, _chain(np.uint64(seed), np.full(1, 2 * i + 1, np.uint64),
                        np.asarray(steps, np.uint64))


def _plant_draws(keys, step_keys, trials: int, arena):
    """A plant's draws for a block of steps from one `counter_uniforms` call
    on the block's columns of its `_plant_keys`: the delivery uniforms,
    (steps, trials), and the noise normals z, (dim, steps, trials), each
    equal to its own per-stream call.  Each noise draw becomes one normal
    by the 256-strip ziggurat: `_strips` row by row, then `_resolve` once
    for the ~1.5 % it rejects.  Both results are views of `arena` (an
    `_Arena`), the draws in its first 1 + dim slabs; the hashing's scratch
    and then the fast path's float scratch take the next slab, its strip
    indices the arena's state rows past the first, and its mask the flags."""
    dim = len(keys) - 1
    shape = (len(step_keys), trials)
    draws = arena(0, (1 + dim,) + shape)
    width = arena(1 + dim, shape)
    counter_uniforms(keys, trials, out=draws, scratch=width.view(np.uint64))
    z = draws[1:]
    t = arena.states[1:].reshape(-1)[: width.size].view(np.intp).reshape(shape)
    accepted = arena.flags[: width.size].reshape(shape)
    rejected = []
    for d, row in enumerate(z):
        _strips(row, t, width, accepted)
        rejected.append(np.flatnonzero(np.logical_not(accepted, out=accepted)) + d * row.size)
        row *= _ZIG_SIGN.take(t, out=width, mode="clip")
    _resolve(step_keys, trials, z, np.concatenate(rejected))
    return draws[0], z


class _Arena:
    """One rollout's working memory, so that no block allocates (and the C
    library neither maps nor faults in) an array of trials x steps.

    `states` is the plant-major state buffer, (block + 1, dim, trials):
    row 0 holds the state carried into a block, rows 1.. its states.
    Every other array of a block is a view of `data`, phase after phase,
    in slabs of block x trials doubles: the draws, 1 + dim, with one more
    for the hashing's and the fast path's scratch; then the normals stay
    in slabs 1..dim while the noise's terms take slab 0; then slab 0 holds
    the step matrices' index, and the 2 dim^2 + dim rows past it one step's
    matrices, their products and sums; then V and the residuals,
    2 (block + 1) rows.
    `flags` holds one boolean array of a block: the fast path's mask,
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
            keys, step_keys = _plant_keys(seed, i, dim, np.arange(start, min(start + span, horizon)))
        cols = slice(start % span, start % span + n)
        uniforms, z = _plant_draws(keys[:, cols], step_keys[cols], trials, arena)
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
