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
depends on its counter alone, `simulate` hashes a block of fast steps'
draws at once, one `counter_uniforms` call per plant for its delivery
and Box-Muller uniforms, and runs only the plant recursion step by step.
Normal variates come from Box-Muller on two such uniforms.

A block is `block_steps(trials)` fast steps: 64 up to 256 trials,
2**14 // trials up to 2048 and 8 beyond, so its arrays hold at most
2**14 trial-steps (128 KiB of doubles, which stay in cache) up to 2048
trials, and 8 x trials past that.  The states are streamed through a
plant-major working buffer of shape (block + 1, dim, trials) per plant.
Every plant dimension takes the same step, with each sum in index order
on elementwise numpy operations, so a trace is the same on every BLAS
kernel: noise w_e = sum_d F[e, d] z_d (F the Cholesky factor), step
x'_e = sum_d A[e, d] x_d + w_e (A each trial's closed- or open-loop
matrix), and V = sum_{d, e} Q[d, e] x_d x_e.  After each block the
across-trial mean and sample standard deviation of the decay residual
V(x(l+1)) - rho V(x(l)) - tr(Q Xi) are recorded per fast step, trial 0's
path and deliveries are kept for the CSV, each step's count of trials
whose packet arrived is recorded, and the block's last state carries
over.  Memory is a few dozen block arrays plus a few values per fast
step, link and plant dimension, O(trials x block + horizon x (links +
dims)): nothing grows with trials x horizon.

Once the agent tour is replayed, the plants share nothing: each one's
rollout (`_rollout`) reads its own streams and its link's success
probabilities and returns its arrays.  Where `os.fork` and
`os.sched_getaffinity` exist (Linux) and both the usable CPUs and the
plants number more than one, the plants are dealt round-robin over
min(plants, CPUs) processes: this one and forked workers, which each
send one pickled reply over a pipe.  Warnings are issued here in plant
order, a worker's error reaches the caller as the same type and message,
one that dies before it replies is a ToolkitError, and every worker is
reaped before `simulate` returns or raises.  Elsewhere every plant runs
in this process through the same function.  Traces and warnings are the
same whatever the CPU count, and the working-set bound above holds per
process.  Workers are forked, not spawned: a spawned one would first
import numpy and this package again (0.1-0.2 s), about as long as a
plant's rollout at 1000 trials x 2000 steps.  A CLI process forks with
one thread, since the CLI starts OpenBLAS with one thread before numpy's
first import.  A library caller whose numpy has already started OpenBLAS
threads forks a multi-threaded process, for which Python 3.12 and later
emit a DeprecationWarning.  The worker is safe all the same: its rollout
is elementwise numpy arithmetic and never calls into BLAS, so it never
touches the threads or locks the fork did not copy.

The running-average cost column is deterministic: the radio power term
enters through its per-state expectation, not the sampled deliveries,
matching the cost functional the synthesizer optimizes.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import math
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import expected_power
from .errors import (
    DimensionMismatch,
    InsufficientTrials,
    ToolkitError,
    ValueOutOfRange,
)
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


def _fin(z):
    """splitmix64 finalizer, elementwise and in place on a uint64 array."""
    t = np.empty_like(z)  # the one scratch array
    for shift, mult in _FIN_ROUNDS:
        z ^= np.right_shift(z, shift, out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def block_steps(trials: int) -> int:
    """Fast steps `simulate` advances at once: 64 up to 256 trials, then
    2**14 trial-steps, but never fewer than 8."""
    return max(8, min(64, 2**14 // trials))


def counter_uniforms(seed: int, stream, step, draw, trials: int) -> np.ndarray:
    """One uniform in (0, 1] per trial for the keyed substream.

    `step` is a fast step, giving shape (trials,), or a 1-D array of them,
    giving one row per step.  `stream` and `draw` are one substream's, or
    paired 1-D arrays naming one substream each, giving a leading axis.
    Every row equals the single-step, single-substream call.  The keys are
    derived on arrays only: numpy wraps uint64 arrays silently but warns
    when a scalar overflows.
    """
    steps, streams, draws = (np.atleast_1d(np.asarray(c, dtype=np.uint64))
                             for c in (step, stream, draw))
    if steps.ndim != 1 or streams.ndim != 1 or np.shape(stream) != np.shape(draw):
        raise DimensionMismatch("step must be a scalar or a 1-D array, and "
                                "stream and draw scalars or paired 1-D arrays")
    # (substreams, steps) keys: the stream, step and draw counters in turn
    key = _fin(np.uint64(seed) + (streams[:, None] + np.uint64(1)) * _GOLDEN)
    key = _fin(key + (steps + np.uint64(1)) * _GOLDEN)
    key = _fin(key + (draws[:, None] + np.uint64(1)) * _GOLDEN)
    tids = np.arange(1, trials + 1, dtype=np.uint64)
    tids *= _GOLDEN
    bits = _fin(np.add(key[..., None], tids))
    bits >>= np.uint64(11)
    u = bits.view(np.float64)  # converted in place: no second array of the draws
    np.add(bits, 1.0, out=u)
    u *= _INV_2_53
    return u.reshape(np.shape(stream) + np.shape(step) + (trials,))


def _plant_draws(seed: int, i: int, steps, dim: int, trials: int):
    """Plant i's draws for a block of steps from one `counter_uniforms` call:
    the delivery uniforms of stream 2i, (steps, trials), and the noise
    normals z of stream 2i+1, (dim, steps, trials), each equal to its own
    per-stream call.  The call's rows are the delivery draw, the Box-Muller
    radii (noise draws 0, 2, ..) and the angles (1, 3, ..); z_d is radius
    d // 2 times its angle's cosine (d even) or sine (d odd)."""
    half = dim // 2
    pairs = dim - half
    u = counter_uniforms(seed, [2 * i] + [2 * i + 1] * 2 * pairs, steps,
                         [0, *range(0, 2 * pairs, 2), *range(1, 2 * pairs, 2)], trials)
    r, theta = u[1 : pairs + 1], u[pairs + 1 :]
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    z = np.empty((dim,) + u.shape[1:])
    np.multiply(r[:half], np.sin(theta[:half]), out=z[1::2])
    np.multiply(r, np.cos(theta, out=theta), out=z[::2])
    return u[0], z


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
    (NaN for one trial).  It reads nothing of any other plant."""
    horizon = len(state_cols)
    path, delivered = np.empty((horizon + 1, plant.dim)), np.empty(horizon, dtype=np.uint8)
    counts, decay_mean = np.empty(horizon, dtype=np.int64), np.empty(horizon)
    decay_sd = np.full(horizon, np.nan)
    block = block_steps(trials)
    dims = range(plant.dim)
    x = np.zeros((min(block, horizon) + 1, plant.dim, trials))
    if x0 is not None:  # the loader checked the vector's length
        x[0] = np.reshape(x0, (plant.dim, 1))
    for start in range(0, horizon, block):
        stop = min(start + block, horizon)
        n = stop - start
        uniforms, z = _plant_draws(seed, i, np.arange(start, stop), plant.dim, trials)
        ok = uniforms <= success[state_cols[start:stop], None]
        delivered[start:stop] = ok[:, 0]
        counts[start:stop] = np.count_nonzero(ok, axis=1)
        del uniforms  # a view of the block's draws keeps them all alive
        # w_e = sum_d F[e, d] z_d; each sum here runs in index order
        w = z[0][:, None] * plant.noise_factor[:, 0, None]
        for d in dims[1:]:
            w += z[d][:, None] * plant.noise_factor[:, d, None]
        del z
        # each trial's step matrix: A_c where its packet arrived, else A_o
        a = np.where(ok[:, None, None], plant.a_c[..., None], plant.a_o[..., None])
        # row 0 of x holds the state carried into the block
        for x_l, x_next, a_l, w_l in zip(x, x[1:], a, w):
            np.multiply(a_l[:, 0], x_l[0], out=x_next)
            for d in dims[1:]:
                x_next += a_l[:, d] * x_l[d]
            x_next += w_l
        del a, w, a_l, w_l  # a view of a row keeps its whole array alive
        v = np.zeros((n + 1, trials))
        for d in dims:
            for e in dims:
                v += x[: n + 1, d] * x[: n + 1, e] * plant.q[d, e]
        # (trials, n), C-contiguous: reducing over its rows adds in trial order
        r = np.ascontiguousarray((v[1:] - float(plant.rho) * v[:-1] - plant.q_xi_trace).T)
        decay_mean[start:stop] = r.mean(axis=0)
        if trials > 1:  # one trial has no sample sd
            decay_sd[start:stop] = r.std(axis=0, ddof=1)
        path[start : stop + 1] = x[: n + 1, :, 0]
        x[0] = x[n]
        # freed before the next block's draws: a block array left alive
        # into the next block fragments the heap, which glibc then trims
        # and faults back in every block
        del v, r
    return path, delivered, counts, decay_mean, decay_sd


def _usable_cpus() -> int:
    """CPUs this process may run on, or 1 where it cannot fork workers."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _run_share(tasks, share):
    """Run tasks[k] for each k of `share` in turn, each with its warnings
    recorded, up to the first error.  Returns (results, error or None,
    each task's warnings as (message, category, filename, lineno))."""
    results, error, caught = [], None, []
    for k in share:
        with warnings.catch_warnings(record=True) as log:
            try:
                results.append(tasks[k]())
            except Exception as e:
                error = e
        caught.append([(str(w.message), w.category, w.filename, w.lineno) for w in log])
        if error is not None:
            break
    return results, error, caught


def _worker(tasks, share, fd: int, read_ends):
    """A forked worker's whole life; it never returns.  It closes the pipe
    read ends it inherited, writes the pickled `_run_share` reply to `fd`
    and exits 0, or 2 if it cannot (a broken pipe when the parent is gone).
    An error is sent as its nearest class that takes its message alone:
    MemoryError for numpy's allocation error, built from a shape and a
    dtype.  It writes nothing to stdout or stderr."""
    status = 2
    try:
        for r in read_ends:
            os.close(r)
        results, error, caught = _run_share(tasks, share)
        for cls in type(error).__mro__ if error is not None else ():
            with contextlib.suppress(TypeError):
                error = cls(str(error))
                break
        with open(fd, "wb") as pipe:
            pickle.dump((results, error, caught), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_tasks(tasks):
    """Every task's result, in task order.

    With n = min(tasks, usable CPUs) above one, the tasks are dealt
    round-robin over n processes: this one runs tasks 0, n, 2n, .. and a
    forked worker (`_worker`) each other share.  Each worker's pipe is read
    to EOF and the worker reaped; one that ends without a reply is a
    ToolkitError naming its exit status or signal.  Then, in task order,
    each task's warnings are issued through one registry per file, so a
    location warns once whatever the deal, up to the first error, which is
    raised.  Every worker still alive at the end is killed and reaped, so
    no call leaves a process behind."""
    import signal  # here, not at the top: 1 ms that the other commands need not pay

    n = min(len(tasks), _usable_cpus())
    shares = [range(j, len(tasks), n) for j in range(n)]
    workers = []  # [pid, pipe read end] of each worker, in share order
    try:
        for share in shares[1:]:
            r, w = os.pipe()
            workers.append([None, r])
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(tasks, share, w, [fd for _, fd in workers])
            finally:
                os.close(w)
            workers[-1][0] = pid
        replies = [_run_share(tasks, shares[0])]
        while workers:
            pid, r = workers[0]
            with open(r, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)
            os.close(r)
            if code:  # a negative code is the signal that ended the worker
                raise ToolkitError("co-simulation worker ended with %s before it replied" % (
                    "signal %d" % -code if code < 0 else "exit status %d" % code))
            replies.append(pickle.loads(data))  # bytes this module's own worker wrote
    finally:
        for pid, r in workers:
            os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    registries, results = {}, []
    for k in range(len(tasks)):
        done, error, caught = replies[k % n]
        for w in caught[k // n]:  # (message, category, filename, lineno)
            warnings.warn_explicit(*w, registry=registries.setdefault(w[2], {}))
        if k // n == len(done):
            raise error
        results.append(done[k // n])
    return results


def simulate(scenario, schedule: Schedule, config: SimConfig) -> SimTrace:
    """Monte-Carlo rollout of all plants under the scheduled agent tour.

    The tour fixes every link's success probability at every fast step, so
    each plant's rollout is an independent job (`_rollout`); the jobs run
    in forked workers where `_run_tasks` finds more than one CPU, and the
    trace is the same bytes either way."""
    tau = scenario.cost.tau
    horizon = config.horizon_fast
    trials = config.trials
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, -(-horizon // tau))

    plants = scenario.plants
    visited = sorted(set(alpha_slow))
    # (links, visited states): the replay keeps every visited state admissible,
    # and the loader gives every admissible state a success probability
    lam_table = np.array([scenario.success[a] for a in visited], dtype=float).T
    state_cols = np.searchsorted(visited, alpha_slow)[_slow_steps(tau, horizon)]

    paths, delivered, counts, decay_mean, decay_sd = zip(*_run_tasks(
        [functools.partial(_rollout, config.seed, i, plant,
                           None if scenario.x0 is None else scenario.x0[i],
                           lam_table[i], state_cols, trials)
         for i, plant in enumerate(plants)]))

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
    writer = csv.writer(fileobj, lineterminator="\n")
    header = ["l", "k", "alpha"]
    for i, x in enumerate(trace.states):
        header += ["x%d_%d" % (i + 1, d + 1) for d in range(x.shape[1])]
    header += ["delivered%d" % (i + 1) for i in range(trace.deliveries.shape[1])]
    header.append("running_cost")
    writer.writerow(header)
    # Python floats and ints once per column, a chunk of rows at a time so
    # memory does not grow with the horizon: repr of a float is its shortest
    # round-trip spelling, as for the numpy scalar
    for start in range(0, trace.horizon, _CSV_CHUNK_ROWS):
        rows = slice(start, start + _CSV_CHUNK_ROWS)
        paths = [x[rows].tolist() for x in trace.states]
        delivered = trace.deliveries[rows].tolist()
        cost = trace.running_cost[rows].tolist()
        for j, l in enumerate(range(start, start + len(cost))):
            k = l // trace.tau
            row = [l, k, trace.alpha_slow[k]]
            for path in paths:
                row += map(repr, path[j])
            row += delivered[j]
            row.append(repr(cost[j]))
            writer.writerow(row)
