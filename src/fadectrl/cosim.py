"""Two-time-scale Monte-Carlo co-simulation of plants, links, and agents.

Agents move on the slow scale k; plants and radios run on the fast
scale l with tau fast steps per slow step (k = floor(l / tau)).  At
fast step l each link i delivers independently with the success
probability of the current agent state, and each plant applies its
closed- or open-loop matrix accordingly plus Gaussian process noise.

Randomness is a stateless counter construction on the splitmix64
finalizer: every draw is keyed by (seed, stream, step, draw, trial)
with stream 2*i for link i's deliveries and 2*i+1 for plant i's noise,
so results are bit-reproducible and independent of evaluation order
(parallel trials would reproduce the serial run exactly).  Since a key
depends on its counter alone, `simulate` derives the draws of a block of
SIM_BLOCK (64) fast steps in one array operation, small enough that the
block's draws stay in cache, and runs only the plant recursion step by
step.  Normal variates come from Box-Muller on two such uniforms.

The states are streamed: each plant's trials live in a time-major
working buffer of shape (SIM_BLOCK + 1, trials, dim), so every fast step
reads and writes one contiguous (trials, dim) slab.  The block's noise
(the normals times the Cholesky factor) is formed once; a scalar plant
forms it as z f and steps x <- c x + w with c the closed- or open-loop
coefficient, both bit-identical to the 1 x 1 matrix products, while
larger plants keep the matrix products.  After each block the
across-trial mean and sample standard deviation of the decay residual
V(x(l+1)) - rho V(x(l)) - tr(Q Xi) are recorded per fast step (V = q x^2
for a scalar plant, else the sum over e of x_e (x Q)_e), trial 0's path
is kept for the CSV, and the block's last state carries over.  The
deliveries live time-major, (horizon, links, trials), so a block writes
whole rows.  Memory grows with trials x SIM_BLOCK plus the delivery
bytes, not with trials x horizon x dim.

The running-average cost column is deterministic: the radio power term
enters through its per-state expectation, not the sampled deliveries,
matching the cost functional the synthesizer optimizes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .channel import expected_power
from .errors import (
    DimensionMismatch,
    InitialStateViolatesConstraint,
    InsufficientTrials,
    ParseError,
    PreconditionViolated,
    ScheduleViolation,
    ValueOutOfRange,
)
from .mas import successor_index

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
# splitmix64 finalizer: z ^= z >> shift, then z *= mult, twice; then z ^= z >> 31
_FIN_ROUNDS = ((np.uint64(30), np.uint64(0xBF58476D1CE4E5B9)),
               (np.uint64(27), np.uint64(0x94D049BB133111EB)))
_U64_MAX = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53
# fast steps simulate advances at once: it derives their draws in one call
# per stream and keeps (SIM_BLOCK + 1, trials, dim) plant states per plant;
# at 64 a block's draws for 1000 trials stay in cache
SIM_BLOCK = 64


def _fin(z):
    """splitmix64 finalizer, elementwise and in place on a uint64 array."""
    t = np.empty_like(z)  # the one scratch array
    for shift, mult in _FIN_ROUNDS:
        z ^= np.right_shift(z, shift, out=t)
        z *= mult
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def counter_uniforms(seed: int, stream: int, step, draw: int,
                     trials: int) -> np.ndarray:
    """One uniform in (0, 1] per trial for the keyed substream.

    `step` is a fast step, giving shape (trials,), or a 1-D array of them,
    giving one row per step, equal to the stacked single-step calls.  The
    keys are derived on arrays only: numpy wraps uint64 arrays silently but
    warns when a scalar overflows.
    """
    steps = np.atleast_1d(np.asarray(step, dtype=np.uint64))
    if steps.ndim != 1:
        raise DimensionMismatch("step must be a scalar or a 1-D array")
    key = np.array([seed], dtype=np.uint64)
    for comp in ([stream], steps, [draw]):
        key = _fin(key + (np.asarray(comp, dtype=np.uint64) + np.uint64(1)) * _GOLDEN)
    tids = np.arange(1, trials + 1, dtype=np.uint64)
    tids *= _GOLDEN
    bits = _fin(np.add(key[:, None], tids))
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 1.0
    u *= _INV_2_53
    return u if np.ndim(step) else u[0]


def counter_normals(seed: int, stream: int, step, count: int,
                    trials: int) -> np.ndarray:
    """(trials, count) standard normals via Box-Muller on the substream;
    (steps, trials, count) for a 1-D array of steps.  Uniform pair j gives
    columns 2j (cosine) and 2j + 1 (sine); an odd count skips the last sine."""
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


def _require_json_int(value, field: str):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("%s must be an integer, got %r" % (field, value))


@dataclass(frozen=True)
class Schedule:
    """Eventually periodic input sequence: prefix once, then the cycle."""

    prefix_inputs: tuple
    cycle_inputs: tuple
    alpha0: int = 0  # 0 = unspecified; otherwise must match the scenario

    def __post_init__(self):
        object.__setattr__(self, "prefix_inputs", tuple(int(u) for u in self.prefix_inputs))
        object.__setattr__(self, "cycle_inputs", tuple(int(u) for u in self.cycle_inputs))
        if not self.cycle_inputs:
            raise ValueOutOfRange("schedule needs a nonempty cycle")

    def input_at(self, k: int) -> int:
        if k < len(self.prefix_inputs):
            return self.prefix_inputs[k]
        return self.cycle_inputs[(k - len(self.prefix_inputs)) % len(self.cycle_inputs)]

    @staticmethod
    def from_synthesis(result) -> "Schedule":
        return Schedule(result.prefix_inputs, result.cycle_inputs, result.alpha0)

    def to_dict(self) -> dict:
        return {
            "alpha0": self.alpha0,
            "prefix_inputs": list(self.prefix_inputs),
            "cycle_inputs": list(self.cycle_inputs),
        }

    @staticmethod
    def from_dict(d) -> "Schedule":
        """Schedule from its JSON form (an object of integer lists and an
        integer alpha0); ParseError names the first malformed field."""
        if not isinstance(d, dict):
            raise ParseError("schedule must be a JSON object, got %s" % type(d).__name__)
        if "cycle_inputs" not in d:
            raise ParseError("schedule has no 'cycle_inputs'")
        inputs = {key: d.get(key, []) for key in ("prefix_inputs", "cycle_inputs")}
        for key, values in inputs.items():
            if not isinstance(values, list):
                raise ParseError("'%s' must be a list" % key)
            for i, u in enumerate(values):
                _require_json_int(u, "%s[%d]" % (key, i))
        alpha0 = d.get("alpha0", 0)
        _require_json_int(alpha0, "alpha0")
        return Schedule(inputs["prefix_inputs"], inputs["cycle_inputs"], alpha0)


@dataclass(frozen=True)
class SimConfig:
    horizon_fast: int
    trials: int
    seed: int
    x0: tuple = None  # per-plant initial vectors; zeros when omitted

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
    alpha_slow: tuple
    inputs_slow: tuple
    states: tuple          # per plant: trial 0's path, (1, horizon+1, dim)
    deliveries: np.ndarray  # (trials, horizon, links) of 0/1, a view of time-major rows
    running_cost: np.ndarray
    entry_fast: int
    seed: int
    # per plant, (horizon,): across-trial mean and sample sd (NaN for one
    # trial) of V(x(l+1)) - rho V(x(l)) - tr(Q Xi) at each fast step l
    decay_mean: tuple
    decay_sd: tuple

    @property
    def horizon(self) -> int:
        return self.deliveries.shape[1]

    @property
    def trials(self) -> int:
        return self.deliveries.shape[0]


def _replay_slow(scenario, schedule: Schedule, n_slow: int):
    """Agent states and inputs for slow steps 0..n_slow-1, validated."""
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
    states, inputs = [], []
    for k in range(n_slow):
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
    return tuple(states), tuple(inputs)


def _running_average(scenario, alpha_slow, inputs_slow, horizon: int) -> np.ndarray:
    """Deterministic running average of the joint cost over fast steps."""
    cost = scenario.cost
    power = {a: float(expected_power(scenario, a)) for a in set(alpha_slow)}
    lam = float(cost.lam)
    tau = cost.tau
    per_fast = np.repeat([power[a] for a in alpha_slow], tau)[:horizon]
    per_fast[::tau] += [lam * float(cost.input_cost(a, u))
                        for a, u in zip(alpha_slow, inputs_slow)]
    return np.cumsum(per_fast) / np.arange(1, horizon + 1)


def average_cost_trace(scenario, schedule: Schedule, horizon: int) -> np.ndarray:
    """Running average cost over `horizon` fast steps (no sampling)."""
    if horizon < 1:
        raise ValueOutOfRange("horizon must be >= 1 fast steps")
    n_slow = -(-horizon // scenario.cost.tau)
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, n_slow)
    return _running_average(scenario, alpha_slow, inputs_slow, horizon)


def simulate(scenario, schedule: Schedule, config: SimConfig) -> SimTrace:
    """Monte-Carlo rollout of all plants under the scheduled agent tour."""
    tau = scenario.cost.tau
    horizon = config.horizon_fast
    trials = config.trials
    n_slow = -(-horizon // tau)
    alpha_slow, inputs_slow = _replay_slow(scenario, schedule, n_slow)

    plants = scenario.wcs.plants
    q = len(plants)
    lam_table = scenario.success.as_array()  # (links, N)
    for a in set(alpha_slow):
        if np.isnan(lam_table[:, a - 1]).any():
            raise PreconditionViolated(
                "success probabilities missing at visited state %d" % a
            )

    x0 = config.x0
    if x0 is not None and len(x0) != q:
        raise DimensionMismatch("%d initial vectors for %d plants" % (len(x0), q))
    buffers, paths, factors = [], [], []
    for i, plant in enumerate(plants):
        x = np.zeros((min(SIM_BLOCK, horizon) + 1, trials, plant.dim))
        if x0 is not None:
            x[0] = np.asarray(x0[i], dtype=float).reshape(plant.dim)
        buffers.append(x)
        paths.append(np.empty((1, horizon + 1, plant.dim)))
        paths[i][0, 0] = x[0, 0]
        factors.append(plant.noise_factor())
    decay_mean = tuple(np.empty(horizon) for _ in plants)
    decay_sd = tuple(np.full(horizon, np.nan) for _ in plants)

    # time-major, so a block writes whole (trials,) rows; the trace keeps
    # the (trials, horizon, links) view of it
    delivered = np.empty((horizon, q, trials), dtype=np.uint8)
    state_cols = np.repeat(np.asarray(alpha_slow) - 1, tau)[:horizon]
    for start in range(0, horizon, SIM_BLOCK):
        stop = min(start + SIM_BLOCK, horizon)
        n = stop - start
        steps = np.arange(start, stop)
        for i, plant in enumerate(plants):
            u = counter_uniforms(config.seed, 2 * i, steps, 0, trials)
            ok = u <= lam_table[i, state_cols[start:stop], None]
            delivered[start:stop, i] = ok
            w = counter_normals(config.seed, 2 * i + 1, steps, plant.dim, trials)
            x = buffers[i]  # row 0 holds the state carried into the block
            block = x[: n + 1]
            if plant.dim == 1:
                # x @ [[a]] is exactly x * a and z @ [[f]] exactly z * f: pick
                # each step's coefficient once
                w *= factors[i][0, 0]
                c = np.where(ok, plant.a_c[0, 0], plant.a_o[0, 0])
                for b in range(n):
                    np.multiply(x[b, :, 0], c[b], out=x[b + 1, :, 0])
                    x[b + 1] += w[b]
                v = np.square(block[..., 0])
                v *= plant.q[0, 0]
            else:
                w = w @ factors[i].T
                for b in range(n):
                    np.add(np.where(ok[b, :, None], x[b] @ plant.a_c.T, x[b] @ plant.a_o.T),
                           w[b], out=x[b + 1])
                # V = sum_e x_e (x Q)_e, one matrix-vector product per column
                v = block[..., 0] * (block @ plant.q[:, 0])
                for e in range(1, plant.dim):
                    v += block[..., e] * (block @ plant.q[:, e])
            # (trials, n), C-contiguous: reducing over its rows adds in trial order
            d = np.ascontiguousarray((v[1:] - float(plant.rho) * v[:-1] - plant.noise_floor).T)
            decay_mean[i][start:stop] = d.mean(axis=0)
            if trials > 1:  # one trial has no sample sd
                decay_sd[i][start:stop] = d.std(axis=0, ddof=1)
            paths[i][0, start + 1 : stop + 1] = x[1 : n + 1, 0]
            x[0] = x[n]

    return SimTrace(
        tau=tau,
        alpha_slow=alpha_slow,
        inputs_slow=inputs_slow,
        states=tuple(paths),
        deliveries=delivered.transpose(2, 0, 1),
        running_cost=_running_average(scenario, alpha_slow, inputs_slow, horizon),
        entry_fast=len(schedule.prefix_inputs) * tau,
        seed=config.seed,
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


def empirical_lyapunov_check(trace: SimTrace, from_step: int = None) -> LyapunovCheck:
    """Test the expected one-step decay bound on the simulated ensemble.

    For every fast step l at or after the cycle entry, the across-trial
    mean of  V(x(l+1)) - rho V(x(l)) - trace(Q Xi)  must not exceed
    three standard errors of that mean (law of total expectation turns
    the per-state conditional bound into this testable one).  The
    per-step statistics are the ones `simulate` gathered during the run.
    """
    if trace.trials < 100:
        raise InsufficientTrials(
            "%d trials; need >= 100 for the 3-sigma check" % trace.trials
        )
    start = trace.entry_fast if from_step is None else from_step
    if not 0 <= start < trace.horizon:
        raise ValueOutOfRange("check window starts outside the trace")
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
        header += ["x%d_%d" % (i + 1, d + 1) for d in range(x.shape[2])]
    header += ["delivered%d" % (i + 1) for i in range(trace.deliveries.shape[2])]
    header.append("running_cost")
    writer.writerow(header)
    # Python floats and ints once per column: repr of a float is its shortest
    # round-trip spelling, as for the numpy scalar
    paths = [x[0].tolist() for x in trace.states]
    delivered = trace.deliveries[0].tolist()
    cost = trace.running_cost.tolist()
    for l in range(trace.horizon):
        k = l // trace.tau
        row = [l, k, trace.alpha_slow[k]]
        for path in paths:
            row += map(repr, path[l])
        row += delivered[l]
        row.append(repr(cost[l]))
        writer.writerow(row)
