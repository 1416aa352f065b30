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
(parallel trials would reproduce the serial run exactly).  Normal
variates come from Box-Muller on two such uniforms.

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
_U64_MAX = (1 << 64) - 1
_INV_2_53 = 2.0 ** -53


def _fin(z):
    """splitmix64 finalizer, elementwise on uint64 arrays."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, stream: int, step: int, draw: int) -> np.ndarray:
    """1-element uint64 key for a (stream, step, draw) substream."""
    h = np.array([seed], dtype=np.uint64)
    for comp in (stream, step, draw):
        h = _fin(h + np.array([comp + 1], dtype=np.uint64) * _GOLDEN)
    return h


def counter_uniforms(seed: int, stream: int, step: int, draw: int,
                     trials: int) -> np.ndarray:
    """One uniform in (0, 1] per trial for the keyed substream."""
    key = _stream_key(seed, stream, step, draw)
    tids = np.arange(1, trials + 1, dtype=np.uint64)
    bits = _fin(key + tids * _GOLDEN)
    return ((bits >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53


def counter_normals(seed: int, stream: int, step: int, count: int,
                    trials: int) -> np.ndarray:
    """(trials, count) standard normals via Box-Muller on the substream."""
    cols = []
    for j in range((count + 1) // 2):
        u1 = counter_uniforms(seed, stream, step, 2 * j, trials)
        u2 = counter_uniforms(seed, stream, step, 2 * j + 1, trials)
        r = np.sqrt(-2.0 * np.log(u1))
        cols.append(r * np.cos(2.0 * np.pi * u2))
        cols.append(r * np.sin(2.0 * np.pi * u2))
    return np.stack(cols[:count], axis=1)


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
    states: tuple          # per plant: (trials, horizon+1, dim)
    deliveries: np.ndarray  # (trials, horizon, links) of 0/1
    running_cost: np.ndarray
    entry_fast: int
    seed: int

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
    power = {a: float(expected_power(scenario, a)) for a in sorted(set(alpha_slow))}
    lam = float(cost.lam)
    tau = cost.tau
    per_fast = np.empty(horizon)
    bumps = np.zeros(horizon)
    for l in range(horizon):
        k = l // tau
        per_fast[l] = power[alpha_slow[k]]
        if l % tau == 0:
            bumps[l] = lam * float(cost.input_cost(alpha_slow[k], inputs_slow[k]))
    totals = np.cumsum(per_fast + bumps)
    return totals / np.arange(1, horizon + 1)


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
    states = []
    factors = []
    for i, plant in enumerate(plants):
        x = np.zeros((trials, horizon + 1, plant.dim))
        if x0 is not None:
            init = np.asarray(x0[i], dtype=float).reshape(plant.dim)
            x[:, 0, :] = init
        states.append(x)
        factors.append(plant.noise_factor())

    deliveries = np.zeros((trials, horizon, q), dtype=np.uint8)
    for l in range(horizon):
        a = alpha_slow[l // tau]
        for i, plant in enumerate(plants):
            u = counter_uniforms(config.seed, 2 * i, l, 0, trials)
            ok = u <= lam_table[i, a - 1]
            deliveries[:, l, i] = ok
            z = counter_normals(config.seed, 2 * i + 1, l, plant.dim, trials)
            noise = z @ factors[i].T
            x = states[i]
            x[:, l + 1, :] = np.where(
                ok[:, None],
                x[:, l, :] @ plant.a_c.T,
                x[:, l, :] @ plant.a_o.T,
            ) + noise

    return SimTrace(
        tau=tau,
        alpha_slow=alpha_slow,
        inputs_slow=inputs_slow,
        states=tuple(states),
        deliveries=deliveries,
        running_cost=_running_average(scenario, alpha_slow, inputs_slow, horizon),
        entry_fast=len(schedule.prefix_inputs) * tau,
        seed=config.seed,
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


def empirical_lyapunov_check(trace: SimTrace, wcs_model,
                             from_step: int = None) -> LyapunovCheck:
    """Test the expected one-step decay bound on the simulated ensemble.

    For every fast step l at or after the cycle entry, the across-trial
    mean of  V(x(l+1)) - rho V(x(l)) - trace(Q Xi)  must not exceed
    three standard errors of that mean (law of total expectation turns
    the per-state conditional bound into this testable one).
    """
    if trace.trials < 100:
        raise InsufficientTrials(
            "%d trials; need >= 100 for the 3-sigma check" % trace.trials
        )
    start = trace.entry_fast if from_step is None else from_step
    if not 0 <= start < trace.horizon:
        raise ValueOutOfRange("check window starts outside the trace")
    results = []
    all_ok = True
    for i, plant in enumerate(wcs_model.plants):
        x = trace.states[i]
        v = np.einsum("tld,de,tle->tl", x, plant.q, x)
        d = v[:, 1:] - float(plant.rho) * v[:, :-1] - plant.noise_floor
        d = d[:, start:]
        mean = d.mean(axis=0)
        se = d.std(axis=0, ddof=1) / math.sqrt(trace.trials)
        margin = 3.0 * se - mean
        worst = int(np.argmin(margin))
        ok = bool(np.all(mean <= 3.0 * se + 1e-12))
        results.append(PlantCheck(i, ok, float(margin[worst]), start + worst))
        all_ok = all_ok and ok
    return LyapunovCheck(all_ok, tuple(results))


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
    for l in range(trace.horizon):
        k = l // trace.tau
        row = [l, k, trace.alpha_slow[k]]
        for x in trace.states:
            row += [repr(float(v)) for v in x[0, l, :]]
        row += [int(b) for b in trace.deliveries[0, l, :]]
        row.append(repr(float(trace.running_cost[l])))
        writer.writerow(row)
