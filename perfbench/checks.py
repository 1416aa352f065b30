"""Output checks that decide whether a CLI call counts as failed.

The benchmark reads each scenario on its own (with PyYAML, not with the
program under test) into a ``Model`` and recomputes from it what the
program reports: the agent law, admissibility, the performance region
and the exact stage costs.  Every check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import yaml

from genscenario import digits, index_of, step

# trial 0's delivery count may stray this many standard errors from the
# scheduled success probability
DELIVERY_SIGMAS = 5


def _exact(v) -> Fraction:
    return Fraction(v) if isinstance(v, int) else Fraction(str(v))


@dataclass(frozen=True)
class Model:
    """What the benchmark needs of one scenario, exact where the YAML is."""

    n: int
    kappa: int
    weights: tuple        # per agent: {neighbour (0-based): weight}
    alpha0: int
    states: frozenset
    inputs: frozenset     # the same admissible inputs at every state
    tau: int
    lam: Fraction
    costs: tuple          # costs[u-1]
    power: dict           # a -> expected radio power of one fast step
    success: tuple        # per link: {a: delivery probability}
    thresholds: tuple

    def successor(self, a: int, u: int) -> int:
        return index_of(step(self.weights, digits(a, self.n, self.kappa),
                             digits(u, self.n, self.kappa), self.kappa),
                        self.kappa)

    def healthy(self, a: int) -> bool:
        return a in self.states and all(
            link[a] >= s for link, s in zip(self.success, self.thresholds))

    def slow_cost(self, a: int, u: int) -> Fraction:
        return self.tau * self.power[a] + self.lam * self.costs[u - 1]


def load_model(text: str) -> Model:
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    doc = yaml.load(text, Loader=loader)
    agents = doc["agents"]
    n, kappa = agents["count"], agents["kappa"]

    def index(v) -> int:
        return index_of(v, kappa) if isinstance(v, list) else int(v)

    weights = tuple({int(l) - 1: int(a) for l, a in agents["weights"][j + 1].items()}
                    for j in range(n))
    channel = doc["channel"]
    policy = channel["transmit_policy"]
    prices = [_exact(p["power_price"]) for p in doc["plants"]]
    transmit = {}
    for key, row in channel["fading"].items():
        transmit[index(key)] = [sum(_exact(p) * h for p, h in zip(dist, flags))
                                for dist, flags in zip(row["dist"], policy)]
    if "success_direct" in channel:
        success = tuple({a: _exact(p) for a, p in enumerate(row, start=1)}
                        for row in channel["success_direct"])
    else:
        success = tuple(
            {index(key): _exact(row["decode"][i]) * transmit[index(key)][i]
             for key, row in channel["fading"].items()}
            for i in range(len(policy)))
    return Model(
        n=n, kappa=kappa, weights=weights,
        alpha0=index(agents["initial_state"]),
        states=frozenset(index(a) for a in doc["constraints"]["states"]),
        inputs=frozenset(index(u) for u in doc["constraints"]["inputs"]),
        tau=int(doc["fast_steps_per_slow"]),
        lam=_exact(doc["cost"]["input_weight"]),
        costs=tuple(_exact(c) for c in doc["cost"]["input_costs"]),
        power={a: sum(p * t for p, t in zip(prices, ts)) for a, ts in transmit.items()},
        success=success,
        thresholds=tuple(_exact(s) for s in doc["thresholds_override"]),
    )


@dataclass(frozen=True)
class Synthesis:
    """What `fadectrl synthesize` reported, as the benchmark parsed it."""

    mean: Fraction
    cycle: tuple          # states, first == last
    schedule: dict        # the schedule JSON


def parse_synthesis(stdout: str, schedule: dict) -> Synthesis:
    mean = re.search(r"^mean cycle weight: (\S+)", stdout, re.M)
    cycle = re.search(r"^optimal cycle: (.+)$", stdout, re.M)
    if not mean or not cycle:
        raise ValueError("synthesize report lacks the cycle or its mean")
    return Synthesis(Fraction(mean.group(1)),
                     tuple(int(a) for a in cycle.group(1).split(" -> ")), schedule)


def schedule_path(model: Model, schedule: dict):
    """(prefix states, cycle states) walked from the schedule, or problems."""
    problems = []
    a = model.alpha0
    if schedule.get("alpha0", 0) not in (0, a):
        problems.append("schedule starts at %r, scenario at %d" % (schedule["alpha0"], a))
    walked = []
    for part in ("prefix_inputs", "cycle_inputs"):
        states = []
        for u in schedule[part]:
            if a not in model.states or u not in model.inputs:
                problems.append("input %r not admissible at state %d" % (u, a))
                return (), (), problems
            states.append(a)
            a = model.successor(a, u)
        walked.append(states + [a])
    prefix, cycle = walked[0][:-1], tuple(walked[1])
    if cycle[0] != cycle[-1]:
        problems.append("cycle inputs do not return to state %d" % cycle[0])
    return tuple(prefix), cycle, problems


def check_synthesis(model: Model, result: Synthesis, pinned=None) -> list:
    """The schedule is admissible, its cycle stays in the region and has the
    reported exact mean; with pins, mean, cycle and schedule match them."""
    _, cycle, problems = schedule_path(model, result.schedule)
    if problems:
        return problems
    if cycle != result.cycle:
        problems.append("schedule walks %s, report says %s" % (cycle, result.cycle))
    outside = [a for a in cycle if not model.healthy(a)]
    if outside:
        problems.append("cycle leaves the performance region at %s" % outside)
    inputs = result.schedule["cycle_inputs"]
    mean = sum(model.slow_cost(a, u) for a, u in zip(cycle, inputs)) / len(inputs)
    if mean != result.mean:
        problems.append("cycle mean is %s, report says %s" % (mean, result.mean))
    if pinned is not None:
        got = {"mean": str(result.mean), "cycle": list(result.cycle),
               "schedule": result.schedule}
        for key, want in pinned.items():
            if got[key] != want:
                problems.append("%s is %r, pinned %r" % (key, got[key], want))
    return problems


def exact_running_cost(model: Model, schedule: dict, horizon: int) -> Fraction:
    """Average joint cost over the first `horizon` fast steps (power enters
    through its per-state expectation, as the simulator's cost column does)."""
    prefix, cycle, _ = schedule_path(model, schedule)
    states = list(prefix) + list(cycle[:-1])
    inputs = list(schedule["prefix_inputs"]) + list(schedule["cycle_inputs"])
    period = len(cycle) - 1
    total = Fraction(0)
    for k in range(-(-horizon // model.tau)):
        j = k if k < len(prefix) else len(prefix) + (k - len(prefix)) % period
        steps = min(model.tau, horizon - k * model.tau)
        total += steps * model.power[states[j]] + model.lam * model.costs[inputs[j] - 1]
    return total / horizon


def check_simulation(model: Model, schedule: dict, stdout: str, csv_bytes: bytes,
                     horizon: int) -> tuple:
    """(problems, record).  The record holds the decay verdict and the
    trace digest, which are reported but not checked."""
    problems = []
    final = re.search(r"^final running average cost: (\S+)", stdout, re.M)
    want = exact_running_cost(model, schedule, horizon)
    if not final or not math.isclose(float(final.group(1)), float(want), rel_tol=1e-9):
        problems.append("final running cost %s, exact %s"
                        % (final and final.group(1), float(want)))
    rows = list(csv.reader(io.StringIO(csv_bytes.decode())))
    header, body = rows[0], rows[1:]
    if len(body) != horizon:
        problems.append("trace has %d rows, horizon is %d" % (len(body), horizon))
    links = [c for c in header if c.startswith("delivered")]
    if len(links) != len(model.success):
        problems.append("trace has %d delivery columns for %d links"
                        % (len(links), len(model.success)))
    alpha = [int(r[header.index("alpha")]) for r in body]
    for i, name in enumerate(links):
        col = header.index(name)
        p = [float(model.success[i][a]) for a in alpha]
        expected = sum(p)
        sd = math.sqrt(sum(q * (1 - q) for q in p)) or 1.0
        got = sum(int(r[col]) for r in body)
        if abs(got - expected) > DELIVERY_SIGMAS * sd:
            problems.append("link %d delivered %d of %d, expected %.1f +- %.1f"
                            % (i + 1, got, len(body), expected, sd))
    verdict = re.search(r"^decay check overall: (\S+)", stdout, re.M)
    record = {"decay_verdict": verdict.group(1) if verdict else None,
              "trace_sha256": hashlib.sha256(csv_bytes).hexdigest()}
    return problems, record


def check_thresholds(stdout: str, pinned: list) -> list:
    got = re.findall(r"^  link \d+.*: s = (\S+)", stdout, re.M)
    return [] if got == pinned else ["thresholds %s, pinned %s" % (got, pinned)]
