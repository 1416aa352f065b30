"""Deterministic generator of synthetic fadectrl scenarios.

A scenario is n agents over {0..kappa-1} (N = kappa^n agent states), a
random 80 % of the states admissible, one set of distinct inputs shared by
every admissible state, random fading tables for every state and random
per-input costs.  The two plants are those of the bundled assembly cell.
Everything comes from ``random.Random(seed)``, and the YAML is written by
hand, so one seed gives byte-identical text on any Python 3 and PyYAML.

Probabilities are drawn as whole hundredths and kept as exact fractions in
the returned spec, which lets the benchmark recompute cycle means on its
own, without calling the program under test.
"""

from __future__ import annotations

import random
from fractions import Fraction

N_AGENTS = 4
N_INPUTS = 16
ADMISSIBLE_SHARE = Fraction(4, 5)
TAU = 40
# one row per plant: transmit in local states 0..2, back off in state 3
TRANSMIT_POLICY = ((1, 1, 1, 0), (1, 1, 1, 0))

PLANTS_YAML = """\
plants:
  - name: arm
    a_closed: [[-0.1, -0.1], [0.1, 0.2]]
    a_open: [[-1.0, -0.4], [-0.5, 0.3]]
    quality_weight: lyapunov
    decay_rate: 0.95
    noise_cov: identity
    power_price: 0.25
  - name: conveyor
    a_closed: 0.2
    a_open: 1.0
    quality_weight: 1.0
    decay_rate: 0.9
    noise_cov: 1.0
    power_price: 0.5
"""


def digits(index: int, n: int, kappa: int) -> tuple:
    """Value tuple of a 1-based basis index, leftmost coordinate most significant."""
    rem = index - 1
    out = []
    for _ in range(n):
        rem, v = divmod(rem, kappa)
        out.append(v)
    return tuple(reversed(out))


def index_of(values, kappa: int) -> int:
    idx = 0
    for v in values:
        idx = idx * kappa + v
    return idx + 1


def step(weights, alpha, u, kappa: int) -> tuple:
    """The modular agent law on value tuples."""
    return tuple((u[j] + sum(a * alpha[l] for l, a in row.items())) % kappa
                 for j, row in enumerate(weights))


def _is_bijective(weights, n: int, kappa: int) -> bool:
    zero = (0,) * n
    images = {step(weights, digits(a, n, kappa), zero, kappa)
              for a in range(1, kappa ** n + 1)}
    return len(images) == kappa ** n


def make_spec(kappa: int, seed: int, thresholds, healthy: int) -> dict:
    """Scenario parameters as plain Python values (probabilities exact)."""
    rng = random.Random(seed)
    n = N_AGENTS
    nn = kappa ** n
    while True:
        weights = []
        for j in range(n):
            row = {j: rng.randrange(kappa)}
            others = [l for l in range(n) if l != j]
            for l in sorted(rng.sample(others, rng.randint(1, 2))):
                row[l] = rng.randrange(1, kappa)
            weights.append(row)
        # a singular weight map would confine every successor to a few
        # cosets of its image, so the reachable set (and with it the
        # workload's size) would swing from seed to seed
        if _is_bijective(weights, n, kappa):
            break
    states = sorted(rng.sample(range(1, nn + 1), int(nn * ADMISSIBLE_SHARE)))
    alpha0 = rng.choice(states)
    inputs = sorted(rng.sample(range(1, nn + 1), N_INPUTS))
    # exactly `healthy` admissible states clear both thresholds, so the
    # performance region has the same size on every seed
    thresholds = tuple(Fraction(str(s)) for s in thresholds)
    region = frozenset(rng.sample(states, healthy))
    admissible = frozenset(states)
    decode, dist = [], []
    for a in range(1, nn + 1):
        while True:
            dec, rows = _channel_row(rng)
            clears = all(d * (1 - r[-1]) >= s
                         for d, r, s in zip(dec, rows, thresholds))
            if a not in admissible or clears == (a in region):
                break
        decode.append(dec)
        dist.append(rows)
    costs = [rng.randint(5, 20) for _ in range(nn)]
    return {
        "seed": seed, "n": n, "kappa": kappa, "weights": weights,
        "alpha0": alpha0, "states": states, "inputs": inputs,
        "decode": decode, "dist": dist,
        "costs": costs, "thresholds": thresholds,
    }


def _channel_row(rng: random.Random):
    """Per-link decode probabilities and local-state distributions, exact."""
    decode = tuple(Fraction(rng.randint(30, 99), 100) for _ in TRANSMIT_POLICY)
    rows = []
    for _ in TRANSMIT_POLICY:
        backoff = rng.randint(0, 50)
        first = rng.randint(0, 100 - backoff)
        second = rng.randint(0, 100 - backoff - first)
        rows.append(tuple(Fraction(p, 100) for p in (
            first, second, 100 - backoff - first - second, backoff)))
    return decode, tuple(rows)


def _hundredths(x: Fraction) -> str:
    return "%d.%02d" % divmod(int(x * 100), 100)


def to_yaml(spec: dict) -> str:
    n, kappa = spec["n"], spec["kappa"]
    out = ["# generated: kappa=%d n=%d seed=%d" % (kappa, n, spec["seed"]),
           "name: grid%d seed %d" % (kappa ** n, spec["seed"]),
           "fast_steps_per_slow: %d" % TAU, "", PLANTS_YAML.rstrip(), "",
           "agents:", "  count: %d" % n, "  kappa: %d" % kappa, "  weights:"]
    for j, row in enumerate(spec["weights"]):
        out.append("    %d: {%s}" % (j + 1, ", ".join(
            "%d: %d" % (l + 1, a) for l, a in sorted(row.items()))))
    out.append("  initial_state: %d" % spec["alpha0"])
    out += ["", "constraints:",
            "  states: [%s]" % ", ".join(map(str, spec["states"])),
            "  inputs: [%s]" % ", ".join(map(str, spec["inputs"])),
            "", "channel:", "  local_states: 4", "  transmit_policy:"]
    out += ["    - [%s]" % ", ".join(map(str, row)) for row in TRANSMIT_POLICY]
    out.append("  fading:")
    for a, (dec, rows) in enumerate(zip(spec["decode"], spec["dist"]), start=1):
        out.append("    %d: {decode: [%s], dist: [%s]}" % (
            a, ", ".join(_hundredths(d) for d in dec),
            ", ".join("[%s]" % ", ".join(_hundredths(p) for p in r) for r in rows)))
    out += ["", "cost:", "  input_weight: 1",
            "  input_costs: [%s]" % ", ".join(map(str, spec["costs"])), "",
            "thresholds_override: [%s]" % ", ".join(
                _hundredths(s) for s in spec["thresholds"]),
            "", "simulation:", "  initial_plant_states: [[1.0, 1.0], [1.0]]", ""]
    return "\n".join(out)

