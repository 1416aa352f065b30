"""State-dependent fading links between sensors and controllers.

Link i sees a local channel state c in {0,...,r-1} whose distribution
gamma_i(c | alpha) depends on where the mobile agents sit (the joint
agent state alpha).  The radio transmits only in the states its policy
h_i allows, and a transmitted packet decodes with probability
eta_i(alpha).  Hence

    transmit_i(alpha) = sum_c gamma_i(c | alpha) h_i(c),
    success_i(alpha)  = eta_i(alpha) * transmit_i(alpha),

and the expected radio power drawn at alpha prices each link's
transmission attempts:

    expected_power(alpha) = sum_i mu_i * transmit_i(alpha).

The scenario loader validates the fading tables and fills both tables
in the same pass, from each row's transmit share; they may cover only
the admissible agent states, and probabilities are kept as exact
numbers (fractions).  A measured success table can be supplied directly
and then takes precedence over the derived one (consistency_gaps
reports where the two disagree).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    PreconditionViolated,
    ValueOutOfRange,
)

GAP_TOL = 0.01  # measured vs derived success disagreement worth a warning


@dataclass(frozen=True)
class SuccessTable:
    """Per-link probabilities over all agent states (None = unknown)."""

    n_states: int
    values: tuple

    def __post_init__(self):
        values = []
        for i, row in enumerate(self.values):
            row = tuple(row)
            if len(row) != self.n_states:
                raise DimensionMismatch(
                    "row %d has %d entries, expected %d"
                    % (i, len(row), self.n_states)
                )
            for a, p in enumerate(row):
                if p is not None and not 0 <= p <= 1:
                    raise ValueOutOfRange(
                        "probability %r at link %d, state %d outside [0, 1]" % (p, i, a + 1)
                    )
            values.append(row)
        object.__setattr__(self, "values", tuple(values))

    @property
    def link_count(self) -> int:
        return len(self.values)

    def prob(self, link: int, state: int):
        if not 0 <= link < self.link_count:
            raise IndexOutOfRange("link %d outside 0..%d" % (link, self.link_count - 1))
        if not 1 <= state <= self.n_states:
            raise IndexOutOfRange("state %d outside 1..%d" % (state, self.n_states))
        p = self.values[link][state - 1]
        if p is None:
            raise PreconditionViolated(
                "probability missing for state %d on link %d" % (state, link)
            )
        return p

    def as_array(self) -> np.ndarray:
        """(links, N) float array with NaN where unknown."""
        out = np.full((self.link_count, self.n_states), np.nan)
        for i, row in enumerate(self.values):
            for a, p in enumerate(row):
                if p is not None:
                    out[i, a] = float(p)
        return out


def expected_power(scenario, state: int):
    """Power expectation at this agent state, priced per link."""
    if scenario.transmit is None:
        raise PreconditionViolated(
            "expected radio power undefined: scenario has no channel tables"
        )
    return sum(
        plant.mu * scenario.transmit.prob(i, state)
        for i, plant in enumerate(scenario.plants)
    )


def consistency_gaps(direct: SuccessTable, derived: SuccessTable) -> list:
    """(link, state, direct, derived) wherever the two tables disagree > GAP_TOL."""
    if direct.n_states != derived.n_states or direct.link_count != derived.link_count:
        raise DimensionMismatch("success tables have different shapes")
    gaps = []
    for i in range(direct.link_count):
        for a in range(1, direct.n_states + 1):
            d = direct.values[i][a - 1]
            e = derived.values[i][a - 1]
            if d is None or e is None:
                continue
            if abs(d - e) > GAP_TOL:
                gaps.append((i, a, d, e))
    return gaps
