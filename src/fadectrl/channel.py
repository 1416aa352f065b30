"""State-dependent fading links between sensors and controllers.

Link i sees a local channel state c in {0,...,r-1} whose distribution
gamma_i(c | alpha) depends on where the mobile agents sit (the joint
agent state alpha).  The radio transmits only in the states its policy
h_i allows, and a transmitted packet decodes with probability
eta_i(alpha).  Hence

    transmit_prob_i(alpha) = sum_c gamma_i(c | alpha) h_i(c),
    success_prob_i(alpha)  = eta_i(alpha) * transmit_prob_i(alpha),

and the expected radio power drawn at alpha prices each link's
transmission attempts:

    expected_power(alpha) = sum_i mu_i * transmit_prob_i(alpha).

Tables may cover only the admissible agent states; probabilities are
kept as exact numbers (fractions) when they come from a scenario file.
A measured success table can be supplied directly and then takes
precedence over the derived one (consistency_gaps reports where the two
disagree).
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

ROW_MASS_TOL = 1e-9


def _check_prob(v, what: str):
    if not 0 <= v <= 1:
        raise ValueOutOfRange("%s = %r outside [0, 1]" % (what, v))


@dataclass(frozen=True)
class TransmitPolicy:
    """Per-link 0/1 transmit decision over the r local channel states."""

    r: int
    h: tuple  # tuple of per-link tuples, entries 0 or 1

    def __post_init__(self):
        if self.r < 1:
            raise ValueOutOfRange("need at least one local channel state")
        object.__setattr__(self, "h", tuple(tuple(int(b) for b in row) for row in self.h))
        for i, row in enumerate(self.h):
            if len(row) != self.r:
                raise DimensionMismatch(
                    "policy row %d has %d entries, expected %d" % (i, len(row), self.r)
                )
            if any(b not in (0, 1) for b in row):
                raise ValueOutOfRange("policy entries must be 0 or 1")

    @property
    def link_count(self) -> int:
        return len(self.h)


@dataclass(frozen=True)
class ChannelTables:
    """gamma[i][a-1]: length-r distribution or None where uncovered;
    eta[i][a-1]: decode probability or None."""

    n_states: int
    gamma: tuple
    eta: tuple

    def __post_init__(self):
        if len(self.gamma) != len(self.eta):
            raise DimensionMismatch("gamma and eta disagree on link count")
        gamma = []
        for i, rows in enumerate(self.gamma):
            if len(rows) != self.n_states:
                raise DimensionMismatch(
                    "gamma for link %d covers %d states, expected %d"
                    % (i, len(rows), self.n_states)
                )
            cooked = []
            for a, row in enumerate(rows):
                if row is None:
                    cooked.append(None)
                    continue
                row = tuple(row)
                for c, p in enumerate(row):
                    _check_prob(p, "gamma[link %d][state %d][%d]" % (i, a + 1, c))
                mass = sum(row)
                if abs(mass - 1) > ROW_MASS_TOL:
                    raise ValueOutOfRange(
                        "gamma row (link %d, state %d) sums to %s" % (i, a + 1, mass)
                    )
                cooked.append(row)
            gamma.append(tuple(cooked))
        eta = []
        for i, rows in enumerate(self.eta):
            if len(rows) != self.n_states:
                raise DimensionMismatch(
                    "eta for link %d covers %d states, expected %d"
                    % (i, len(rows), self.n_states)
                )
            for a, p in enumerate(rows):
                if p is not None:
                    _check_prob(p, "eta[link %d][state %d]" % (i, a + 1))
            eta.append(tuple(rows))
        object.__setattr__(self, "gamma", tuple(gamma))
        object.__setattr__(self, "eta", tuple(eta))

    @property
    def link_count(self) -> int:
        return len(self.gamma)

    def covered(self, link: int, state: int) -> bool:
        return self.gamma[link][state - 1] is not None and self.eta[link][state - 1] is not None


def _check_link_state(tables_or_n, policy, link, state):
    n_states = tables_or_n
    if not 0 <= link < policy.link_count:
        raise IndexOutOfRange("link %d outside 0..%d" % (link, policy.link_count - 1))
    if not 1 <= state <= n_states:
        raise IndexOutOfRange("state %d outside 1..%d" % (state, n_states))


def transmit_prob(tables: ChannelTables, policy: TransmitPolicy, link: int, state: int):
    """Probability that link's radio transmits at the given agent state."""
    _check_link_state(tables.n_states, policy, link, state)
    row = tables.gamma[link][state - 1]
    if row is None:
        raise PreconditionViolated(
            "channel tables do not cover state %d on link %d" % (state, link)
        )
    if len(row) != policy.r:
        raise DimensionMismatch(
            "gamma row length %d vs policy r = %d" % (len(row), policy.r)
        )
    return sum(p * b for p, b in zip(row, policy.h[link]))


def success_prob(tables: ChannelTables, policy: TransmitPolicy, link: int, state: int):
    """Probability the packet is transmitted and decoded at this state."""
    _check_link_state(tables.n_states, policy, link, state)
    e = tables.eta[link][state - 1]
    if e is None:
        raise PreconditionViolated(
            "decode probability missing for state %d on link %d" % (state, link)
        )
    return e * transmit_prob(tables, policy, link, state)


def expected_power(tables: ChannelTables, policy: TransmitPolicy, wcs_model, state: int):
    """Power expectation at this agent state, priced per link."""
    if tables is None:
        raise PreconditionViolated(
            "expected radio power undefined: scenario has no channel tables"
        )
    prices = wcs_model.power_prices
    if len(prices) != policy.link_count:
        raise DimensionMismatch(
            "%d plants for %d links" % (len(prices), policy.link_count)
        )
    return sum(
        mu * transmit_prob(tables, policy, i, state) for i, mu in enumerate(prices)
    )


@dataclass(frozen=True)
class SuccessTable:
    """Per-link success probabilities over all agent states (None = unknown)."""

    n_states: int
    values: tuple

    def __post_init__(self):
        values = []
        for i, row in enumerate(self.values):
            row = tuple(row)
            if len(row) != self.n_states:
                raise DimensionMismatch(
                    "success row %d has %d entries, expected %d"
                    % (i, len(row), self.n_states)
                )
            for a, p in enumerate(row):
                if p is not None:
                    _check_prob(p, "success[link %d][state %d]" % (i, a + 1))
            values.append(row)
        object.__setattr__(self, "values", tuple(values))

    @property
    def link_count(self) -> int:
        return len(self.values)

    def prob(self, link: int, state: int):
        p = self.values[link][state - 1]
        if p is None:
            raise PreconditionViolated(
                "success probability missing for state %d on link %d" % (state, link)
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


def success_table(tables: ChannelTables, policy: TransmitPolicy) -> SuccessTable:
    """Success probabilities derived from the channel tables and policy."""
    rows = []
    for i in range(tables.link_count):
        row = []
        for a in range(1, tables.n_states + 1):
            row.append(
                success_prob(tables, policy, i, a) if tables.covered(i, a) else None
            )
        rows.append(tuple(row))
    return SuccessTable(tables.n_states, tuple(rows))


def load_direct_success(rows, n_states: int) -> SuccessTable:
    """Success table supplied directly (e.g. measured), one row per link."""
    return SuccessTable(n_states, tuple(tuple(row) for row in rows))


def consistency_gaps(direct: SuccessTable, derived: SuccessTable, tol=0.01) -> list:
    """(link, state, direct, derived) wherever the two tables disagree > tol."""
    if direct.n_states != derived.n_states or direct.link_count != derived.link_count:
        raise DimensionMismatch("success tables have different shapes")
    gaps = []
    for i in range(direct.link_count):
        for a in range(1, direct.n_states + 1):
            d = direct.values[i][a - 1]
            e = derived.values[i][a - 1]
            if d is None or e is None:
                continue
            if abs(d - e) > tol:
                gaps.append((i, a, d, e))
    return gaps
