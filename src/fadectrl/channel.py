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

The scenario loader validates the fading rows and maps each agent state
a row describes to its per-link transmit shares and success
probabilities, exact sums and products of the document's decimals; the
rows may cover only the admissible agent states.  A measured success
table can be supplied directly for all states and then takes precedence
over the derived one (consistency_gaps reports where the two disagree).
"""

from __future__ import annotations

from .errors import PreconditionViolated

GAP_TOL = 0.01  # measured vs derived success disagreement worth a warning


def expected_power(scenario, state: int):
    """Power expectation at this agent state, priced per link."""
    if scenario.transmit is None:
        raise PreconditionViolated(
            "expected radio power undefined: scenario has no channel tables"
        )
    shares = scenario.transmit.get(state)
    if shares is None:
        raise PreconditionViolated(
            "expected radio power undefined at state %d: no fading row covers it" % state
        )
    return sum(plant.mu * t for plant, t in zip(scenario.plants, shares))


def consistency_gaps(direct, derived) -> list:
    """(link, state, direct, derived), by link then state, wherever the two
    {state: per-link probabilities} mappings disagree by more than GAP_TOL."""
    return sorted(
        (i, a, d, e)
        for a in direct.keys() & derived.keys()
        for i, (d, e) in enumerate(zip(direct[a], derived[a]))
        if abs(d - e) > GAP_TOL
    )
