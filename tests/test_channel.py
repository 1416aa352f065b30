"""State-dependent fading links.

Proves:
 Group 1 - probability algebra on tiny scenario documents, exactly
 Group 2 - the bundled scenario's tables reproduce the measured
           success rows (one documented disagreement aside)
 Group 3 - the radio power of a state no fading row covers is a
           precondition error (the fading tables themselves are validated
           by the loader, see test_scenario)
"""

import dataclasses
from fractions import Fraction

import pytest

from fadectrl.channel import consistency_gaps, expected_power
from fadectrl.errors import PreconditionViolated
from fadectrl.scenario import load_scenario_text

F = Fraction

# two links priced 0.25 and 0.5, one agent over kappa values, two local
# channel states; the fading rows and the admissible states vary per test
TINY = """\
fast_steps_per_slow: 1
plants:
  - {name: arm, a_closed: 0.1, a_open: 1.1, quality_weight: 1.0,
     decay_rate: 0.9, noise_cov: 1.0, power_price: 0.25}
  - {name: conveyor, a_closed: 0.2, a_open: 1.2, quality_weight: 1.0,
     decay_rate: 0.9, noise_cov: 1.0, power_price: 0.5}
agents: {count: 1, kappa: %(kappa)d, weights: {1: {1: 1}}, initial_state: 1}
constraints: {states: %(states)s, inputs: [1]}
channel:
  local_states: 2
  transmit_policy: %(policy)s
  fading:
%(fading)s
cost: {input_weight: 0, input_costs: %(costs)s}
"""


def _tiny_scenario(policy="[[1, 0], [1, 1]]", fading=(
        "    1: {decode: [0.9, 0.7], dist: [[0.6, 0.4], [0.5, 0.5]]}",
        "    2: {decode: [0.5, 0.3], dist: [[0.2, 0.8], [0.1, 0.9]]}"),
        states="[1, 2]", kappa=3):
    """By default link 1 transmits only in local state 0 and link 2 always,
    and the fading tables leave agent state 3 uncovered."""
    return load_scenario_text(TINY % {
        "kappa": kappa, "states": states, "policy": policy,
        "fading": "\n".join(fading), "costs": [0] * kappa})


def _tiny():
    scn = _tiny_scenario()
    return scn.transmit, scn.success


# ── Group 1: probability algebra ─────────────────────────────────────────────

def test_transmit_prob_masks_by_policy():
    transmit, _ = _tiny()
    assert transmit == {1: (F("0.6"), 1), 2: (F("0.2"), 1)}


def test_success_prob_scales_by_decode():
    _, success = _tiny()
    assert success == {1: (F("0.9") * F("0.6"), F("0.7")),
                       2: (F("0.5") * F("0.2"), F("0.3"))}
    assert all(isinstance(p, Fraction) for probs in success.values() for p in probs)


def test_transmit_sums_stay_exact():
    # a policy that never transmits sums no probability at all: its entry
    # must still be an exact zero, as every other entry is an exact sum
    scn = _tiny_scenario(policy="[[0, 0], [1, 0]]", fading=(
        "    1: {decode: [0.9, 0.5], dist: [[0.6, 0.4], [0.3, 0.7]]}",), states="[1]", kappa=2)
    assert scn.transmit == {1: (F(0), F("0.3"))}
    assert scn.success == {1: (F(0), F("0.15"))}
    for table in (scn.transmit, scn.success):
        assert all(isinstance(p, Fraction) for p in table[1])


def test_expected_power_prices_transmissions():
    scn = _tiny_scenario()
    power = expected_power(scn, 1)
    assert power == F("0.25") * F("0.6") + F("0.5") * 1
    assert isinstance(power, Fraction)
    with pytest.raises(PreconditionViolated, match="no channel tables"):
        expected_power(dataclasses.replace(scn, transmit=None), 1)


def test_derived_success_table():
    _, table = _tiny()
    assert table[1][0] == F("0.54")
    assert sorted(table) == [1, 2]  # state 3 has no fading row


def test_uncovered_state_contracts():
    scn = _tiny_scenario()
    assert 3 not in scn.transmit and 3 not in scn.success
    with pytest.raises(PreconditionViolated, match="state 3"):
        expected_power(scn, 3)


def test_consistency_gaps_reports_disagreements():
    _, derived = _tiny()
    direct = {1: (F("0.54"), F("0.7")), 2: (F("0.2"), F("0.3")), 3: (F(0), F(0))}
    assert consistency_gaps(direct, derived) == [(0, 2, F("0.2"), F("0.1"))]
    agree = {1: (F("0.54"), F("0.7")), 2: (F("0.105"), F("0.3"))}
    assert consistency_gaps(agree, derived) == []
    # ordered by link, then state
    far = {1: (F(0), F(0)), 2: (F(0), F(0))}
    assert [gap[:2] for gap in consistency_gaps(far, derived)] == [
        (0, 1), (0, 2), (1, 1), (1, 2)]


# ── Group 2: the bundled tables vs the measured rows ─────────────────────────

def _derived_only(scenario_path):
    """The bundled cell without its measured table: success is derived."""
    text = scenario_path.read_text()
    cut = text[text.index("  success_direct:"):text.index("\ncost:")]
    return load_scenario_text(text.replace(cut, ""))


def test_bundled_derivation_matches_measurements(scenario, scenario_path):
    direct = scenario.success
    derived = _derived_only(scenario_path).success
    gaps = consistency_gaps(direct, derived)
    # a single measured entry disagrees with the tables beyond rounding
    assert gaps == [(1, 5, F("0.10"), F("0.075"))]
    for i in range(2):
        for a in range(1, 10):
            if (i, a) == (1, 5):
                continue
            assert abs(direct[a][i] - derived[a][i]) <= F("0.005")


def test_bundled_success_prefers_measurements(scenario, scenario_path):
    assert scenario.success[2][0] == F("0.33")
    assert scenario.success[5][1] == F("0.10")
    assert _derived_only(scenario_path).success[5][1] == F("0.075")
    assert any("link 2" in w and "state 5" in w for w in scenario.warnings)


def test_bundled_power_expectations(scenario):
    # transmit masses by state row group, priced 0.25 and 0.5 per link
    for a, expect in ((2, F(13, 40)), (4, F(13, 40)),
                      (5, F(3, 10)), (6, F(7, 20))):
        assert expected_power(scenario, a) == expect


# ── Group 3: states outside the fading rows ──────────────────────────────────

@pytest.mark.parametrize("state", [0, -1, 10])
def test_expected_power_needs_a_fading_row(scenario, state):
    # state 0 used to wrap to state 9 and -1 to state 8
    with pytest.raises(PreconditionViolated, match="state %d" % state):
        expected_power(scenario, state)
