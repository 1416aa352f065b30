"""State-dependent fading links.

Proves:
 Group 1 - probability algebra on a small synthetic setup, exactly
 Group 2 - the bundled scenario's tables reproduce the measured
           success rows (one documented disagreement aside)
 Group 3 - table validation and index contracts (the fading tables
           themselves are validated by the loader, see test_scenario)
"""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from fadectrl.channel import (
    SuccessTable,
    consistency_gaps,
    derive_tables,
    expected_power,
)
from fadectrl.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    PreconditionViolated,
    ValueOutOfRange,
)
from fadectrl.scenario import load_scenario_text
from fadectrl.wcs import Plant, WcsModel

F = Fraction


def _tiny():
    """Two links, two agent states, two local channel states; link 1
    transmits only in local state 0, link 2 always; link 2 does not
    cover state 2."""
    return derive_tables(
        ((1, 0), (1, 1)),
        gamma=(
            ((F("0.6"), F("0.4")), (F("0.2"), F("0.8"))),
            ((F("0.5"), F("0.5")), None),
        ),
        eta=(
            (F("0.9"), F("0.5")),
            (F("0.7"), None),
        ),
    )


def _two_plants():
    arm = Plant([[0.1]], [[1.1]], [[1.0]], 0.9, [[1.0]], F("0.25"))
    conveyor = Plant([[0.2]], [[1.2]], [[1.0]], 0.9, [[1.0]], F("0.5"))
    return WcsModel((arm, conveyor))


# ── Group 1: probability algebra ─────────────────────────────────────────────

def test_transmit_prob_masks_by_policy():
    transmit, _ = _tiny()
    assert transmit.prob(0, 1) == F("0.6")
    assert transmit.prob(0, 2) == F("0.2")
    assert transmit.prob(1, 1) == 1


def test_success_prob_scales_by_decode():
    _, success = _tiny()
    assert success.prob(0, 1) == F("0.9") * F("0.6")
    assert success.prob(0, 2) == F("0.5") * F("0.2")
    assert success.prob(1, 1) == F("0.7")
    assert all(isinstance(p, Fraction) for p in success.values[0])


def test_expected_power_prices_transmissions():
    transmit, _ = _tiny()
    power = expected_power(SimpleNamespace(transmit=transmit, wcs=_two_plants()), 1)
    assert power == F("0.25") * F("0.6") + F("0.5") * 1
    assert isinstance(power, Fraction)
    with pytest.raises(PreconditionViolated, match="no channel tables"):
        expected_power(SimpleNamespace(transmit=None, wcs=_two_plants()), 1)


def test_derived_success_table():
    _, table = _tiny()
    assert table.prob(0, 1) == F("0.54")
    assert table.values[1][1] is None
    arr = table.as_array()
    assert arr.shape == (2, 2)
    assert np.isnan(arr[1, 1]) and arr[0, 0] == 0.54


def test_uncovered_state_contracts():
    transmit, success = _tiny()
    assert transmit.values[1] == (1, None)
    with pytest.raises(PreconditionViolated):
        transmit.prob(1, 2)
    with pytest.raises(PreconditionViolated):
        success.prob(1, 2)
    with pytest.raises(IndexOutOfRange):
        transmit.prob(2, 1)
    with pytest.raises(IndexOutOfRange):
        transmit.prob(0, 3)


def test_consistency_gaps_reports_disagreements():
    _, derived = _tiny()
    direct = SuccessTable(2, ((F("0.54"), F("0.2")), (F("0.7"), None)))
    assert consistency_gaps(direct, derived) == [(0, 2, F("0.2"), F("0.1"))]
    agree = SuccessTable(2, ((F("0.54"), F("0.105")), (F("0.7"), None)))
    assert consistency_gaps(agree, derived) == []


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
            assert abs(direct.prob(i, a) - derived.prob(i, a)) <= F("0.005")


def test_bundled_success_prefers_measurements(scenario, scenario_path):
    assert scenario.success.prob(0, 2) == F("0.33")
    assert scenario.success.prob(1, 5) == F("0.10")
    assert _derived_only(scenario_path).success.prob(1, 5) == F("0.075")
    assert any("link 2" in w and "state 5" in w for w in scenario.warnings)


def test_bundled_power_expectations(scenario):
    # transmit masses by state row group, priced 0.25 and 0.5 per link
    for a, expect in ((2, F(13, 40)), (4, F(13, 40)),
                      (5, F(3, 10)), (6, F(7, 20))):
        assert expected_power(scenario, a) == expect


# ── Group 3: validation ──────────────────────────────────────────────────────

def test_success_table_validation():
    with pytest.raises(ValueOutOfRange):
        SuccessTable(2, ((F("0.5"), F("1.5")),))
    with pytest.raises(DimensionMismatch):
        SuccessTable(2, ((F("0.5"),),))
    table = SuccessTable(2, ((F("0.5"), None),))
    with pytest.raises(PreconditionViolated):
        table.prob(0, 2)
    with pytest.raises(DimensionMismatch):
        consistency_gaps(table, SuccessTable(1, ((F("0.5"),),)))


@pytest.mark.parametrize("link, state", [(0, 0), (-1, 3), (0, 10), (2, 1)])
def test_success_table_prob_checks_indices(scenario, link, state):
    # state 0 used to wrap to state 9 and link -1 to the last link
    for table in (scenario.success, scenario.transmit):
        with pytest.raises(IndexOutOfRange):
            table.prob(link, state)
