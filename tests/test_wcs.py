"""Switched plants and their delivery-probability thresholds.

Proves:
 Group 1 - thresholds
   1. scalar loop: threshold equals the closed-form 5/48 within 1e-6
   2. two-state loop with the Lyapunov-derived weight: 0.2893770857...
   3. the returned value is a multiple of 2**-30 on the certificate
      boundary: certified there, not one grid step below
   4. scaling the quality weight leaves the threshold unchanged
   5. weaker decay rates need less delivery
   6. precondition and infeasibility contracts
   7. the closed form gives the same float, bit for bit, as the generic
      bisection oracle on the bundled plants and on random stable 1-4-dim
      plants
 Group 2 - model plumbing
   8. the quadratic terms and noise floor stored at construction
   9. construction-time validation, a non-finite noise floor included
  10. a loaded scenario's plants are its links, priced by their mu
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fadectrl.channel import expected_power
from fadectrl.errors import (
    DimensionMismatch,
    Infeasible,
    PreconditionViolated,
    ToolkitError,
    ValueOutOfRange,
)
from fadectrl.wcs import (
    Plant,
    decay_threshold,
    default_lyapunov_weight,
)
from oracles import bisection_threshold

A_C1 = np.array([[-0.1, -0.1], [0.1, 0.2]])
A_O1 = np.array([[-1.0, -0.4], [-0.5, 0.3]])

# the scalar loop: theta (a_c^2 - a_o^2) + a_o^2 - rho <= 0 at
# theta >= (1 - 0.9) / (1 - 0.04) = 5/48
S2_CLOSED_FORM = 5.0 / 48.0
S1_FROZEN = 0.28937708574389487


def _arm() -> Plant:
    q = default_lyapunov_weight(A_C1)
    return Plant(A_C1, A_O1, q, 0.95, np.eye(2), 0.25, name="arm")


def _conveyor() -> Plant:
    return Plant([[0.2]], [[1.0]], [[1.0]], 0.9, [[1.0]], 0.5, name="conveyor")


# ── Group 1: thresholds ──────────────────────────────────────────────────────

def test_scalar_threshold_closed_form():
    assert abs(decay_threshold(_conveyor()) - S2_CLOSED_FORM) < 1e-6


def test_two_state_threshold_frozen_value():
    assert abs(decay_threshold(_arm()) - S1_FROZEN) < 1e-6


def test_threshold_sits_on_certificate_boundary():
    for plant in (_arm(), _conveyor()):
        s = decay_threshold(plant)
        gain = plant.a_c.T @ plant.q @ plant.a_c - plant.a_o.T @ plant.q @ plant.a_o
        open_term = plant.a_o.T @ plant.q @ plant.a_o - plant.rho * plant.q

        def certified(theta):
            return max(np.linalg.eigvalsh(theta * gain + open_term)) <= 0.0

        assert (s * 2 ** 30).is_integer()
        assert certified(s)
        assert not certified(s - 2 ** -30)


def test_threshold_invariant_under_weight_scaling():
    arm = _arm()
    scaled = Plant(A_C1, A_O1, 7.0 * arm.q, 0.95, np.eye(2), 0.25)
    assert abs(decay_threshold(arm) - decay_threshold(scaled)) < 1e-9


def test_threshold_decreases_with_weaker_rate():
    q = default_lyapunov_weight(A_C1)
    tight = Plant(A_C1, A_O1, q, 0.90, np.eye(2), 0.25)
    loose = Plant(A_C1, A_O1, q, 0.99, np.eye(2), 0.25)
    assert decay_threshold(loose) < decay_threshold(tight)


def test_threshold_precondition_violation():
    # identical closed and open loops: no strict improvement to certify
    p = Plant([[0.5]], [[0.5]], [[1.0]], 0.9, [[1.0]], 1.0)
    with pytest.raises(PreconditionViolated):
        decay_threshold(p)


def test_threshold_infeasible_rate():
    # even sure delivery leaves a_c^2 = 0.25 above rho = 0.2
    p = Plant([[0.5]], [[1.5]], [[1.0]], 0.2, [[1.0]], 1.0)
    with pytest.raises(Infeasible):
        decay_threshold(p)


def _outcome(threshold, plant):
    """The threshold's float as hex, or the type of the error it raised."""
    try:
        return threshold(plant).hex()
    except ToolkitError as e:
        return type(e)


def test_threshold_equals_bisection_oracle_on_bundled_plants(scenario):
    got = [decay_threshold(p).hex() for p in scenario.plants]
    assert got == [bisection_threshold(p).hex() for p in scenario.plants]
    assert [float.fromhex(h) for h in got] == pytest.approx([S1_FROZEN, S2_CLOSED_FORM],
                                                           abs=2 ** -30)


@st.composite
def _stable_plants(draw):
    """A plant of dimension 1-4 whose closed loop is stable (radius below
    0.95) and whose open loop is its closed loop scaled up and perturbed,
    with the Lyapunov or the identity weight."""
    n = draw(st.integers(1, 4))
    entries = hnp.arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0, width=64))
    a_c = draw(entries)
    radius = max(np.abs(np.linalg.eigvals(a_c)))
    assume(radius > 1e-3)
    a_c = a_c * (draw(st.floats(0.05, 0.95)) / radius)
    a_o = draw(st.floats(1.5, 4.0)) * a_c + 0.1 * draw(entries)
    q = default_lyapunov_weight(a_c) if draw(st.booleans()) else np.eye(n)
    return Plant(a_c, a_o, q, draw(st.floats(0.05, 0.99)), np.eye(n), 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(plant=_stable_plants())
def test_threshold_equals_bisection_oracle(plant):
    got = _outcome(decay_threshold, plant)
    assert got == _outcome(bisection_threshold, plant)


# ── Group 2: model plumbing ──────────────────────────────────────────────────

def test_noise_floor_is_weighted_trace():
    arm = _arm()
    assert abs(arm.q_xi_trace - np.trace(arm.q @ np.eye(2))) < 1e-12
    xi = np.array([[2.0, 0.0], [0.0, 3.0]])
    noisy = Plant(A_C1, A_O1, arm.q, 0.95, xi, 0.25)
    assert abs(noisy.q_xi_trace - np.trace(arm.q @ xi)) < 1e-12
    # the quadratic terms are formed once, at construction
    assert np.array_equal(noisy.aqa_closed, A_C1.T @ arm.q @ A_C1)
    assert np.array_equal(noisy.aqa_open, A_O1.T @ arm.q @ A_O1)


def test_default_weight_satisfies_equation():
    q = default_lyapunov_weight(A_C1)
    assert np.max(np.abs(A_C1.T @ q @ A_C1 - q + np.eye(2))) <= 1e-9
    assert min(np.linalg.eigvalsh(q)) > 0


def test_plant_validation():
    with pytest.raises(ValueOutOfRange):
        Plant([[0.2]], [[1.0]], [[1.0]], 1.0, [[1.0]], 0.5)
    with pytest.raises(ValueOutOfRange):
        Plant([[0.2]], [[1.0]], [[1.0]], 0.9, [[1.0]], 0.0)
    with pytest.raises(PreconditionViolated):
        Plant([[0.2]], [[1.0]], [[-1.0]], 0.9, [[1.0]], 0.5)
    with pytest.raises(PreconditionViolated):
        Plant([[0.2]], [[1.0]], [[1.0]], 0.9, [[-1.0]], 0.5)
    with pytest.raises(DimensionMismatch):
        Plant(np.eye(2), [[1.0]], np.eye(2), 0.9, np.eye(2), 0.5)
    with pytest.raises(PreconditionViolated):
        Plant(np.eye(2) * 0.1, np.eye(2), [[1.0, 0.5], [0.0, 1.0]], 0.9, np.eye(2), 0.5)
    # A' Q A stays finite, but trace(Q Xi) overflows float64
    with pytest.raises(ValueOutOfRange,
                       match=r"noise covariance of plant belt: tr\(Q Xi\) is not finite"):
        Plant([[0.2]], [[1.0]], [[1e300]], 0.9, [[1e300]], 0.5, name="belt")


def test_wcs_model_plumbing(scenario):
    # link i carries plant i's packets; its power price is that plant's mu
    assert [p.name for p in scenario.plants] == ["arm", "conveyor"]
    assert [p.mu for p in scenario.plants] == [Fraction("0.25"), Fraction("0.5")]
    for a in sorted(scenario.constraints.state_set):
        assert expected_power(scenario, a) == sum(
            p.mu * t for p, t in zip(scenario.plants, scenario.transmit[a]))
