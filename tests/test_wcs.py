"""Switched plants and their delivery-probability thresholds.

Proves:
 Group 1 - thresholds
   1. scalar loop: threshold equals the closed-form 5/48 within 1e-6
   2. two-state loop with the Lyapunov-derived weight: 0.2893770857...
   3. the returned value sits exactly on the certificate boundary
   4. scaling the quality weight leaves the threshold unchanged
   5. weaker decay rates need less delivery
   6. precondition and infeasibility contracts
 Group 2 - model plumbing
   7. noise_floor arithmetic
   8. construction-time validation
"""

import numpy as np
import pytest

from fadectrl.errors import (
    DimensionMismatch,
    Infeasible,
    PreconditionViolated,
    ValueOutOfRange,
)
from fadectrl.wcs import (
    Plant,
    WcsModel,
    decay_threshold,
    default_lyapunov_weight,
)

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

        assert certified(s)
        assert not certified(s - 2e-6)


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


# ── Group 2: model plumbing ──────────────────────────────────────────────────

def test_noise_floor_is_weighted_trace():
    arm = _arm()
    assert abs(arm.noise_floor - np.trace(arm.q @ np.eye(2))) < 1e-12
    xi = np.array([[2.0, 0.0], [0.0, 3.0]])
    noisy = Plant(A_C1, A_O1, arm.q, 0.95, xi, 0.25)
    assert abs(noisy.noise_floor - np.trace(arm.q @ xi)) < 1e-12


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


def test_wcs_model_plumbing():
    model = WcsModel((_arm(), _conveyor()))
    assert model.link_count == 2
    assert model.power_prices == (0.25, 0.5)
    with pytest.raises(DimensionMismatch):
        WcsModel(())
