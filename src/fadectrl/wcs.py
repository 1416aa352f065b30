"""Switched linear plants sharing a lossy wireless medium.

Each control loop runs closed when its packet is delivered and open
otherwise:

    x(l+1) = A_c x(l) + w(l)   on delivery,
    x(l+1) = A_o x(l) + w(l)   on loss,      w ~ N(0, Xi).

Quality is a quadratic form V(x) = x' Q x that must contract in
conditional expectation at rate rho up to the stationary noise floor
trace(Q Xi).  Delivery with probability at least

    s = sup_y  y'(A_o' Q A_o - rho Q) y / y'(A_o' Q A_o - A_c' Q A_c) y

guarantees that contraction; decay_threshold computes s by bisecting
theta on negative semidefiniteness of

    M(theta) = theta (A_c' Q A_c - A_o' Q A_o) + A_o' Q A_o - rho Q,

which is monotone in theta whenever the closed loop strictly improves
on the open loop (the stated precondition).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, PreconditionViolated, ValueOutOfRange
from .linalg import (
    bisect_threshold,
    chol_semidefinite,
    require_symmetric,
    solve_dlyap,
    sym_eigenvalues,
)

DEFINITE_MARGIN = 1e-12


def _square(m, what: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("%s must be square, got %s" % (what, m.shape))
    return m


@dataclass
class Plant:
    """One control loop: closed/open dynamics, quality weight, noise.

    The quadratic terms of the decay bound are formed once, at
    construction, and must be finite in float64: aqa_closed = A_c' Q A_c,
    aqa_open = A_o' Q A_o, and q_xi_trace = trace(Q Xi), the bound's
    stationary noise floor.
    """

    a_c: np.ndarray
    a_o: np.ndarray
    q: np.ndarray
    rho: float
    xi: np.ndarray
    mu: object  # transmission power price; exact number or float
    name: str = ""
    aqa_closed: np.ndarray = field(init=False, repr=False)
    aqa_open: np.ndarray = field(init=False, repr=False)
    q_xi_trace: float = field(init=False, repr=False)

    def __post_init__(self):
        self.a_c = _square(self.a_c, "closed-loop matrix")
        self.a_o = _square(self.a_o, "open-loop matrix")
        if self.a_o.shape != self.a_c.shape:
            raise DimensionMismatch(
                "open/closed matrices disagree: %s vs %s"
                % (self.a_o.shape, self.a_c.shape)
            )
        self.q = require_symmetric(_square(self.q, "quality weight"), what="quality weight")
        if self.q.shape != self.a_c.shape:
            raise DimensionMismatch("quality weight shape %s" % (self.q.shape,))
        if min(sym_eigenvalues(self.q)) <= 0:
            raise PreconditionViolated("quality weight must be positive definite")
        self.xi = require_symmetric(_square(self.xi, "noise covariance"), what="noise covariance")
        if self.xi.shape != self.a_c.shape:
            raise DimensionMismatch("noise covariance shape %s" % (self.xi.shape,))
        if min(sym_eigenvalues(self.xi)) < -1e-10:
            raise PreconditionViolated("noise covariance must be positive semidefinite")
        if not 0.0 < float(self.rho) < 1.0:
            raise ValueOutOfRange("decay rate %r outside (0, 1)" % (self.rho,))
        if not self.mu > 0:
            raise ValueOutOfRange("power price %r must be positive" % (self.mu,))
        with np.errstate(over="ignore", invalid="ignore"):
            self.aqa_closed = self.a_c.T @ self.q @ self.a_c
            self.aqa_open = self.a_o.T @ self.q @ self.a_o
            # summed elementwise so that no BLAS kernel enters
            self.q_xi_trace = float(np.sum(self.q * self.xi.T))
        # decay_threshold would search on inf and nan, simulate would
        # report a nan margin
        for value, what, term in ((self.aqa_closed, "closed-loop matrix", "A' Q A"),
                                  (self.aqa_open, "open-loop matrix", "A' Q A"),
                                  (self.q_xi_trace, "noise covariance", "tr(Q Xi)")):
            if not np.isfinite(value).all():
                raise ValueOutOfRange("%s of plant %s: %s is not finite in float64"
                                      % (what, self.name or "(unnamed)", term))

    @property
    def dim(self) -> int:
        return self.a_c.shape[0]

    def noise_factor(self) -> np.ndarray:
        return chol_semidefinite(self.xi)


@dataclass
class WcsModel:
    """All loops sharing the medium; link i carries plant i's packets."""

    plants: tuple

    def __post_init__(self):
        self.plants = tuple(self.plants)
        if not self.plants:
            raise DimensionMismatch("need at least one plant")

    @property
    def link_count(self) -> int:
        return len(self.plants)

    @property
    def power_prices(self) -> tuple:
        return tuple(p.mu for p in self.plants)


def default_lyapunov_weight(a_c) -> np.ndarray:
    """Q solving A_c' Q A_c - Q + I = 0 (the closed loop's natural weight)."""
    a_c = _square(a_c, "closed-loop matrix")
    return solve_dlyap(a_c, np.eye(a_c.shape[0]))


def decay_threshold(plant: Plant) -> float:
    """Minimal delivery probability certifying the rate-rho decay bound.

    Precondition: A_c' Q A_c - A_o' Q A_o strictly negative definite
    (every eigenvalue <= -DEFINITE_MARGIN); otherwise the ratio has no
    monotone certificate and PreconditionViolated is raised.  Raises
    Infeasible when even sure delivery cannot sustain the rate.
    """
    gain = plant.aqa_closed - plant.aqa_open
    if max(sym_eigenvalues(gain)) > -DEFINITE_MARGIN:
        raise PreconditionViolated(
            "closed loop does not strictly improve on open loop in Q-metric"
        )
    open_term = plant.aqa_open - float(plant.rho) * plant.q

    def certified(theta: float) -> bool:
        return max(sym_eigenvalues(theta * gain + open_term)) <= 0.0

    return bisect_threshold(certified)
