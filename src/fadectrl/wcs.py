"""Switched linear plants sharing a lossy wireless medium.

Each control loop runs closed when its packet is delivered and open
otherwise:

    x(l+1) = A_c x(l) + w(l)   on delivery,
    x(l+1) = A_o x(l) + w(l)   on loss,      w ~ N(0, Xi).

Quality is a quadratic form V(x) = x' Q x that must contract in
conditional expectation at rate rho up to the stationary noise floor
trace(Q Xi).  Delivery with probability theta >= 0 certifies that
contraction exactly when H - theta G is negative semidefinite, with

    G = A_o' Q A_o - A_c' Q A_c,    H = A_o' Q A_o - rho Q,

so whenever the closed loop strictly improves on the open loop (G
positive definite, the stated precondition) the threshold is the
largest eigenvalue of the pair (H, G):

    s = sup_y  y' H y / y' G y = lambda_max(W' H W),   W = V diag(g)^(-1/2),

where G = V diag(g) V' is G's symmetric eigendecomposition.
decay_threshold computes s that way and rounds it up to the grid of
2**-30.  numpy does the dense numerics; this module adds the error
contracts (non-contraction, infeasibility, indefiniteness) the toolkit
reports.  The noise factor is a Cholesky whose dot products are
index-order sums, so it does not depend on the BLAS kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    PreconditionViolated,
    Unstable,
    ValueOutOfRange,
)

DEFINITE_MARGIN = 1e-12
_SYMMETRY_TOL = 1e-9  # largest |m - m'| entry, relative to the largest |m| entry
_PIVOT_TOL = 1e-10  # a Cholesky pivot, relative to the largest |m| entry


def _square(m, what: str) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch("%s must be square, got %s" % (what, m.shape))
    return m


def require_symmetric(m, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("%s must be square, got shape %s" % (what, m.shape))
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > _SYMMETRY_TOL * scale:
        raise PreconditionViolated("%s is not symmetric" % what)
    return 0.5 * (m + m.T)


def _dot(u, v) -> float:
    """u . v summed in index order, so the same on every BLAS kernel."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def chol_semidefinite(m) -> np.ndarray:
    """Lower Cholesky factor of a PSD matrix, zero rows where rank drops.

    Standard algorithm with the pivot clamped at zero; a pivot below
    -_PIVOT_TOL * scale means the matrix is not PSD.  Its dot products are
    index-order sums, so the factor does not depend on the BLAS kernel.
    """
    m = require_symmetric(m, what="noise covariance")
    n = m.shape[0]
    scale = max(1.0, float(np.max(np.abs(m))))
    l = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - _dot(l[j, :j], l[j, :j])
        if d < -_PIVOT_TOL * scale:
            raise PreconditionViolated(
                "noise covariance not positive semidefinite (pivot %.3e)" % d
            )
        if d <= _PIVOT_TOL * scale:
            continue  # rank-deficient direction: leave the row zero
        l[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            l[i, j] = (m[i, j] - _dot(l[i, :j], l[j, :j])) / l[j, j]
    return l


@dataclass
class Plant:
    """One control loop: closed/open dynamics, quality weight, noise.

    The quadratic terms of the decay bound are formed once, at
    construction, and must be finite in float64: aqa_closed = A_c' Q A_c,
    aqa_open = A_o' Q A_o, and q_xi_trace = trace(Q Xi), the bound's
    stationary noise floor.  So is noise_factor, the Cholesky factor of Xi
    the co-simulation draws with: a Xi it cannot factor is rejected here.
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
    noise_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.a_c = _square(self.a_c, "closed-loop matrix")
        self.a_o = _square(self.a_o, "open-loop matrix")
        if self.a_o.shape != self.a_c.shape:
            raise DimensionMismatch("open/closed matrices disagree: %s vs %s"
                                    % (self.a_o.shape, self.a_c.shape))
        self.q = require_symmetric(_square(self.q, "quality weight"), what="quality weight")
        if self.q.shape != self.a_c.shape:
            raise DimensionMismatch("quality weight shape %s" % (self.q.shape,))
        if min(np.linalg.eigvalsh(self.q)) <= 0:
            raise PreconditionViolated("quality weight must be positive definite")
        self.xi = require_symmetric(_square(self.xi, "noise covariance"), what="noise covariance")
        if self.xi.shape != self.a_c.shape:
            raise DimensionMismatch("noise covariance shape %s" % (self.xi.shape,))
        if min(np.linalg.eigvalsh(self.xi)) < -1e-10:
            raise PreconditionViolated("noise covariance must be positive semidefinite")
        self.noise_factor = chol_semidefinite(self.xi)
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


def default_lyapunov_weight(a_c) -> np.ndarray:
    """Q solving A_c' Q A_c - Q + I = 0 (the closed loop's natural weight).

    The solution exists and is unique iff the spectral radius of A_c is
    below one; otherwise Unstable is raised.  Row-major vectorization
    turns the equation into (A_c' kron A_c' - I) vec(Q) = -vec(I).
    """
    a_c = _square(a_c, "closed-loop matrix")
    if not np.isfinite(a_c).all():
        raise Unstable("state matrix has non-finite entries")
    radius = float(np.max(np.abs(np.linalg.eigvals(a_c)), initial=0.0))
    if radius >= 1.0:
        raise Unstable("spectral radius %.6g >= 1" % radius)
    n = a_c.shape[0]
    try:
        q = np.linalg.solve(np.kron(a_c.T, a_c.T) - np.eye(n * n), -np.eye(n).ravel())
    except np.linalg.LinAlgError as e:  # a radius within rounding of 1
        raise PreconditionViolated("Lyapunov equation is singular in float64 at spectral "
                                   "radius %.12g: %s" % (radius, e)) from None
    q = q.reshape(n, n)
    return 0.5 * (q + q.T)


def decay_threshold(plant: Plant) -> float:
    """Minimal delivery probability certifying the rate-rho decay bound.

    Precondition: G = A_o' Q A_o - A_c' Q A_c strictly positive definite
    (every eigenvalue >= DEFINITE_MARGIN); otherwise the ratio is
    unbounded or ill-posed and PreconditionViolated is raised.  The
    threshold is lambda_max(W' H W) (see the module docstring): Infeasible
    is raised when it exceeds 1, as even sure delivery cannot sustain the
    rate, and 0.0 is returned when it is not positive, as the open loop
    alone does.  Otherwise the result is the threshold rounded up to the
    next multiple of 2**-30.
    """
    g, v = np.linalg.eigh(require_symmetric(plant.aqa_open - plant.aqa_closed))
    if g[0] < DEFINITE_MARGIN:
        raise PreconditionViolated(
            "closed loop does not strictly improve on open loop in Q-metric"
        )
    w = v / np.sqrt(g)
    pencil = w.T @ (plant.aqa_open - float(plant.rho) * plant.q) @ w
    s = max(np.linalg.eigvalsh(0.5 * (pencil + pencil.T)))
    if s > 1.0:
        raise Infeasible("predicate false at theta = 1")
    if s <= 0.0:
        return 0.0
    # rounded up to the 2**-30 grid because README and perfbench/pinned.json
    # pin the thresholds printed on it (0.2893770859 for the arm, whose
    # exact value prints as 0.2893770857)
    return math.ceil(s * 2 ** 30) / 2 ** 30
