"""Small dense numeric kernel: discrete Lyapunov, eigenvalues, bisection.

numpy does the dense numerics; this module adds the error contracts
(non-contraction, infeasibility, indefiniteness) the toolkit reports.
Symmetric inputs are validated with `require_symmetric`.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    PreconditionViolated,
    Unstable,
    ValueOutOfRange,
)

BISECT_TOL = 1e-9
BISECT_MAX_ITER = 64


def require_symmetric(m, tol: float = 1e-9, what: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("%s must be square, got shape %s" % (what, m.shape))
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > tol * scale:
        raise PreconditionViolated("%s is not symmetric" % what)
    return 0.5 * (m + m.T)


def solve_dlyap(a, c) -> np.ndarray:
    """Solve a' Q a - Q + c = 0 for symmetric Q.

    The solution exists and is unique iff the spectral radius of a is
    below one; otherwise Unstable is raised.  Row-major vectorization
    turns the equation into (a' kron a' - I) vec(Q) = -vec(c).
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("state matrix must be square, got %s" % (a.shape,))
    c = require_symmetric(c, what="constant term")
    if c.shape != a.shape:
        raise DimensionMismatch(
            "constant term shape %s != state matrix shape %s" % (c.shape, a.shape)
        )
    if not np.isfinite(a).all():
        raise Unstable("state matrix has non-finite entries")
    radius = float(np.max(np.abs(np.linalg.eigvals(a)), initial=0.0))
    if radius >= 1.0:
        raise Unstable("spectral radius %.6g >= 1" % radius)
    n = a.shape[0]
    q = np.linalg.solve(np.kron(a.T, a.T) - np.eye(n * n), -c.ravel()).reshape(n, n)
    return 0.5 * (q + q.T)


def sym_eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    return np.linalg.eigvalsh(require_symmetric(m))


def bisect_threshold(predicate, tol: float = BISECT_TOL) -> float:
    """Smallest theta in [0, 1] with predicate(theta) true, to within tol.

    The predicate must be monotone (false below the threshold, true
    above).  predicate(1) false raises Infeasible; predicate(0) true
    returns 0.
    """
    if not 0.0 < tol < 1.0:
        raise ValueOutOfRange("tolerance %g outside (0, 1)" % tol)
    if not predicate(1.0):
        raise Infeasible("predicate false at theta = 1")
    if predicate(0.0):
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if predicate(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _dot(u, v) -> float:
    """u . v summed in index order, so the same on every BLAS kernel."""
    s = 0.0
    for a, b in zip(u, v):
        s += a * b
    return s


def chol_semidefinite(m, tol: float = 1e-10) -> np.ndarray:
    """Lower Cholesky factor of a PSD matrix, zero rows where rank drops.

    Standard algorithm with the pivot clamped at zero; a diagonal entry
    below -tol*scale means the matrix is not PSD.  Its dot products are
    index-order sums, so the factor does not depend on the BLAS kernel.
    """
    m = require_symmetric(m, what="covariance")
    n = m.shape[0]
    scale = max(1.0, float(np.max(np.abs(m))))
    l = np.zeros_like(m)
    for j in range(n):
        d = m[j, j] - _dot(l[j, :j], l[j, :j])
        if d < -tol * scale:
            raise PreconditionViolated(
                "covariance not positive semidefinite (pivot %.3e)" % d
            )
        if d <= tol * scale:
            continue  # rank-deficient direction: leave the row zero
        l[j, j] = np.sqrt(d)
        for i in range(j + 1, n):
            l[i, j] = (m[i, j] - _dot(l[i, :j], l[j, :j])) / l[j, j]
    return l
