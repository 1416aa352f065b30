"""Dense linear algebra inside `fadectrl.wcs`.

Proves:
 Group 1 - the Lyapunov weight A_c' Q A_c - Q + I = 0: worked 2x2 value,
           Kronecker-vectorization oracle, slow-but-stable dynamics,
           Unstable exactly for spectral radius >= 1
 Group 2 - the `require_symmetric` contract
 Group 3 - the closed-form threshold's boundary semantics: 0.0 when the
           open loop already meets the rate, Infeasible when sure delivery
           does not, and a known threshold found to within the 2**-30 grid
 Group 4 - semidefinite Cholesky, including rank-deficient input, equal
           bit for bit to an index-order pure-Python factorization
"""

import math

import numpy as np
import pytest

from fadectrl.errors import (
    DimensionMismatch,
    Infeasible,
    PreconditionViolated,
    Unstable,
)
from fadectrl.wcs import (
    Plant,
    chol_semidefinite,
    decay_threshold,
    default_lyapunov_weight,
    require_symmetric,
)

A_C1 = np.array([[-0.1, -0.1], [0.1, 0.2]])


# ── Group 1: discrete Lyapunov equation ──────────────────────────────────────

def _dlyap_kron_oracle(a):
    # a' q a - q + I = 0 vectorized row-major: (a' kron a') vec(q) - vec(q) = -vec(I)
    n = a.shape[0]
    lhs = np.kron(a.T, a.T) - np.eye(n * n)
    return np.linalg.solve(lhs, -np.eye(n).ravel()).reshape(n, n)


def test_dlyap_worked_value():
    q = default_lyapunov_weight(A_C1)
    expect = np.array([[1.02010510, 0.03031228], [0.03031228, 1.05102975]])
    assert np.max(np.abs(q - expect)) < 1e-7


def test_dlyap_matches_kronecker_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        a = rng.normal(size=(n, n))
        a *= 0.8 / max(np.abs(np.linalg.eigvals(a)))
        q = default_lyapunov_weight(a)
        assert np.max(np.abs(q - _dlyap_kron_oracle(a))) < 1e-8
        # the solution of a'qa - q + I = 0 for a stable a is positive definite
        assert np.max(np.abs(a.T @ q @ a - q + np.eye(n))) <= 1e-9
        assert np.array_equal(q, q.T)
        assert min(np.linalg.eigvalsh(q)) > 0


def test_dlyap_slow_stable_scalar():
    # a fixed-point iteration needs ~10^4 sweeps here; the direct solve
    # returns the exact value 1 / (1 - 0.999^2)
    q = default_lyapunov_weight(np.array([[0.999]]))
    assert abs(q[0, 0] - 1.0 / (1.0 - 0.999 ** 2)) < 1e-9
    assert abs(q[0, 0] - 500.2501250625) < 1e-6


def test_dlyap_unstable_raises():
    with pytest.raises(Unstable, match="spectral radius 1.1 >= 1"):
        default_lyapunov_weight(np.array([[1.1, 0.0], [0.0, 0.5]]))
    with pytest.raises(Unstable):
        default_lyapunov_weight(np.eye(2))  # spectral radius exactly 1
    with pytest.raises(Unstable, match="non-finite entries"):
        default_lyapunov_weight(np.array([[np.nan]]))


def test_dlyap_shape_errors():
    with pytest.raises(DimensionMismatch):
        default_lyapunov_weight(np.ones((2, 3)))


# ── Group 2: symmetric input ─────────────────────────────────────────────────

def test_require_symmetric_contract():
    with pytest.raises(PreconditionViolated):
        require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        require_symmetric(np.ones((2, 3)))
    out = require_symmetric(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.array_equal(out, out.T)
    # within the tolerance the matrix is averaged with its transpose
    near = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    assert np.array_equal(require_symmetric(near), 0.5 * (near + near.T))


# ── Group 3: the closed-form threshold ───────────────────────────────────────

def _scalar_plant(target: float) -> Plant:
    """A scalar loop with threshold `target`: with a_c = 0, a_o = 1 and
    q = 1, theta (0 - 1) + 1 - rho <= 0 at theta >= 1 - rho."""
    return Plant([[0.0]], [[1.0]], [[1.0]], 1.0 - target, [[1.0]], 1.0)


def test_bisect_finds_known_threshold():
    for target in (0.3737, 0.5, 1e-4, 0.9999):
        got = decay_threshold(_scalar_plant(target))
        # rounded up to the 2**-30 grid; the eigenvalue itself rounds
        assert target - 1e-12 <= got <= target + 2 ** -30 + 1e-12


def test_bisect_boundary_semantics():
    # the open loop alone meets the rate: a_o^2 = 0.81 <= rho = 0.9
    assert decay_threshold(Plant([[0.2]], [[0.9]], [[1.0]], 0.9, [[1.0]], 1.0)) == 0.0
    # even sure delivery leaves a_c^2 = 0.25 above rho = 0.2
    with pytest.raises(Infeasible, match="predicate false at theta = 1"):
        decay_threshold(Plant([[0.5]], [[1.5]], [[1.0]], 0.2, [[1.0]], 1.0))


# ── Group 4: semidefinite Cholesky ───────────────────────────────────────────

def test_chol_reconstructs_definite_matrix():
    rng = np.random.default_rng(23)
    for n in (1, 3, 5):
        b = rng.normal(size=(n, n))
        m = b @ b.T + 0.1 * np.eye(n)
        l = chol_semidefinite(m)
        assert np.max(np.abs(l @ l.T - m)) < 1e-9
        assert np.allclose(l, np.tril(l))


def test_chol_rank_deficient_keeps_zero_rows():
    m = np.ones((2, 2))
    l = chol_semidefinite(m)
    assert np.max(np.abs(l @ l.T - m)) < 1e-12
    assert l[1, 1] == 0.0
    # the all-zero covariance factorizes to the zero matrix
    assert np.array_equal(chol_semidefinite(np.zeros((3, 3))), np.zeros((3, 3)))


def test_chol_rejects_indefinite():
    with pytest.raises(PreconditionViolated):
        chol_semidefinite(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _chol_index_order(m, tol=1e-10):
    """Cholesky of a PSD list-of-lists in Python floats, each dot product
    summed in index order: the reference for every BLAS kernel."""
    n = len(m)
    scale = max(1.0, max(abs(v) for row in m for v in row))
    l = [[0.0] * n for _ in range(n)]
    for j in range(n):
        s = 0.0
        for k in range(j):
            s += l[j][k] * l[j][k]
        d = m[j][j] - s
        if d <= tol * scale:
            continue
        l[j][j] = math.sqrt(d)
        for i in range(j + 1, n):
            s = 0.0
            for k in range(j):
                s += l[i][k] * l[j][k]
            l[i][j] = (m[i][j] - s) / l[j][j]
    return l


def test_chol_matches_index_order_reference_bit_for_bit():
    # a BLAS dot product may round differently from kernel to kernel; the
    # factor must not
    rng = np.random.default_rng(31)
    for _ in range(800):
        n = int(rng.integers(2, 7))
        g = rng.normal(size=(n, int(rng.integers(1, n + 1))))
        m = g @ g.T
        m = 0.5 * (m + m.T)  # exactly symmetric, so validation keeps it as is
        want = np.array(_chol_index_order(m.tolist()))
        assert chol_semidefinite(m).tobytes() == want.tobytes()
