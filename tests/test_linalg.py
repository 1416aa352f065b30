"""Dense numeric kernel.

Proves:
 Group 1 - solve_dlyap: worked 2x2 value, Kronecker-vectorization oracle,
           slow-but-stable dynamics, Unstable exactly for spectral
           radius >= 1
 Group 2 - symmetric eigenvalues vs numpy oracle and invariants
 Group 3 - bisect_threshold boundary semantics
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
    ValueOutOfRange,
)
from fadectrl.linalg import (
    bisect_threshold,
    chol_semidefinite,
    require_symmetric,
    solve_dlyap,
    sym_eigenvalues,
)

A_C1 = np.array([[-0.1, -0.1], [0.1, 0.2]])


# ── Group 1: discrete Lyapunov equation ──────────────────────────────────────

def _dlyap_kron_oracle(a, c):
    # a' q a - q + c = 0 vectorized row-major: (a' kron a') vec(q) - vec(q) = -vec(c)
    n = a.shape[0]
    lhs = np.kron(a.T, a.T) - np.eye(n * n)
    return np.linalg.solve(lhs, -c.ravel()).reshape(n, n)


def test_dlyap_worked_value():
    q = solve_dlyap(A_C1, np.eye(2))
    expect = np.array([[1.02010510, 0.03031228], [0.03031228, 1.05102975]])
    assert np.max(np.abs(q - expect)) < 1e-7


def test_dlyap_matches_kronecker_oracle():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 4):
        a = rng.normal(size=(n, n))
        a *= 0.8 / max(np.abs(np.linalg.eigvals(a)))
        c = rng.normal(size=(n, n))
        c = c @ c.T + np.eye(n)
        q = solve_dlyap(a, c)
        assert np.max(np.abs(q - _dlyap_kron_oracle(a, c))) < 1e-8
        # the solution of a'qa - q + I = 0 for a stable a is positive definite
        assert np.max(np.abs(a.T @ q @ a - q + c)) <= 1e-9
        assert min(np.linalg.eigvalsh(0.5 * (q + q.T))) > 0


def test_dlyap_slow_stable_scalar():
    # a fixed-point iteration needs ~10^4 sweeps here; the direct solve
    # returns the exact value 1 / (1 - 0.999^2)
    q = solve_dlyap(np.array([[0.999]]), np.eye(1))
    assert abs(q[0, 0] - 1.0 / (1.0 - 0.999 ** 2)) < 1e-9
    assert abs(q[0, 0] - 500.2501250625) < 1e-6


def test_dlyap_unstable_raises():
    with pytest.raises(Unstable):
        solve_dlyap(np.array([[1.1, 0.0], [0.0, 0.5]]), np.eye(2))
    with pytest.raises(Unstable):
        solve_dlyap(np.eye(2), np.eye(2))  # spectral radius exactly 1
    with pytest.raises(Unstable):
        solve_dlyap(np.array([[np.nan]]), np.eye(1))


def test_dlyap_shape_errors():
    with pytest.raises(DimensionMismatch):
        solve_dlyap(np.ones((2, 3)), np.eye(2))
    with pytest.raises(DimensionMismatch):
        solve_dlyap(np.eye(2), np.eye(3))


# ── Group 2: symmetric eigenvalues ────────────────────────────────────────────

def test_eigenvalues_analytic_2x2():
    vals = sym_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(vals, [1.0, 3.0], atol=1e-12)


def test_eigenvalues_match_numpy_oracle():
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5, 8):
        m = rng.normal(size=(n, n))
        m = 0.5 * (m + m.T)
        vals = sym_eigenvalues(m)
        assert np.all(np.diff(vals) >= -1e-12)  # ascending
        assert np.allclose(vals, np.linalg.eigvalsh(m), atol=1e-9)
        # trace and determinant are preserved by the spectrum
        assert abs(vals.sum() - np.trace(m)) < 1e-9
        assert abs(np.prod(vals) - np.linalg.det(m)) < 1e-8 * max(
            1.0, abs(np.linalg.det(m))
        )


def test_require_symmetric_contract():
    with pytest.raises(PreconditionViolated):
        require_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        require_symmetric(np.ones((2, 3)))
    out = require_symmetric(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert np.array_equal(out, out.T)


# ── Group 3: bisection ───────────────────────────────────────────────────────

def test_bisect_finds_known_threshold():
    for target in (0.3737, 0.5, 1e-4, 0.9999):
        got = bisect_threshold(lambda t, s=target: t >= s)
        assert target <= got <= target + 2e-9


def test_bisect_boundary_semantics():
    assert bisect_threshold(lambda t: True) == 0.0
    with pytest.raises(Infeasible):
        bisect_threshold(lambda t: False)
    with pytest.raises(ValueOutOfRange):
        bisect_threshold(lambda t: t >= 0.5, tol=2.0)


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
