"""Semi-tensor product kernel of the test oracles (the paper's form).

Proves:
 Group 1 - dense product
   1. matched inner dimensions reduce to the ordinary matrix product
   2. associativity on random dimension chains
 Group 2 - basis-vector arithmetic vs the dense oracle
   3. basis product law, exhaustively for small dimensions
   4. stp_logical agrees with the dense product in both vector shapes
   5. identity matrix acts trivially
   6. the matrix-valued shape raises NonLogicalResult
 Group 3 - tuple embedding
   7. encode/decode roundtrip hits every index exactly once
   8. encode is the left-to-right fold of the basis product
   9. worked value: (1, 0) over a 3-letter alphabet lands on index 4
  10. domain and dimension errors
"""

import itertools
import random

import numpy as np
import pytest

from fadectrl.errors import DimensionMismatch, IndexOutOfRange, ValueOutOfDomain
from oracles import (
    LogicalMatrix,
    LogicalVector,
    NonLogicalResult,
    decode_index,
    encode_tuple,
    stp,
    stp_basis,
    stp_logical,
)


# ── Group 1: dense product ───────────────────────────────────────────────────

def test_matched_dimensions_reduce_to_matmul():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.allclose(stp(a, b), a @ b)


def test_associativity_random_chains():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = rng.integers(1, 5, size=6)
        a = rng.normal(size=(d[0], d[1]))
        b = rng.normal(size=(d[2], d[3]))
        c = rng.normal(size=(d[4], d[5]))
        left = stp(stp(a, b), c)
        right = stp(a, stp(b, c))
        assert left.shape == right.shape
        scale = max(1.0, float(np.max(np.abs(left))))
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


# ── Group 2: basis-vector arithmetic ─────────────────────────────────────────

def test_basis_product_law_exhaustive():
    for m, n in itertools.product(range(1, 5), range(1, 5)):
        for i, j in itertools.product(range(1, m + 1), range(1, n + 1)):
            u = LogicalVector(m, i)
            v = LogicalVector(n, j)
            out = stp_basis(u, v)
            assert out.dim == m * n
            assert out.index == (i - 1) * n + j
            dense = stp(u.to_dense().reshape(-1, 1), v.to_dense())
            assert np.array_equal(dense.ravel(), out.to_dense())


def test_logical_product_matches_dense_oracle():
    rng = random.Random(7)
    for _ in range(200):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        k = rng.randint(1, 4)  # k = 1 is the matched-dimension case
        m = LogicalMatrix(
            rows, cols, tuple(rng.randint(1, rows) for _ in range(cols))
        )
        v = LogicalVector(cols * k, rng.randint(1, cols * k))
        out = stp_logical(m, v)
        dense = stp(m.to_dense(), v.to_dense().reshape(-1, 1))
        assert dense.shape == (out.dim, 1)
        expect = np.zeros(out.dim)
        expect[out.index - 1] = 1.0
        assert np.array_equal(dense.ravel(), expect)


def test_identity_acts_trivially():
    eye = LogicalMatrix.identity(5)
    for i in range(1, 6):
        assert stp_logical(eye, LogicalVector(5, i)) == LogicalVector(5, i)
    # and on a dim-10 vector via the Kronecker block structure
    for i in range(1, 11):
        assert stp_logical(eye, LogicalVector(10, i)) == LogicalVector(10, i)


def test_matrix_valued_shape_raises():
    m = LogicalMatrix(2, 4, (1, 2, 1, 2))
    with pytest.raises(NonLogicalResult):
        stp_logical(m, LogicalVector(2, 1))


def test_incompatible_dimensions_raise():
    m = LogicalMatrix(2, 3, (1, 2, 1))
    with pytest.raises(DimensionMismatch):
        stp_logical(m, LogicalVector(2, 1))


def test_logical_matrix_validation():
    with pytest.raises(IndexOutOfRange):
        LogicalMatrix(2, 2, (1, 3))
    with pytest.raises(DimensionMismatch):
        LogicalMatrix(2, 3, (1, 2))
    with pytest.raises(DimensionMismatch):
        LogicalMatrix(0, 1, (1,))
    with pytest.raises(IndexOutOfRange):
        LogicalMatrix(3, 2, (1, 2)).column(3)


def test_logical_vector_validation():
    with pytest.raises(IndexOutOfRange):
        LogicalVector(4, 5)
    with pytest.raises(IndexOutOfRange):
        LogicalVector(4, 0)
    with pytest.raises(DimensionMismatch):
        LogicalVector(0, 1)


# ── Group 3: tuple embedding ─────────────────────────────────────────────────

def test_encode_decode_roundtrip_exhaustive():
    for n, kappa in ((1, 2), (2, 3), (3, 2), (2, 4)):
        seen = set()
        for values in itertools.product(range(kappa), repeat=n):
            vec = encode_tuple(values, kappa)
            assert vec.dim == kappa ** n
            seen.add(vec.index)
            assert decode_index(vec, n, kappa) == values
        assert seen == set(range(1, kappa ** n + 1))


def test_encode_is_basis_product_fold():
    kappa = 3
    for values in itertools.product(range(kappa), repeat=3):
        vec = None
        for v in values:
            nxt = LogicalVector(kappa, v + 1)
            vec = nxt if vec is None else stp_basis(vec, nxt)
        assert vec == encode_tuple(values, kappa)


def test_worked_embedding():
    assert encode_tuple((1, 0), 3) == LogicalVector(9, 4)
    assert decode_index(LogicalVector(9, 4), 2, 3) == (1, 0)


def test_embedding_domain_errors():
    with pytest.raises(ValueOutOfDomain):
        encode_tuple((3,), 3)
    with pytest.raises(ValueOutOfDomain):
        encode_tuple((-1,), 3)
    with pytest.raises(ValueOutOfDomain):
        encode_tuple((True,), 3)
    with pytest.raises(ValueOutOfDomain):
        encode_tuple((0.5,), 3)
    with pytest.raises(DimensionMismatch):
        encode_tuple((), 3)
    with pytest.raises(ValueOutOfDomain):
        encode_tuple((0,), 1)
    with pytest.raises(DimensionMismatch):
        decode_index(LogicalVector(9, 4), 3, 3)
