"""Property-based tests (hypothesis) for the sparse containers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.sparsela import COOMatrix, CSRMatrix


def sparse_dense(max_dim: int = 12):
    """Strategy: a random small dense matrix with many zeros."""
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda mn: hnp.arrays(
        np.float64, mn,
        elements=st.one_of(st.just(0.0),
                           st.floats(-10, 10, allow_nan=False))))


@given(sparse_dense())
@settings(max_examples=60, deadline=None)
def test_dense_roundtrip(dense):
    A = CSRMatrix.from_dense(dense)
    assert np.array_equal(A.to_dense(), dense)


@given(sparse_dense(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_matvec_matches_dense(dense, seed):
    A = CSRMatrix.from_dense(dense)
    x = np.random.default_rng(seed).standard_normal(dense.shape[1])
    assert np.allclose(A.matvec(x), dense @ x, atol=1e-9)


@given(sparse_dense())
@settings(max_examples=60, deadline=None)
def test_transpose_involution_and_dense(dense):
    A = CSRMatrix.from_dense(dense)
    At = A.transpose()
    assert np.array_equal(At.to_dense(), dense.T)
    assert At.transpose() == A


@given(sparse_dense(), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_extract_block_matches_numpy(dense, seed):
    rng = np.random.default_rng(seed)
    m, n = dense.shape
    rows = rng.choice(m, size=rng.integers(1, m + 1), replace=False)
    cols = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    A = CSRMatrix.from_dense(dense)
    blk = A.extract_block(rows, cols)
    assert np.array_equal(blk.to_dense(), dense[np.ix_(rows, cols)])


@given(sparse_dense(max_dim=10), st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_symmetric_permute(dense, seed):
    n = min(dense.shape)
    square = dense[:n, :n]
    A = CSRMatrix.from_dense(square)
    perm = np.random.default_rng(seed).permutation(n)
    assert np.array_equal(A.permute(perm).to_dense(),
                          square[np.ix_(perm, perm)])


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.floats(-5, 5, allow_nan=False)),
                min_size=0, max_size=60))
@settings(max_examples=60, deadline=None)
def test_coo_duplicate_sum_is_dense_sum(triplets):
    rows = np.array([t[0] for t in triplets], dtype=np.int64)
    cols = np.array([t[1] for t in triplets], dtype=np.int64)
    vals = np.array([t[2] for t in triplets])
    m = COOMatrix(rows, cols, vals, (8, 8))
    expected = np.zeros((8, 8))
    for r, c, v in triplets:
        expected[r, c] += v
    assert np.allclose(m.to_csr().to_dense(), expected, atol=1e-12)


@given(sparse_dense())
@settings(max_examples=40, deadline=None)
def test_triangles_partition_the_matrix(dense):
    A = CSRMatrix.from_dense(dense)
    low = A.lower_triangle(include_diagonal=True)
    # the strict upper triangle, as the transpose's strict lower one
    up = A.transpose().lower_triangle(include_diagonal=False).transpose()
    assert np.array_equal(low.to_dense() + up.to_dense(), dense)


@given(sparse_dense(), st.floats(-3, 3, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_scale_linearity(dense, alpha):
    A = CSRMatrix.from_dense(dense)
    assert np.allclose(A.scale(alpha).to_dense(), alpha * dense)
