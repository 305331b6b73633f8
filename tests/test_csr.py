"""Unit tests for the CSR matrix container."""

import numpy as np
import pytest

from repro.sparsela import CSRMatrix


def test_roundtrip_dense(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    assert np.allclose(A.to_dense(), small_dense)


def test_matvec_matches_dense(small_dense, rng):
    A = CSRMatrix.from_dense(small_dense)
    x = rng.standard_normal(25)
    assert np.allclose(A.matvec(x), small_dense @ x)


def test_matvec_out_parameter(small_dense, rng):
    A = CSRMatrix.from_dense(small_dense)
    x = rng.standard_normal(25)
    out = np.empty(25)
    y = A.matvec(x, out=out)
    assert y is out
    assert np.allclose(out, small_dense @ x)


def test_matvec_shape_check(small_csr):
    with pytest.raises(ValueError):
        small_csr.matvec(np.zeros(7))


def test_transpose(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    assert np.allclose(A.transpose().to_dense(), small_dense.T)


def test_transpose_involution(small_csr):
    assert small_csr.transpose().transpose() == small_csr


def test_diagonal(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    assert np.allclose(A.diagonal(), np.diag(small_dense))


def test_identity():
    eye = CSRMatrix.identity(4, scale=2.5)
    assert np.allclose(eye.to_dense(), 2.5 * np.eye(4))


def test_extract_rows(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    rows = [7, 2, 2, 19]
    sub = A.extract_rows(rows)
    assert np.allclose(sub.to_dense(), small_dense[rows])


def test_extract_rows_empty_rows():
    d = np.zeros((4, 4))
    d[1, 2] = 3.0
    A = CSRMatrix.from_dense(d)
    sub = A.extract_rows([0, 1, 3])
    assert np.allclose(sub.to_dense(), d[[0, 1, 3]])


def test_extract_block(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    rows = [3, 1, 10]
    cols = [0, 5, 6, 20]
    blk = A.extract_block(rows, cols)
    assert np.allclose(blk.to_dense(), small_dense[np.ix_(rows, cols)])


def test_permute(small_dense, rng):
    n = small_dense.shape[0]
    A = CSRMatrix.from_dense(small_dense)
    perm = rng.permutation(n)
    assert np.allclose(A.permute(perm).to_dense(),
                       small_dense[np.ix_(perm, perm)])


def test_permute_rejects_non_permutation(small_csr):
    with pytest.raises(ValueError):
        small_csr.permute(np.zeros(25, dtype=int))


def test_triangles(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    assert np.allclose(A.lower_triangle(True).to_dense(),
                       np.tril(small_dense))
    assert np.allclose(A.lower_triangle(False).to_dense(),
                       np.tril(small_dense, -1))


def test_prune():
    d = np.array([[1.0, 1e-12], [0.5, 0.0]])
    A = CSRMatrix.from_dense(d)
    pruned = A.prune(1e-10)
    assert pruned.nnz == 2
    assert np.allclose(pruned.to_dense(), [[1.0, 0.0], [0.5, 0.0]])


def test_is_symmetric(poisson_100, small_csr):
    assert poisson_100.is_symmetric()
    assert not small_csr.is_symmetric()


def test_from_scipy_roundtrip(small_dense):
    import scipy.sparse as sp

    A = CSRMatrix.from_scipy(sp.csr_matrix(small_dense))
    assert np.allclose(A.to_dense(), small_dense)
    back = A.to_scipy()
    assert np.allclose(back.toarray(), small_dense)


def test_validation_rejects_inconsistent_indptr():
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 1))
    with pytest.raises(ValueError):
        CSRMatrix(np.array([0, 1]), np.array([5]), np.array([1.0]), (1, 2))


def test_unhashable(small_csr):
    with pytest.raises(TypeError):
        hash(small_csr)


def test_row_view(small_dense):
    A = CSRMatrix.from_dense(small_dense)
    cols, vals = A.row(3)
    dense_row = small_dense[3]
    assert np.allclose(vals, dense_row[dense_row != 0.0])


def test_empty_matrix():
    A = CSRMatrix(np.zeros(4, dtype=int), np.zeros(0, dtype=int),
                  np.zeros(0), (3, 3))
    assert A.nnz == 0
    assert np.allclose(A.matvec(np.ones(3)), 0.0)
