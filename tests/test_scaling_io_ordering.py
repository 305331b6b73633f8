"""Tests for symmetric scaling, file IO and graph orderings."""

import numpy as np
import pytest

from repro.matrices.poisson import poisson_2d
from repro.sparsela import (
    CSRMatrix,
    bfs_order,
    read_binary,
    read_matrix_market,
    symmetric_unit_diagonal_scale,
    write_binary,
    write_matrix_market,
)


# ---------------------------------------------------------------- scaling
def test_scaling_gives_unit_diagonal():
    A = poisson_2d(6)
    scaled = symmetric_unit_diagonal_scale(A)
    assert np.allclose(scaled.matrix.diagonal(), 1.0)


def test_scaling_is_congruence():
    A = poisson_2d(5)
    scaled = symmetric_unit_diagonal_scale(A)
    d = scaled.scale
    rebuilt = scaled.matrix.to_dense() * np.outer(d, d)
    assert np.allclose(rebuilt, A.to_dense())


def test_scaling_preserves_spd():
    A = poisson_2d(5)
    s = symmetric_unit_diagonal_scale(A).matrix.to_dense()
    assert np.all(np.linalg.eigvalsh(s) > 0)


def test_scaled_solution_roundtrip():
    A = poisson_2d(5)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(25)
    scaled = symmetric_unit_diagonal_scale(A)
    bs = scaled.scale_rhs(b)
    xs = np.linalg.solve(scaled.matrix.to_dense(), bs)
    x = scaled.unscale_solution(xs)
    assert np.allclose(A.to_dense() @ x, b)


def test_scaling_rejects_nonpositive_diagonal():
    A = CSRMatrix.from_dense(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(ValueError):
        symmetric_unit_diagonal_scale(A)
    with pytest.raises(ValueError):
        symmetric_unit_diagonal_scale(
            CSRMatrix.from_dense(np.ones((2, 3))))


# --------------------------------------------------------------------- io
def test_matrix_market_roundtrip_general(tmp_path, rng):
    d = rng.standard_normal((7, 9))
    d[rng.random((7, 9)) > 0.4] = 0.0
    A = CSRMatrix.from_dense(d)
    path = tmp_path / "mat.mtx"
    write_matrix_market(path, A)
    B = read_matrix_market(path)
    assert np.allclose(B.to_dense(), d)


def test_matrix_market_roundtrip_symmetric(tmp_path):
    A = poisson_2d(4)
    path = tmp_path / "sym.mtx"
    write_matrix_market(path, A)
    # symmetric matrices are stored lower-triangle-only
    text = path.read_text()
    assert "symmetric" in text.splitlines()[0]
    B = read_matrix_market(path)
    assert B == A


def test_matrix_market_comment_header(tmp_path):
    A = poisson_2d(3)
    path = tmp_path / "c.mtx"
    write_matrix_market(path, A, comment="generated by tests\nline two")
    assert read_matrix_market(path) == A


def test_matrix_market_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%NotMatrixMarket foo\n1 1 0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_binary_roundtrip(tmp_path):
    A = poisson_2d(5)
    path = tmp_path / "mat.bin"
    write_binary(path, A)
    assert read_binary(path) == A


def test_binary_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(ValueError):
        read_binary(path)


# --------------------------------------------------------------- ordering
def test_bfs_levels_on_path_graph():
    # 1D Poisson = path graph: level k holds only row k, so the BFS
    # order from the end is the row order
    from repro.matrices.poisson import poisson_1d

    A = poisson_1d(6)
    assert np.array_equal(bfs_order(A, start=0), np.arange(6))


def test_bfs_order_is_permutation(poisson_100):
    order = bfs_order(poisson_100)
    assert np.array_equal(np.sort(order), np.arange(100))


def test_bfs_order_handles_disconnected():
    d = np.zeros((4, 4))
    d[0, 1] = d[1, 0] = 1.0
    d[2, 3] = d[3, 2] = 1.0
    np.fill_diagonal(d, 1.0)
    order = bfs_order(CSRMatrix.from_dense(d))
    assert np.array_equal(np.sort(order), np.arange(4))

