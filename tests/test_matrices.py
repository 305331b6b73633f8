"""Tests for the problem generators (poisson, fem, elasticity, random, suite)."""

import numpy as np
import pytest

from repro.matrices import (
    Problem,
    SUITE_NAMES,
    elasticity_fem_2d,
    fem_poisson_2d,
    load_problem,
    load_suite,
    poisson_1d,
    poisson_2d,
    poisson_2d_jump,
    random_sparse_spd,
    random_spd,
    suite_table,
    triangular_mesh,
)
from repro.matrices.fem import (
    assemble_p1_stiffness,
    fem_rotated_anisotropic,
    rotation_tensor,
)


def _assert_spd(A, tol=1e-10):
    d = A.to_dense()
    assert np.allclose(d, d.T, atol=1e-10), "not symmetric"
    assert np.linalg.eigvalsh(0.5 * (d + d.T)).min() > tol, "not PD"


# ---------------------------------------------------------------- poisson
def test_poisson_1d_structure():
    A = poisson_1d(5).to_dense()
    assert np.allclose(np.diag(A), 2.0)
    assert np.allclose(np.diag(A, 1), -1.0)


def test_poisson_2d_is_spd_with_known_diag():
    A = poisson_2d(7)
    assert np.allclose(A.diagonal(), 4.0)
    _assert_spd(A)


def test_poisson_2d_rectangular():
    A = poisson_2d(4, 6)
    assert A.shape == (24, 24)
    _assert_spd(A)


def test_poisson_2d_matches_kron_formula():
    n = 5
    T = poisson_1d(n).to_dense()
    expected = np.kron(np.eye(n), T) + np.kron(T, np.eye(n))
    assert np.allclose(poisson_2d(n).to_dense(), expected)


def test_poisson_jump_spd_and_contrast():
    A = poisson_2d_jump(8, contrast=1e3, seed=1)
    _assert_spd(A)
    diag = A.diagonal()
    assert diag.max() / diag.min() > 50.0   # the contrast shows up


# -------------------------------------------------------------------- fem
def test_triangular_mesh_covers_square():
    mesh = triangular_mesh(8, seed=0)
    assert mesh.points.shape == (64, 2)
    assert mesh.boundary.sum() == 4 * 8 - 4
    assert mesh.triangles.min() >= 0


def test_mesh_drop_interior():
    mesh = triangular_mesh(8, seed=0, drop_interior=5)
    assert mesh.n_interior == 36 - 5


def test_mesh_rejects_overdrop():
    with pytest.raises(ValueError):
        triangular_mesh(4, drop_interior=100)


def test_fem_poisson_exact_row_count_and_spd():
    prob = fem_poisson_2d(target_rows=200, seed=2)
    assert prob.n == 200
    _assert_spd(prob.matrix)
    assert np.allclose(prob.matrix.diagonal(), 1.0)


def test_fem_poisson_default_is_paper_size():
    prob = fem_poisson_2d(seed=0)
    assert prob.n == 3081


def test_p1_stiffness_constant_nullspace_before_bc():
    """Row sums of the unconstrained stiffness are zero (constants in the
    kernel) — checked via a mesh with no boundary elimination."""
    mesh = triangular_mesh(6, seed=1)
    # assemble without elimination by marking nothing as boundary
    from repro.matrices.fem import TriangularMesh

    free = TriangularMesh(points=mesh.points, triangles=mesh.triangles,
                          boundary=np.zeros(mesh.points.shape[0], bool))
    K = assemble_p1_stiffness(free)
    assert np.allclose(K.matvec(np.ones(K.n_rows)), 0.0, atol=1e-10)


def test_rotated_anisotropic_spd_and_non_m_matrix():
    prob = fem_rotated_anisotropic(300, epsilon=1e-3, seed=1)
    _assert_spd(prob.matrix, tol=1e-12)
    # full tensor ⇒ positive off-diagonal entries exist (non-M-matrix)
    d = prob.matrix.to_dense()
    off = d - np.diag(np.diag(d))
    assert off.max() > 0.0


def test_rotation_tensor_spd():
    K = rotation_tensor(1e-2, 0.7)
    assert np.allclose(K, K.T)
    assert np.all(np.linalg.eigvalsh(K) > 0)


# ------------------------------------------------------------- elasticity
def test_elasticity_spd_and_unit_diag():
    prob = elasticity_fem_2d(target_rows=300, nu=0.4, seed=3)
    _assert_spd(prob.matrix, tol=1e-12)
    assert np.allclose(prob.matrix.diagonal(), 1.0)


def test_elasticity_not_diagonally_dominant():
    """The hard-problem property: off-diagonal mass exceeds the diagonal."""
    prob = elasticity_fem_2d(target_rows=400, nu=0.45, seed=2)
    d = prob.matrix.to_dense()
    off_sums = np.abs(d).sum(axis=1) - np.abs(np.diag(d))
    assert np.median(off_sums) > 1.2


def test_elasticity_rejects_bad_nu():
    with pytest.raises(ValueError):
        elasticity_fem_2d(target_rows=100, nu=0.5)


# ----------------------------------------------------------------- random
def test_random_spd_is_spd_with_condition():
    A = random_spd(20, seed=1, condition=50.0)
    d = A.to_dense()
    ev = np.linalg.eigvalsh(d)
    assert ev.min() > 0
    assert np.isclose(ev.max() / ev.min(), 50.0, rtol=0.05)


def test_random_sparse_spd():
    A = random_sparse_spd(50, density=0.05, seed=2)
    _assert_spd(A, tol=1e-12)


# ------------------------------------------------------------------ suite
def test_suite_has_fourteen_members():
    assert len(SUITE_NAMES) == 14


def test_suite_member_loads_and_is_spd():
    prob = load_problem("msdoor", size_scale=0.05)
    assert isinstance(prob, Problem)
    assert prob.meta["analog_of"] == "msdoor"
    assert prob.meta["paper_n"] == 404_785
    _assert_spd(prob.matrix, tol=1e-12)


def test_suite_unknown_name():
    with pytest.raises(KeyError):
        load_problem("not_a_matrix")


def test_suite_table_rows():
    rows = suite_table(size_scale=0.05)
    assert len(rows) == 14
    assert {"matrix", "paper_nonzeros", "paper_equations",
            "analog_nonzeros", "analog_equations"} <= set(rows[0])


def test_load_suite_subset():
    probs = load_suite(size_scale=0.05, names=("af_5_k101", "msdoor"))
    assert [p.name for p in probs] == ["af_5_k101", "msdoor"]


def test_problem_initial_state_conventions(poisson_100):
    prob = Problem(name="t", matrix=poisson_100)
    x0, b = prob.initial_state(seed=1)
    assert np.allclose(b, 0.0)
    assert np.isclose(np.linalg.norm(b - poisson_100.matvec(x0)), 1.0)
    x0z, bz = prob.initial_state(seed=1, x_zeros=True)
    assert np.allclose(x0z, 0.0)
    assert np.isclose(np.linalg.norm(bz), 1.0)
