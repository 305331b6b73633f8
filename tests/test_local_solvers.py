"""Tests for the local subdomain solvers."""

import numpy as np
import pytest

from repro.core.local_solvers import (
    DirectLocal,
    GaussSeidelLocal,
    make_local_solver,
)
from repro.core.blockdata import build_block_system
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.sparsela import CSRMatrix

from tests import oracles


def test_gs_local_matches_reference(poisson_100, rng):
    solver = GaussSeidelLocal(poisson_100)
    r = rng.standard_normal(100)
    dx = solver.apply(r)
    # one GS sweep from x=0 on A x = r gives x == dx
    expected = oracles.gauss_seidel_sweep(poisson_100, np.zeros(100), r)
    assert np.allclose(dx, expected, atol=1e-12)


def test_gs_local_two_sweeps(poisson_100, rng):
    solver = GaussSeidelLocal(poisson_100, n_sweeps=2)
    r = rng.standard_normal(100)
    dx = solver.apply(r)
    x = oracles.gauss_seidel_sweep(poisson_100, np.zeros(100), r)
    x = oracles.gauss_seidel_sweep(poisson_100, x, r)
    assert np.allclose(dx, x, atol=1e-12)


def test_direct_local_solves_exactly(poisson_100, rng):
    solver = DirectLocal(poisson_100)
    r = rng.standard_normal(100)
    dx = solver.apply(r)
    assert np.allclose(poisson_100.matvec(dx), r, atol=1e-10)


def test_flops_estimates_positive(poisson_100):
    assert GaussSeidelLocal(poisson_100).flops > 0
    assert DirectLocal(poisson_100).flops > 0
    assert (GaussSeidelLocal(poisson_100, n_sweeps=3).flops
            == 3 * GaussSeidelLocal(poisson_100).flops)


def test_factory(poisson_100):
    assert isinstance(make_local_solver("gs", poisson_100),
                      GaussSeidelLocal)
    assert isinstance(make_local_solver("direct", poisson_100),
                      DirectLocal)
    with pytest.raises(ValueError):
        make_local_solver("pardiso", poisson_100)


def test_gs_local_validates():
    bad = CSRMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        GaussSeidelLocal(bad)
    rect = CSRMatrix.from_dense(np.ones((2, 3)))
    with pytest.raises(ValueError):
        GaussSeidelLocal(rect)
    with pytest.raises(ValueError):
        GaussSeidelLocal(CSRMatrix.identity(2), n_sweeps=0)
    # a sweep count is an integer: no float, string or bool
    for bad_sweeps in (2.5, 2.0, "2", True):
        with pytest.raises(ValueError, match="n_sweeps"):
            GaussSeidelLocal(CSRMatrix.identity(2), n_sweeps=bad_sweeps)
    solver = GaussSeidelLocal(CSRMatrix.identity(2), n_sweeps=np.int64(2))
    assert type(solver.n_sweeps) is int and solver.n_sweeps == 2


@pytest.mark.parametrize("bad_sweeps", [2.5, "2", True])
def test_block_build_rejects_non_integer_sweeps(bad_sweeps):
    """Raised at build, not at the first relax (2.5 used to build with
    ``flops`` scaled by 2.5; ``True`` ran one sweep)."""
    A = poisson_2d(8)
    with pytest.raises(ValueError, match="n_sweeps"):
        build_block_system(A, partition(A, 4), n_sweeps=bad_sweeps)


def test_single_row_block():
    """1x1 blocks (scalar partitions) must solve exactly."""
    A = CSRMatrix.from_dense(np.array([[2.0]]))
    assert np.isclose(GaussSeidelLocal(A).apply(np.array([3.0]))[0], 1.5)
    assert np.isclose(DirectLocal(A).apply(np.array([3.0]))[0], 1.5)
