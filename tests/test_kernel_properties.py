"""Property-based tests for the relaxation kernels on random SPD systems."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matrices.random_spd import random_sparse_spd
from repro.sparsela import (
    CSRMatrix,
    gauss_seidel_sweep,
    jacobi_sweep,
    symmetric_unit_diagonal_scale,
)
from repro.sparsela import primitives
from repro.sparsela.kernels import residual

from tests import oracles


def _system(n, seed):
    A = random_sparse_spd(n, density=0.1, seed=seed, shift=0.5)
    A = symmetric_unit_diagonal_scale(A).matrix
    rng = np.random.default_rng(seed + 7)
    return A, rng.standard_normal(n), rng.standard_normal(n)


@given(st.integers(5, 40), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_gs_fast_path_equals_reference(n, seed):
    A, x, b = _system(n, seed)
    assert np.allclose(gauss_seidel_sweep(A, x, b),
                       oracles.gauss_seidel_sweep(A, x, b), atol=1e-10)


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_gs_energy_descent_random_spd(n, seed):
    A, x, b = _system(n, seed)
    dense = A.to_dense()
    x_star = np.linalg.solve(dense, b)

    def energy(v):
        e = v - x_star
        return float(e @ dense @ e)

    x1 = gauss_seidel_sweep(A, x, b)
    assert energy(x1) <= energy(x) + 1e-12


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fixed_point_is_invariant(n, seed):
    A, _, b = _system(n, seed)
    x_star = np.linalg.solve(A.to_dense(), b)
    for sweep in (gauss_seidel_sweep, jacobi_sweep):
        out = sweep(A, x_star, b)
        assert np.allclose(out, x_star, atol=1e-8)


@given(st.integers(5, 30), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_residual_definition(n, seed):
    A, x, b = _system(n, seed)
    assert np.allclose(residual(A, x, b), b - A.to_dense() @ x, atol=1e-10)


@given(st.integers(4, 25), st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_unit_scaling_congruence(n, seed):
    A = random_sparse_spd(n, density=0.15, seed=seed, shift=0.5)
    scaled = symmetric_unit_diagonal_scale(A)
    assert np.allclose(scaled.matrix.diagonal(), 1.0)
    d = scaled.scale
    assert np.allclose(scaled.matrix.to_dense() * np.outer(d, d),
                       A.to_dense(), atol=1e-10)


#: segment lengths past 300, so OpenBLAS's unrolled blocks and its
#: scalar tails both run; every shape the length grouping special-cases
_SEGMENT_LENGTHS = st.one_of(
    st.lists(st.integers(1, 320), max_size=40),
    st.integers(1, 320).map(lambda n: [n]),
    st.just([]),
    st.tuples(st.integers(1, 320), st.integers(2, 40)).map(
        lambda t: [t[0]] * t[1]),
    st.lists(st.integers(1, 320), min_size=2, max_size=40, unique=True),
)


@given(_SEGMENT_LENGTHS, st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_segment_sq_is_ndarray_dot_bit_for_bit(lens, seed):
    """The length-batched squared norms are each segment's own ``ddot``:
    equal bytes, not merely close, batched or looped."""
    rng = np.random.default_rng(seed)
    store = (rng.standard_normal(4000)
             * 10.0 ** rng.uniform(-6.0, 4.0, 4000))
    ln = np.array(lens, dtype=np.int64)
    lo = rng.integers(0, store.size - ln + 1) if ln.size else ln
    want = np.array([store[a:a + n].dot(store[a:a + n])
                     for a, n in zip(lo.tolist(), lens)], dtype=np.float64)
    ids = np.arange(ln.size)
    sub = rng.permutation(ln.size)[:rng.integers(0, ln.size + 1)]
    segs = primitives.Segments(store, lo, ln)
    assert segs.sq(ids).tobytes() == want.tobytes()
    with mock.patch.object(primitives, "_SEGMENT_BATCH", 1), \
            mock.patch.object(primitives, "_SEGMENTS_PER_LENGTH", 1):
        segs = primitives.Segments(store, lo, ln)   # every subset batches
        got = segs.sq(ids)
        part = segs.sq(sub)                 # any subset, in any order
    assert got.tobytes() == want.tobytes()
    assert part.tobytes() == want[sub].tobytes()
