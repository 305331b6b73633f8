"""The run-time kernels against their oracles (``tests/oracles.py``).

The package has one kernel path: scipy's compiled CSR primitives
(:mod:`repro.sparsela.primitives`) and the list-based partitioner
kernels (:mod:`repro.partition._kernels`).  Each is checked here against
the seed's loops it replaced:

- matvec, a row-sliced ``csr_matvec``, the triangular solve and
  the Gauss-Seidel sweep agree with the oracles to 1e-12, including
  degenerate shapes (empty rows, empty matrices, single-row systems).
  Tests parametrized over ``IMPLS`` run the same hand-checked cases on
  the oracle (``reference``) and the run-time kernels (``scipy``);
- heavy-edge matching and FM refinement are byte-equal to the seed
  loops on random graphs;
- a Distributed Southwell run reproduces the seed implementation's
  convergence history (sha256 over the norm + relaxation arrays): the
  compiled kernels are a speedup, not a numerical change.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.partition._kernels import fm_refine_fast, hem_match_fast
from repro.partition.graph import Graph, matrix_graph
from repro.sparsela import CSRMatrix, primitives

from tests import oracles

#: the oracles and the run-time kernels, under the names of the suite's
#: parametrized ids; both expose matvec / solve_lower
IMPLS = {"reference": oracles, "scipy": primitives}
RUNTIME = [name for name in IMPLS if name != "reference"]


def sparse_dense(max_dim: int = 12):
    """Strategy: a random small dense matrix with many zeros."""
    dims = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim))
    return dims.flatmap(lambda mn: hnp.arrays(
        np.float64, mn,
        elements=st.one_of(st.just(0.0),
                           st.floats(-10, 10, allow_nan=False))))


def spd_dense(max_dim: int = 10):
    """Strategy: a random small SPD matrix with unit-scale diagonal."""
    def make(base):
        spd = base @ base.T + np.eye(base.shape[0])
        spd[np.abs(spd) < 0.05] = 0.0
        np.fill_diagonal(spd, np.abs(np.diag(base @ base.T)) + 1.0)
        return spd
    dim = st.integers(1, max_dim)
    return dim.flatmap(lambda n: hnp.arrays(
        np.float64, (n, n),
        elements=st.floats(-1, 1, allow_nan=False)).map(make))


def _sweep(impl, A, x, b, r=None):
    """One forward GS sweep on ``impl``'s primitives: the run-time sweep,
    or its factor identity ``x + (L+D)^{-1} r`` spelled with the
    oracles."""
    if impl == "scipy":
        return primitives.gauss_seidel_sweep(A, x, b, r=r)
    if r is None:
        r = b - oracles.matvec(A, x)
    return x + oracles.solve_lower(A.ld_factor(), r)


# ----------------------------------------------------------------------
# matvec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", RUNTIME)
@given(dense=sparse_dense(), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_matvec_matches_reference(name, dense, seed):
    A = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dense.shape[1])
    ref = oracles.matvec(A, x)
    fast = IMPLS[name].matvec(A, x)
    out = np.empty(A.n_rows)
    res = A.matvec(x, out=out)
    assert res is out
    np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=0)
    np.testing.assert_allclose(out, ref, atol=1e-12, rtol=0)


@given(dense=sparse_dense(), seed=st.integers(0, 2 ** 31 - 1),
       cut=st.tuples(st.floats(0, 1), st.floats(0, 1)))
@settings(max_examples=40, deadline=None)
def test_csr_matvec_on_a_row_slice_matches_reference(dense, seed, cut):
    """The block methods hand ``csr_matvec`` a slice of a larger store's
    ``indptr`` (not rebased to 0) with the store's whole column and value
    arrays: the output is the slice's rows of the full product."""
    A = CSRMatrix.from_dense(dense)
    lo, hi = sorted(int(c * A.n_rows) for c in cut)
    x = np.random.default_rng(seed).standard_normal(A.n_cols)
    out = np.full(hi - lo, np.nan)
    primitives.csr_matvec(A.indptr[lo:hi + 1], A.indices, A.data, x, out)
    np.testing.assert_allclose(out, oracles.matvec(A, x)[lo:hi],
                               atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", IMPLS)
def test_matvec_edge_shapes(name):
    """Empty matrices, empty rows and 1x1 systems give exact answers."""
    k = IMPLS[name]
    empty = CSRMatrix(np.zeros(4, dtype=np.int64),
                      np.zeros(0, dtype=np.int64), np.zeros(0), (3, 5))
    assert np.array_equal(k.matvec(empty, np.ones(5)), np.zeros(3))

    gappy = CSRMatrix.from_dense(np.array([[0.0, 0.0], [3.0, 0.0]]))
    assert np.array_equal(k.matvec(gappy, np.array([2.0, 5.0])),
                          np.array([0.0, 6.0]))

    one = CSRMatrix.from_dense(np.array([[2.5]]))
    assert np.array_equal(k.matvec(one, np.array([2.0])), np.array([5.0]))


# ----------------------------------------------------------------------
# triangular solve
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", RUNTIME)
@given(dense=sparse_dense(max_dim=10), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_solve_lower_matches_reference(name, dense, seed):
    n = min(dense.shape)
    tri = np.tril(dense[:n, :n])
    np.fill_diagonal(tri, np.abs(np.diag(tri)) + 1.0)
    L = CSRMatrix.from_dense(tri)
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(n)
    ref = oracles.solve_lower(L, b)
    fast = IMPLS[name].solve_lower(L, b)
    np.testing.assert_allclose(fast, ref, atol=1e-12, rtol=0)


@pytest.mark.parametrize("name", IMPLS)
def test_solve_lower_unit_diagonal(name):
    tri = np.array([[0.0, 0.0], [2.0, 0.0]])   # implicit unit diagonal
    L = CSRMatrix.from_dense(tri)
    b = np.array([1.0, 5.0])
    got = IMPLS[name].solve_lower(L, b, unit_diagonal=True)
    np.testing.assert_allclose(got, [1.0, 3.0], atol=1e-12, rtol=0)


# ----------------------------------------------------------------------
# Gauss-Seidel sweep
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", IMPLS)
@given(dense=spd_dense(), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=40, deadline=None)
def test_gs_sweep_matches_textbook(name, dense, seed):
    A = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(seed)
    n = A.n_rows
    x = rng.standard_normal(n)
    b = rng.standard_normal(n)
    ref = oracles.gauss_seidel_sweep(A, x, b)
    fast = _sweep(name, A, x, b)
    scale = 1.0 + np.abs(ref).max()
    np.testing.assert_allclose(fast, ref, atol=1e-12 * scale, rtol=0)


@pytest.mark.parametrize("name", IMPLS)
def test_gs_sweep_precomputed_residual_and_single_row(name, rng):
    A = CSRMatrix.from_dense(np.array([[4.0]]))
    out = _sweep(name, A, np.array([1.0]), np.array([8.0]))
    np.testing.assert_allclose(out, [2.0], atol=1e-14)

    dense = np.array([[2.0, -1.0, 0.0],
                      [-1.0, 2.0, -1.0],
                      [0.0, -1.0, 2.0]])
    B = CSRMatrix.from_dense(dense)
    x = rng.standard_normal(3)
    b = rng.standard_normal(3)
    r = b - dense @ x
    np.testing.assert_allclose(_sweep(name, B, x, b, r=r),
                               _sweep(name, B, x, b), atol=1e-12)


# ----------------------------------------------------------------------
# partitioner kernels: byte-equal to the seed loops
# ----------------------------------------------------------------------
@st.composite
def weighted_graphs(draw):
    """A random undirected graph with integer-valued edge weights (so
    ties are common) and vertex weights 1-3, as a coarse level has."""
    n = draw(st.integers(2, 40))
    n_edges = draw(st.integers(0, 4 * n))
    ends = st.integers(0, n - 1)
    u = np.array(draw(st.lists(ends, min_size=n_edges, max_size=n_edges)),
                 dtype=np.int64)
    v = np.array(draw(st.lists(ends, min_size=n_edges, max_size=n_edges)),
                 dtype=np.int64)
    w = np.array(draw(st.lists(st.integers(1, 3), min_size=n_edges,
                               max_size=n_edges)), dtype=np.float64)
    A = CSRMatrix.from_coo(np.r_[u, np.arange(n)], np.r_[v, np.arange(n)],
                           np.r_[w, np.ones(n)], (n, n))
    g = matrix_graph(A)
    vwgt = np.array(draw(st.lists(st.integers(1, 3), min_size=n,
                                  max_size=n)), dtype=np.int64)
    return Graph(g.xadj, g.adjncy, g.adjwgt, vwgt)


@given(g=weighted_graphs(), seed=st.integers(0, 2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_hem_match_fast_is_the_seed_matcher(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n_vertices)
    assert (hem_match_fast(g, perm).tobytes()
            == oracles.hem_match(g, perm).tobytes())


@given(g=weighted_graphs(), seed=st.integers(0, 2 ** 31 - 1),
       frac=st.floats(0.2, 0.8), stall_limit=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_fm_refine_fast_is_the_seed_refinement(g, seed, frac, stall_limit):
    side = np.random.default_rng(seed).integers(
        0, 2, g.n_vertices).astype(np.int8)
    total = float(g.vwgt.sum())
    target0 = frac * total
    args = (target0, target0 - 0.05 * total, target0 + 0.05 * total, 4,
            stall_limit)
    fast = fm_refine_fast(g, side.copy(), *args)
    ref = oracles.fm_refine(g, side.copy(), *args)
    assert fast.tobytes() == ref.tobytes()


# ----------------------------------------------------------------------
# seed behaviour round-trip
# ----------------------------------------------------------------------
def _ds_history_digest():
    from repro.core import DistributedSouthwell
    from repro.core.blockdata import build_block_system
    from repro.matrices.poisson import poisson_2d
    from repro.partition import partition
    from repro.sparsela import symmetric_unit_diagonal_scale

    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    part = partition(A, 8, seed=3)
    system = build_block_system(A, part)
    ds = DistributedSouthwell(system)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    hist = ds.run(x0, np.zeros(A.n_rows), max_steps=25)
    norms = np.asarray(hist.residual_norms, dtype=np.float64)
    relax = np.asarray(hist.relaxations, dtype=np.int64)
    return hashlib.sha256(norms.tobytes() + relax.tobytes()).hexdigest()


# digest of the same run recorded on the seed implementation (the
# oracles' loops as the only kernels)
SEED_DS_DIGEST = \
    "43241919e53e91ddde3be083df3a0b9a477db7d1c4ff8edb6160dd1d6edb0850"


def test_compiled_kernels_reproduce_seed_ds_history():
    """The compiled kernels are a speedup, not a numerical change."""
    assert _ds_history_digest() == SEED_DS_DIGEST
