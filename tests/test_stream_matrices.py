"""Streamed matrix generation is bit-identical to the seed generators.

The chunked builders (``repro.matrices.stream``, DESIGN.md §5.13) are
pure memory optimizations: for every generator and every chunk size the
CSR ``indptr``/``indices``/``data`` bytes — hence the sha256 the setup
cache keys on — must match the seed whole-COO assembly exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.matrices.fem import _element_ke, assemble_p1_stiffness, triangular_mesh
from repro.matrices.poisson import _grid2d_entries
from repro.matrices.stream import grid2d_stream, stream_coo_to_csr
from repro.sparsela import COOMatrix


def csr_sha256(A) -> str:
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def assert_bit_identical(a, b):
    assert a.shape == b.shape
    assert a.indptr.dtype == b.indptr.dtype
    assert a.indices.dtype == b.indices.dtype
    assert csr_sha256(a) == csr_sha256(b)


UNIT = staticmethod(lambda i, j: (np.ones(i.shape), np.ones(i.shape)))


@pytest.mark.parametrize("nx,ny", [(1, 5), (5, 1), (2, 2), (3, 7),
                                   (17, 13), (48, 48), (101, 37)])
@pytest.mark.parametrize("block_rows", [1, 3, None])
def test_grid2d_stream_unit_coeff(nx, ny, block_rows):
    ref = _grid2d_entries(nx, ny, lambda i, j: (np.ones(i.shape),
                                                np.ones(i.shape)))
    got = grid2d_stream(nx, ny, lambda i, j: (np.ones(i.shape),
                                              np.ones(i.shape)),
                        block_rows=block_rows)
    assert_bit_identical(ref, got)


@pytest.mark.parametrize("seed", [0, 3])
def test_grid2d_stream_variable_coeff(seed):
    rng = np.random.default_rng(seed)
    field = np.exp(rng.standard_normal((23, 31)))

    def coeff(i, j):
        return field, 2.0 * field

    ref = _grid2d_entries(31, 23, coeff)
    got = grid2d_stream(31, 23, coeff, block_rows=4)
    assert_bit_identical(ref, got)


def _seed_fem_assemble(mesh, tensor=None):
    """The pre-stream whole-COO assembly, kept here as the reference."""
    pts, tris = mesh.points, mesh.triangles
    K = None if tensor is None else np.asarray(tensor, dtype=np.float64)
    ke = _element_ke(pts[tris], K)
    rows = np.repeat(tris, 3, axis=1).ravel()
    cols = np.tile(tris, (1, 3)).ravel()
    vals = ke.transpose(0, 2, 1).ravel()
    n_pts = pts.shape[0]
    full = COOMatrix(rows, cols, vals, (n_pts, n_pts)).to_csr()
    interior = np.flatnonzero(~mesh.boundary)
    return full.extract_block(interior, interior)


@pytest.mark.parametrize("grid,seed", [(9, 0), (20, 1), (41, 5)])
@pytest.mark.parametrize("tri_block", [1, 13, 10**9])
def test_fem_assembly_chunked(grid, seed, tri_block):
    mesh = triangular_mesh(grid, seed=seed)
    assert_bit_identical(_seed_fem_assemble(mesh),
                         assemble_p1_stiffness(mesh, tri_block=tri_block))


def test_fem_assembly_chunked_tensor():
    from repro.matrices.fem import rotation_tensor

    mesh = triangular_mesh(17, seed=2)
    t = rotation_tensor(1e-3, np.pi / 6)
    assert_bit_identical(_seed_fem_assemble(mesh, t),
                         assemble_p1_stiffness(mesh, tensor=t, tri_block=7))


def test_stream_coo_duplicate_fold_matches_seed():
    # adversarial duplicates: many triplets landing on few keys, split at
    # every possible chunk boundary — the reduction must not reassociate
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 5, 300)
    cols = rng.integers(0, 5, 300)
    vals = rng.standard_normal(300)
    ref = COOMatrix(rows, cols, vals, (5, 5)).to_csr()
    for n_chunks in (1, 2, 7, 300):
        bounds = np.linspace(0, 300, n_chunks + 1).astype(int)
        got = stream_coo_to_csr(
            ((rows[lo:hi], cols[lo:hi], vals[lo:hi])
             for lo, hi in zip(bounds[:-1], bounds[1:])), (5, 5))
        assert_bit_identical(ref, got)


def test_stream_coo_empty():
    out = stream_coo_to_csr(iter(()), (4, 4))
    assert out.indptr.tolist() == [0, 0, 0, 0, 0]
    assert out.indices.size == 0
