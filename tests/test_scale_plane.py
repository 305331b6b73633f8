"""Scaling-plane tests (DESIGN.md §5.13): the paper-scale machinery.

Covers the pieces the million-row campaign rides on: the matching
relabel the coarsening contraction uses, the memmap-backed setup-cache
blobs, and ``peak_rss_bytes`` on
:class:`~repro.api.SolveResult`.  (Bit-identity of the streamed
generators lives in ``tests/test_stream_matrices.py``; the int32 slab
dtype extension in ``tests/test_runtime_fastpath.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.matrices.poisson import poisson_2d
from repro.partition import matching_relabel, matrix_graph
from repro.partition.coarsen import heavy_edge_matching
from repro.sparsela import symmetric_unit_diagonal_scale


@pytest.fixture
def A():
    return symmetric_unit_diagonal_scale(poisson_2d(32)).matrix


# ----------------------------------------------------------------------
# coarsening relabel
# ----------------------------------------------------------------------
def test_matching_relabel_matches_contract_maps(A):
    g = matrix_graph(A)
    match = heavy_edge_matching(g, seed=3)
    cmap, nc = matching_relabel(match)
    assert cmap.shape == (g.n_vertices,)
    assert nc == int(cmap.max()) + 1
    # every matched pair collapses to one coarse id, singletons keep one
    assert np.array_equal(cmap, cmap[match])


# ----------------------------------------------------------------------
# memmap-backed setup cache
# ----------------------------------------------------------------------
def test_warm_setup_arrays_are_memmap_views(A, tmp_path):
    from repro.setupcache import get_setup

    get_setup(A, 4, cache_dir=tmp_path)
    key_files = list(tmp_path.glob("*.blob"))
    assert len(key_files) == 1, "cold store must write the blob sidecar"
    part, system = get_setup(A, 4, cache_dir=tmp_path)
    # big arrays come back as read-only memmap views into the blob
    assert isinstance(part.perm, np.memmap)
    assert not part.perm.flags.writeable
    assert isinstance(system.A.data, np.memmap)
    # small arrays stay inline (offsets array is tiny at P=4)
    assert not isinstance(part.offsets, np.memmap)


def test_warm_setup_solve_identity_all_runtimes(A, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SETUP_CACHE", str(tmp_path))
    cold = solve(A, n_parts=4, max_steps=6, seed=0, runtime="flat")
    for rt in ("flat", "auto"):
        warm = solve(A, n_parts=4, max_steps=6, seed=0, runtime=rt)
        assert (warm.history.residual_norms
                == cold.history.residual_norms), rt
        np.testing.assert_array_equal(warm.x, cold.x)


# ----------------------------------------------------------------------
# peak RSS accounting
# ----------------------------------------------------------------------
def test_solve_reports_peak_rss(A):
    res = solve(A, n_parts=4, max_steps=3, seed=0)
    assert res.peak_rss_bytes is not None
    assert res.peak_rss_bytes > 1 << 20          # more than a megabyte
    d = res.to_dict()
    assert d["schema"] == "repro.solveresult/v5"
    assert d["peak_rss_bytes"] == res.peak_rss_bytes
