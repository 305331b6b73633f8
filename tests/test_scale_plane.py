"""Scaling-plane tests (DESIGN.md §5.13): the paper-scale machinery.

Covers the pieces the million-row campaign rides on: the in-place
relabel coarsening path and the ``coarse`` partition method, the
memmap-backed setup-cache blobs, and ``peak_rss_bytes`` on
:class:`~repro.api.SolveResult`.  (Bit-identity of the streamed
generators lives in ``tests/test_stream_matrices.py``; the int32 slab
dtype extension in ``tests/test_runtime_fastpath.py``.)
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import solve
from repro.matrices.poisson import poisson_2d
from repro.partition import (
    coarsen_graph,
    coarsen_labels,
    matching_relabel,
    matrix_graph,
    partition,
    parts_are_valid,
)
from repro.partition.coarsen import heavy_edge_matching
from repro.sparsela import symmetric_unit_diagonal_scale


@pytest.fixture
def A():
    return symmetric_unit_diagonal_scale(poisson_2d(32)).matrix


# ----------------------------------------------------------------------
# compact coarsening path
# ----------------------------------------------------------------------
def test_matching_relabel_matches_contract_maps(A):
    g = matrix_graph(A)
    match = heavy_edge_matching(g, seed=3)
    cmap, nc = matching_relabel(match)
    assert cmap.shape == (g.n_vertices,)
    assert nc == int(cmap.max()) + 1
    # every matched pair collapses to one coarse id, singletons keep one
    assert np.array_equal(cmap, cmap[match])


@pytest.mark.parametrize("min_vertices", [48, 200])
def test_coarsen_labels_identical_to_hierarchy(A, min_vertices):
    """The streaming composition equals composing the materialized
    per-level cmaps of ``coarsen_graph`` — same seeds, same stop rules."""
    g = matrix_graph(A)
    labels, coarse, n_levels = coarsen_labels(
        g, min_vertices=min_vertices, seed=0)
    levels = coarsen_graph(g, min_vertices=min_vertices, seed=0)
    ref = np.arange(g.n_vertices)
    for level in levels:
        ref = level.cmap[ref]
    assert n_levels == len(levels)
    assert np.array_equal(labels, ref)
    assert coarse.n_vertices == levels[-1].graph.n_vertices
    assert np.array_equal(coarse.xadj, levels[-1].graph.xadj)
    assert np.array_equal(coarse.adjncy, levels[-1].graph.adjncy)
    assert np.array_equal(coarse.adjwgt, levels[-1].graph.adjwgt)
    assert np.array_equal(coarse.vwgt, levels[-1].graph.vwgt)


def test_coarse_partition_method_valid_and_balanced(A):
    part = partition(A, 16, method="coarse")
    assert parts_are_valid(part.parts, 16)
    sizes = np.bincount(part.parts, minlength=16)
    assert sizes.min() > 0
    # coarse-first trades some balance for memory; keep it within 2x
    assert sizes.max() <= 2 * A.n_rows / 16


def test_coarse_method_through_solve(A):
    res = solve(A, n_parts=8, max_steps=5, partition_method="coarse",
                seed=0)
    assert res.n_parts == 8
    assert np.isfinite(res.final_norm)


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
