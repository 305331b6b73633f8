"""Tests for the graph substrate and the multilevel partitioner."""

import os
import signal
import threading
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.multilevel as ml
from repro.matrices import fem_poisson_2d
from repro.matrices.poisson import poisson_2d
from repro.partition import (
    Partition,
    coarsen_graph,
    edge_cut,
    factor_near_square,
    fm_refine,
    greedy_grow_bisection,
    grid_blocks_2d,
    heavy_edge_matching,
    imbalance,
    matrix_graph,
    multilevel_bisection,
    neighbor_lists,
    partition,
    partition_from_parts,
    partition_graph,
    parts_are_valid,
)
from repro.partition.bisect import bisection_cut
from repro.partition.coarsen import contract
from repro.partition.graph import Graph
from repro.runtime import pool
from repro.sparsela import CSRMatrix


@pytest.fixture(scope="module")
def pgraph():
    return matrix_graph(poisson_2d(12))


# ------------------------------------------------------------------ graph
def test_matrix_graph_structure(pgraph):
    pgraph.validate()
    assert pgraph.n_vertices == 144
    # interior grid vertex has 4 neighbors
    assert pgraph.degrees().max() == 4


def test_matrix_graph_weights():
    d = np.array([[2.0, -0.5, 0.0],
                  [-0.5, 2.0, 1.5],
                  [0.0, 1.5, 2.0]])
    g = matrix_graph(CSRMatrix.from_dense(d))
    # weight = |a_uv| + |a_vu|
    assert np.isclose(sorted(g.edge_weights(1))[0], 1.0)
    assert np.isclose(sorted(g.edge_weights(1))[1], 3.0)


def test_matrix_graph_asymmetric_pattern_symmetrised():
    d = np.array([[1.0, 2.0], [0.0, 1.0]])
    g = matrix_graph(CSRMatrix.from_dense(d))
    g.validate()
    assert g.n_edges == 1


def test_matrix_graph_requires_square():
    with pytest.raises(ValueError):
        matrix_graph(CSRMatrix.from_dense(np.ones((2, 3))))


# --------------------------------------------------------------- matching
def test_matching_is_valid(pgraph):
    match = heavy_edge_matching(pgraph, seed=3)
    assert np.all(match[match] == np.arange(pgraph.n_vertices))


def test_matching_prefers_heavy_edges():
    # two heavy pairs (0-1, 2-3) and a weak 1-2 link: whatever the greedy
    # visit order, the heavy pairs win
    d = np.eye(4) * 2
    d[0, 1] = d[1, 0] = -10.0
    d[1, 2] = d[2, 1] = -0.1
    d[2, 3] = d[3, 2] = -10.0
    g = matrix_graph(CSRMatrix.from_dense(d))
    for seed in range(5):
        match = heavy_edge_matching(g, seed=seed)
        assert match[0] == 1 and match[1] == 0
        assert match[2] == 3 and match[3] == 2


def test_contract_preserves_total_weight(pgraph):
    match = heavy_edge_matching(pgraph, seed=0)
    level = contract(pgraph, match)
    assert level.graph.total_vertex_weight() == pgraph.total_vertex_weight()
    assert level.graph.n_vertices < pgraph.n_vertices
    level.graph.validate()


def test_coarsen_hierarchy_shrinks(pgraph):
    levels = coarsen_graph(pgraph, min_vertices=20)
    sizes = [lv.graph.n_vertices for lv in levels]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))
    assert sizes[-1] <= max(20, int(0.92 * sizes[-2])) if len(sizes) > 1 \
        else True


# --------------------------------------------------------------- bisection
def test_greedy_grow_respects_target(pgraph):
    side = greedy_grow_bisection(pgraph, target0=72.0, seed=1)
    w0 = pgraph.vwgt[side == 0].sum()
    assert 60 <= w0 <= 84


def test_fm_refine_does_not_worsen_cut(pgraph):
    side = greedy_grow_bisection(pgraph, target0=72.0, seed=2)
    before = bisection_cut(pgraph, side.copy())
    refined = fm_refine(pgraph, side.copy(), target0=72.0)
    assert bisection_cut(pgraph, refined) <= before


def test_multilevel_bisection_beats_random(pgraph):
    rng = np.random.default_rng(0)
    random_side = (rng.random(144) < 0.5).astype(np.int8)
    side = multilevel_bisection(pgraph, seed=0)
    assert bisection_cut(pgraph, side) < bisection_cut(pgraph, random_side)


# ------------------------------------------------------------------ k-way
@pytest.mark.parametrize("k", [2, 3, 7, 16])
def test_partition_graph_valid_and_balanced(pgraph, k):
    parts = partition_graph(pgraph, k, seed=0)
    assert parts_are_valid(parts, k)
    assert imbalance(pgraph, parts, k) < 1.35


def test_partition_graph_one_part(pgraph):
    parts = partition_graph(pgraph, 1)
    assert np.all(parts == 0)


def test_partition_fills_every_part_when_a_side_runs_short():
    # a bisection here leaves one side fewer vertices than the parts it
    # must cover; without the repair part 148 came out empty
    A = fem_poisson_2d(300, seed=1).matrix
    part = partition(A, 299)
    assert parts_are_valid(part.parts, 299)
    assert np.all(np.diff(part.offsets) > 0)


def test_partition_graph_rejects_more_parts_than_vertices(pgraph):
    with pytest.raises(ValueError, match="n=144.*P=145"):
        partition_graph(pgraph, 145)


@settings(max_examples=40, deadline=None)
@given(fem=st.booleans(), size=st.integers(2, 120),
       frac=st.floats(0.0, 1.0), seed=st.integers(0, 3))
def test_partition_graph_parts_never_empty(fem, size, frac, seed):
    A = (fem_poisson_2d(size, seed=seed).matrix if fem
         else poisson_2d(max(2, int(np.sqrt(size)))))
    n = A.n_rows
    k = 2 + int(frac * (n - 2))
    assert parts_are_valid(partition_graph(matrix_graph(A), k, seed=seed), k)


def test_partition_matrix_beats_strided():
    A = poisson_2d(16)
    g = matrix_graph(A)
    ml = partition(A, 8, method="multilevel", seed=0)
    st = partition(A, 8, method="strided")
    assert edge_cut(g, ml.parts) <= edge_cut(g, st.parts)


def test_partition_object_consistency():
    A = poisson_2d(10)
    part = partition(A, 5, seed=1)
    assert isinstance(part, Partition)
    assert np.array_equal(np.sort(part.perm), np.arange(100))
    for p in range(5):
        assert np.all(part.parts[part.rows_of(p)] == p)
        assert part.size_of(p) == len(part.rows_of(p))
    assert part.offsets[-1] == 100


def test_neighbor_lists_symmetric():
    A = poisson_2d(10)
    part = partition(A, 6, seed=0)
    for p in range(6):
        for q in part.neighbors[p]:
            assert p in part.neighbors[int(q)]
            assert p != q


def test_partition_grid_method():
    A = poisson_2d(12)
    part = partition(A, 9, method="grid", grid_shape=(12, 12))
    assert parts_are_valid(part.parts, 9)
    sizes = np.diff(part.offsets)
    assert sizes.max() == 16 and sizes.min() == 16


def test_partition_errors():
    A = poisson_2d(4)
    with pytest.raises(ValueError):
        partition(A, 0)
    with pytest.raises(ValueError):
        partition(A, 100)
    with pytest.raises(ValueError):
        partition(A, 2, method="grid")
    with pytest.raises(ValueError):
        partition(A, 2, method="grid", grid_shape=(3, 3))
    with pytest.raises(ValueError):
        partition(A, 2, method="nope")
    with pytest.raises(ValueError):
        partition_from_parts(A, np.zeros(5, dtype=int), 1)


# ----------------------------------------------------- partition invariants
# The same contract, checked across every partitioner: any method may
# place rows differently, but the Partition it returns must satisfy the
# structural properties the block builder and solvers rely on.
_METHOD_CASES = [
    ("multilevel", {}),
    ("grid", {"grid_shape": (20, 20)}),
    ("strided", {}),
]


@pytest.fixture(scope="module")
def inv_matrix():
    return poisson_2d(20)


@pytest.mark.parametrize("method,kwargs", _METHOD_CASES,
                         ids=[m for m, _ in _METHOD_CASES])
def test_invariant_perm_is_a_permutation(inv_matrix, method, kwargs):
    part = partition(inv_matrix, 8, method=method, seed=0, **kwargs)
    assert np.array_equal(np.sort(part.perm), np.arange(400))
    # perm groups rows by owner in part order
    assert np.all(np.diff(part.parts[part.perm]) >= 0)


@pytest.mark.parametrize("method,kwargs", _METHOD_CASES,
                         ids=[m for m, _ in _METHOD_CASES])
def test_invariant_offsets_cover_all_rows(inv_matrix, method, kwargs):
    part = partition(inv_matrix, 8, method=method, seed=0, **kwargs)
    sizes = np.diff(part.offsets)
    assert part.offsets[0] == 0 and part.offsets[-1] == 400
    assert np.all(sizes > 0)
    assert np.array_equal(sizes, np.bincount(part.parts, minlength=8))


@pytest.mark.parametrize("method,kwargs", _METHOD_CASES,
                         ids=[m for m, _ in _METHOD_CASES])
def test_invariant_balanced_sizes(inv_matrix, method, kwargs):
    g = matrix_graph(inv_matrix)
    part = partition(inv_matrix, 8, method=method, seed=0, **kwargs)
    assert imbalance(g, part.parts, 8) < 1.35


@pytest.mark.parametrize("method,kwargs", _METHOD_CASES,
                         ids=[m for m, _ in _METHOD_CASES])
def test_invariant_neighbor_lists_symmetric(inv_matrix, method, kwargs):
    part = partition(inv_matrix, 8, method=method, seed=0, **kwargs)
    for p in range(8):
        for q in part.neighbors[p]:
            assert p != q
            assert p in part.neighbors[int(q)]


# ----------------------------------------------------------- pinned digests
# The multilevel partitioner's output is pinned bit-for-bit: downstream
# run histories (and the persistent setup cache) assume a given
# (matrix, P, seed) always yields the same partition.  ``poisson_2d(110)``
# at P=256 is the af_5_k101 suite analog — the paper-scale case the setup
# bench times.
_PINNED = [
    (24, 8, "1355cf2f6344ce7e", 212.0),
    (40, 16, "1bee47fa0fb511ab", 600.0),
    (110, 256, "4a394285ea246c79", 9092.0),
]


def _parts_digest(parts):
    import hashlib

    return hashlib.sha256(parts.astype(np.int64).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("n,k,digest,cut", _PINNED,
                         ids=[f"n{n}-P{k}" for n, k, _, _ in _PINNED])
def test_multilevel_partition_is_pinned(n, k, digest, cut):
    A = poisson_2d(n)
    part = partition(A, k, method="multilevel", seed=0)
    assert _parts_digest(part.parts) == digest
    assert edge_cut(matrix_graph(A), part.parts) == cut


def test_fast_kernels_match_reference_backend(monkeypatch):
    """The whole partition with the seed loops (``tests/oracles.py``)
    patched in for the matcher and the refinement is the pinned one."""
    import repro.partition.bisect as bisect_mod
    import repro.partition.coarsen as coarsen_mod

    from tests import oracles

    A = poisson_2d(40)
    fast = partition(A, 16, method="multilevel", seed=0)
    monkeypatch.setattr(coarsen_mod, "hem_match_fast", oracles.hem_match)
    monkeypatch.setattr(bisect_mod, "fm_refine_fast", oracles.fm_refine)
    ref = partition(A, 16, method="multilevel", seed=0)
    assert np.array_equal(fast.parts, ref.parts)
    assert np.array_equal(fast.perm, ref.perm)
    assert _parts_digest(fast.parts) == "1bee47fa0fb511ab"


# ------------------------------------------------------- forked subtrees
# partition_graph cuts the two halves of a large bisection in two
# processes.  Forcing the fork on (tiny size threshold, a wide CPU set)
# and off must give the same labels byte for byte, a failing child must
# surface in the parent, and no child may outlive the call.
class _ChildBoom(Exception):
    """Raised only inside a forked child."""


@contextmanager
def _forks(mp, on: bool = True, cpus=(0, 1, 2, 3)):
    """Force the fork path on or off; yield the list of fork attempts."""
    made = []
    real = pool.ForkedCall

    def spy(fn):
        made.append(os.getpid())
        return real(fn)

    mp.setattr(pool, "ForkedCall", spy)
    mp.setattr(ml, "_FORK_MIN_VERTICES", 8 if on else 1 << 60)
    if cpus is not None:
        mp.setattr(os, "sched_getaffinity", lambda pid: set(cpus),
                   raising=False)
    yield made
    _assert_no_children()


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextmanager
def _deadline(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _labels(A, k, seed=0, on=True, cpus=(0, 1, 2, 3)):
    with (pytest.MonkeyPatch.context() as mp, _forks(mp, on, cpus) as made,
          _deadline(120)):
        parts = partition(A, k, method="multilevel", seed=seed).parts
    return parts, made


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="needs os.fork")


@needs_fork
@pytest.mark.parametrize("n,k,digest,cut", _PINNED,
                         ids=[f"n{n}-P{k}" for n, k, _, _ in _PINNED])
def test_forked_partition_matches_pinned_digest(n, k, digest, cut):
    A = poisson_2d(n)
    forked, made = _labels(A, k, on=True)
    serial, none = _labels(A, k, on=False)
    assert made and not none
    assert _parts_digest(forked) == _parts_digest(serial) == digest


@needs_fork
@settings(max_examples=15, deadline=None)
@given(fem=st.booleans(), size=st.integers(40, 600),
       k=st.integers(4, 40), seed=st.integers(0, 3))
def test_forked_partition_labels_are_serial_labels(fem, size, k, seed):
    A = (fem_poisson_2d(size, seed=seed).matrix if fem
         else poisson_2d(int(np.sqrt(size))))
    k = min(k, A.n_rows)
    forked, made = _labels(A, k, seed=seed, on=True)
    serial, _ = _labels(A, k, seed=seed, on=False)
    assert made
    assert forked.tobytes() == serial.tobytes()


@needs_fork
@pytest.mark.parametrize("cpus", [2, 3, 4, 8])
def test_each_fork_halves_the_width(cpus):
    # the parent keeps side 0 of every fork it makes: one fork per depth
    # while the width lasts (children fork too; their spies are their own)
    parts, made = _labels(poisson_2d(40), 16, cpus=range(cpus))
    assert len(made) == int(np.log2(cpus))
    assert _parts_digest(parts) == "1bee47fa0fb511ab"


@needs_fork
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_one_usable_cpu_stays_serial():
    A = poisson_2d(24)
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        parts, made = _labels(A, 8, on=True, cpus=None)
    finally:
        os.sched_setaffinity(0, before)
    assert made == []
    assert _parts_digest(parts) == "1355cf2f6344ce7e"


@needs_fork
def test_another_thread_keeps_partition_serial():
    stop = threading.Event()
    t = threading.Thread(target=stop.wait)
    t.start()
    try:
        parts, made = _labels(poisson_2d(24), 8)
    finally:
        stop.set()
        t.join()
    assert made == []
    assert _parts_digest(parts) == "1355cf2f6344ce7e"


def test_no_fork_without_os_fork(monkeypatch):
    monkeypatch.delattr(os, "fork", raising=False)
    parts, made = _labels(poisson_2d(24), 8)
    assert made == []
    assert _parts_digest(parts) == "1355cf2f6344ce7e"


@needs_fork
def test_fork_oserror_falls_back_to_serial(monkeypatch):
    def refuse():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", refuse)
    parts, made = _labels(poisson_2d(24), 8)
    assert made                              # tried, then ran serial
    assert _parts_digest(parts) == "1355cf2f6344ce7e"


def _only_in_child(monkeypatch, action):
    """Run ``action()`` whenever a forked child cuts a subgraph."""
    parent = os.getpid()
    real = ml._induced_subgraph

    def induced(*args):
        if os.getpid() != parent:
            action()
        return real(*args)

    monkeypatch.setattr(ml, "_induced_subgraph", induced)


@needs_fork
def test_child_exception_reraises_with_its_type(monkeypatch):
    def boom():
        raise _ChildBoom("side 1 failed")

    _only_in_child(monkeypatch, boom)
    with pytest.raises(_ChildBoom, match="side 1 failed"):
        _labels(poisson_2d(24), 8, cpus=(0, 1))
    _assert_no_children()


@needs_fork
def test_child_killed_before_result_raises_worker_died(monkeypatch):
    _only_in_child(monkeypatch,
                   lambda: os.kill(os.getpid(), signal.SIGKILL))
    with pytest.raises(pool.WorkerDied):           # bounded by _labels
        _labels(poisson_2d(24), 8, cpus=(0, 1))
    _assert_no_children()


class _DiesWhilePickled:
    """Kills the process that pickles it."""

    def __reduce__(self):
        os.kill(os.getpid(), signal.SIGKILL)


@needs_fork
def test_truncated_result_raises_worker_died(monkeypatch):
    # the child dies a megabyte into its pickle: the parent reads a
    # non-empty, truncated payload to EOF
    read = []
    real = pool._read_all
    monkeypatch.setattr(pool, "_read_all",
                        lambda fd: read.append(real(fd)) or read[-1])
    with _deadline(60), pool.ForkedCall(
            lambda: (b"x" * (1 << 20), _DiesWhilePickled())) as child:
        with pytest.raises(pool.WorkerDied):
            child.result()
    assert 0 < len(read[0]) < (1 << 20) + 64
    _assert_no_children()


# ------------------------------------------------------------------- grid
def test_factor_near_square():
    assert factor_near_square(16) == (4, 4)
    assert factor_near_square(12) in ((3, 4), (4, 3))
    assert factor_near_square(7) == (1, 7)
    with pytest.raises(ValueError):
        factor_near_square(0)


def test_grid_blocks_cover_and_balance():
    parts = grid_blocks_2d(10, 10, 4)
    assert parts_are_valid(parts, 4)
    counts = np.bincount(parts)
    assert counts.max() == counts.min() == 25


def test_grid_blocks_contiguous():
    parts = grid_blocks_2d(8, 8, 4).reshape(8, 8)
    # each block is a contiguous rectangle: its bounding box has its area
    for p in range(4):
        ys, xs = np.nonzero(parts == p)
        area = (ys.max() - ys.min() + 1) * (xs.max() - xs.min() + 1)
        assert area == ys.size


def test_bisection_drops_its_list_caches(monkeypatch):
    """Coarse levels hold their Python lists only while a kernel reads
    them, and a finished bisection leaves none behind; the labels are
    those of a run that kept every list."""
    g = matrix_graph(poisson_2d(24))
    levels = coarsen_graph(g, seed=0)
    assert len(levels) > 1 and g._lists is not None
    assert all(lv.graph._lists is None for lv in levels)
    g = matrix_graph(poisson_2d(24))
    side = multilevel_bisection(g, seed=3)
    assert g._lists is None and g._vwgt_list is None
    monkeypatch.setattr(Graph, "drop_lists", lambda self: None)
    kept = matrix_graph(poisson_2d(24))
    assert np.array_equal(multilevel_bisection(kept, seed=3), side)
    assert kept._lists is not None
