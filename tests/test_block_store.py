"""The whole-array block build against the seed's per-block build.

``build_block_system`` assembles every diagonal block, ``L+D`` operand
and coupling as read-only views of a few stores, validated once
(DESIGN.md §5.1).  :func:`_reference_build` is the per-block loop it
replaced, kept as the oracle: keys, every array's dtype / shape
/ bytes, ``beta``, ``flops`` and every solver's ``apply`` must be equal,
and the flat plane's index plans must equal what re-stacking the
oracle's blocks edge by edge gives.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import _BATCH_ROWS, BlockSystem, build_block_system
from repro.core.local_solvers import make_local_solver
from repro.matrices.poisson import poisson_2d
from repro.matrices.random_spd import random_sparse_spd
from repro.partition import partition, partition_from_parts
from repro.runtime import use_runtime
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import COOMatrix, CSRMatrix

SOLVERS = [("gs", 1), ("gs", 2), ("direct", 1)]


def _reference_build(A, part, local_solver="gs", n_sweeps=1):
    """The seed's ``build_block_system``: one ``extract_block`` + solver
    per process, one validated COO→CSR per (row owner, col owner) pair."""
    Aperm = A.permute(part.perm)
    offsets = part.offsets
    P = part.n_parts
    owner = np.repeat(np.arange(P), np.diff(offsets))

    diag_blocks, local_solvers = [], []
    for p in range(P):
        rows = np.arange(offsets[p], offsets[p + 1])
        App = Aperm.extract_block(rows, rows)
        diag_blocks.append(App)
        local_solvers.append(make_local_solver(local_solver, App,
                                               n_sweeps=n_sweeps))

    rows_g = Aperm._expanded_row_ids()
    cols_g = Aperm.indices
    vals_g = Aperm.data
    po = owner[rows_g]
    qo = owner[cols_g]
    off = po != qo
    rows_o, cols_o, vals_o = rows_g[off], cols_g[off], vals_g[off]
    pr, pc = po[off], qo[off]

    order = np.lexsort((cols_o, rows_o, pc, pr))
    rows_o, cols_o, vals_o = rows_o[order], cols_o[order], vals_o[order]
    pr, pc = pr[order], pc[order]

    couplings, beta = {}, {}
    if rows_o.size:
        pair_key = pr * P + pc
        starts = np.flatnonzero(np.r_[True, pair_key[1:] != pair_key[:-1]])
        bounds = np.r_[starts, pair_key.size]
        for s, e in zip(bounds[:-1], bounds[1:]):
            q = int(pr[s])          # row owner (receiver of the delta)
            p = int(pc[s])          # column owner (the relaxing process)
            loc_rows = rows_o[s:e] - offsets[q]
            loc_cols = cols_o[s:e] - offsets[p]
            bq = np.unique(loc_rows)
            beta[(q, p)] = bq
            row_pos = np.searchsorted(bq, loc_rows)
            # (the seed skipped to_csr's sort/reduce pass through a
            # ``dedup=False`` knob that went with the loop; on these
            # sorted, unique triplets the pass is the identity)
            block = COOMatrix(row_pos, loc_cols, vals_o[s:e],
                              (bq.size, int(offsets[p + 1] - offsets[p]))
                              ).to_csr()
            couplings[(p, q)] = block
    return BlockSystem(A=Aperm, part=part, diag_blocks=diag_blocks,
                       local_solvers=local_solvers, couplings=couplings,
                       beta=beta, perm=part.perm)


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _same_csr(X, Y):
    return X.shape == Y.shape and all(
        _same_array(getattr(X, f), getattr(Y, f))
        for f in ("indptr", "indices", "data"))


def _assert_same_system(new, ref, seed=0):
    assert set(new.couplings) == set(ref.couplings)
    assert set(new.beta) == set(ref.beta)
    for key, block in ref.couplings.items():
        assert _same_csr(new.couplings[key], block), key
    for key, rows in ref.beta.items():
        assert _same_array(new.beta[key], rows), key
    rng = np.random.default_rng(seed)
    for p, App in enumerate(ref.diag_blocks):
        assert _same_csr(new.diag_blocks[p], App), p
        s_new, s_ref = new.local_solvers[p], ref.local_solvers[p]
        assert type(s_new) is type(s_ref) and s_new.flops == s_ref.flops
        r = rng.standard_normal(App.n_rows)
        assert s_new.apply(r).tobytes() == s_ref.apply(r).tobytes(), p


def _random_problem(n, n_parts, seed, isolated):
    """Random SPD with symmetric pattern and random (compacted) labels:
    sizes are as unequal as the draw makes them, single-row blocks occur,
    and the first ``isolated`` rows couple to nothing — labelled apart,
    they make neighbor-less blocks."""
    rng = np.random.default_rng(seed)
    dense = random_sparse_spd(n, density=0.1, seed=seed, shift=0.5).to_dense()
    dense[:isolated, isolated:] = 0.0
    dense[isolated:, :isolated] = 0.0
    A = CSRMatrix.from_dense(dense)
    labels = rng.integers(0, n_parts, n)
    labels[:isolated] = rng.integers(0, 2, isolated) + n_parts
    _, labels = np.unique(labels, return_inverse=True)
    return A, partition_from_parts(A, labels, int(labels.max()) + 1)


@given(st.integers(4, 70), st.integers(1, 32), st.integers(0, 10_000),
       st.integers(0, 3), st.sampled_from(SOLVERS))
@settings(max_examples=60, deadline=None)
def test_whole_array_build_equals_the_seed_build(n, n_parts, seed, isolated,
                                                 solver):
    A, part = _random_problem(n, n_parts, seed, min(isolated, n - 1))
    kind, sweeps = solver
    new = build_block_system(A, part, local_solver=kind, n_sweeps=sweeps)
    ref = _reference_build(A, part, local_solver=kind, n_sweeps=sweeps)
    _assert_same_system(new, ref, seed)
    # the directory and the fan-outs describe the same couplings
    pairs = list(zip(new.edge_src.tolist(), new.edge_dst.tolist()))
    assert pairs == sorted(ref.couplings)
    for e, (p, q) in enumerate(pairs):
        assert np.array_equal(
            new.beta_rows[new.edge_rows[e]:new.edge_rows[e + 1]],
            ref.beta[(q, p)])
    for p in range(part.n_parts):
        nbrs = new.neighbors_of(p)
        assert (new.fanout[p] is None) == (nbrs.size == 0)


@pytest.mark.parametrize("solver", SOLVERS)
def test_poisson_multilevel_partition_equals_the_seed_build(solver):
    A = poisson_2d(24)
    part = partition(A, 37, seed=3)
    kind, sweeps = solver
    _assert_same_system(
        build_block_system(A, part, local_solver=kind, n_sweeps=sweeps),
        _reference_build(A, part, local_solver=kind, n_sweeps=sweeps))


# ----------------------------------------------------------------------
# the flat plane's plans: whole-array gathers ≡ per-edge re-stacking
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [DistributedSouthwell, ParallelSouthwell,
                                 BlockJacobi])
def test_flat_plans_equal_per_edge_restacking(cls):
    A, part = _random_problem(90, 11, seed=7, isolated=2)
    ref = _reference_build(A, part)
    runner = cls(build_block_system(A, part))
    rng = np.random.default_rng(1)
    with use_runtime("flat"):
        runner.setup(rng.standard_normal(A.n_rows), np.zeros(A.n_rows))
    assert runner._use_flat
    plane = runner.engine.flat
    P = part.n_parts
    rstart = part.offsets
    keys = sorted(ref.couplings)
    assert [(int(s), int(d)) for s, d in
            zip(plane.edge_src, plane.edge_dst)] == keys
    ships_z = cls is DistributedSouthwell
    pos_of = [{int(q): i for i, q in enumerate(part.neighbors[p])}
              for p in range(P)]
    voff, zoff = plane.vals_off, plane.z_off
    for eid, (s, d) in enumerate(keys):
        n_vals = ref.couplings[(s, d)].n_rows
        n_z = ref.beta[(s, d)].size if ships_z else 0
        assert voff[eid + 1] - voff[eid] == n_vals
        assert zoff[eid + 1] - zoff[eid] == n_z
        assert np.array_equal(runner._grows_flat[voff[eid]:voff[eid + 1]],
                              rstart[d] + ref.beta[(d, s)])
        if ships_z:
            assert np.array_equal(
                runner._zsrc_grows[zoff[eid]:zoff[eid + 1]],
                rstart[s] + ref.beta[(s, d)])
        assert runner._eid_pos[eid] == pos_of[d][s]
        slabpos = runner._nbr_off[d] + pos_of[d][s]
        assert list(runner._sid_slabpos[2 * eid:2 * eid + 2]) == [slabpos] * 2
        assert ((runner._flat_solve_nbytes[eid], runner._flat_res_nbytes[eid])
                == runner._flat_message_nbytes(n_vals, n_z))
    if not ships_z:
        assert runner._zsrc_grows.size == 0
    for p in range(P):
        nbrs = [int(q) for q in part.neighbors[p]]
        blocks = [ref.couplings[(p, q)] for q in nbrs]
        assert runner._relax_flops[p] == (
            ref.local_solvers[p].flops + 2.0 * ref.diag_blocks[p].nnz
            + 2.0 * ref.diag_blocks[p].n_rows
            + sum(2.0 * b.nnz for b in blocks))
        assert [int(e) for e in runner._out_eids[p]] == \
            [keys.index((p, q)) for q in nbrs]
        dx = rng.standard_normal(ref.diag_blocks[p].n_rows)
        if not blocks:
            assert runner._mv_fanout[p] is None
            continue
        out = np.empty(sum(b.n_rows for b in blocks))
        runner._mv_fanout[p](dx, out)
        expect = np.concatenate([b.matvec(dx) for b in blocks])
        assert out.tobytes() == expect.tobytes()


# ----------------------------------------------------------------------
# validated once, read-only, picklable
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def poisson_setup():
    A = poisson_2d(12)
    return A, partition(A, 9, seed=0)


def test_zero_diagonal_names_the_row_and_the_block(poisson_setup):
    A, part = poisson_setup
    bad = A.copy()
    row = 77
    bad.data[bad.indptr[row]:bad.indptr[row + 1]][
        bad.indices[bad.indptr[row]:bad.indptr[row + 1]] == row] = 0.0
    k = int(np.flatnonzero(part.perm == row)[0])
    with pytest.raises(ValueError, match=(
            rf"zero diagonal entry at row {row} \(permuted row {k}\), "
            rf"owned by block {int(part.parts[row])}")):
        build_block_system(bad, part)
    build_block_system(bad, part, local_solver="direct")    # as the seed


@pytest.mark.parametrize("block, value, message", [
    # a column past the matrix clips to the last block's owner, a
    # negative one to the first's: inside that block's row it lands in
    # the diagonal store, elsewhere in the coupling store
    (8, 10_000, "column index out of range in diagonal block 8"),
    (0, -3, "column index out of range in diagonal block 0"),
    (2, 10_000, r"column index out of range in coupling block \(8, 2\)"),
    (5, -3, r"column index out of range in coupling block \(0, 5\)"),
])
def test_out_of_range_index_planted_in_aperm_raises(poisson_setup,
                                                    monkeypatch, block,
                                                    value, message):
    A, part = poisson_setup
    Aperm = A.permute(part.perm).copy()
    row = int(part.offsets[block])
    cols, _ = Aperm.row(row)
    cols[np.flatnonzero(cols != row)[0]] = value    # not the diagonal
    monkeypatch.setattr(CSRMatrix, "permute", lambda self, perm: Aperm)
    with pytest.raises(ValueError, match=message):
        build_block_system(A, part)


def test_stores_are_read_only(poisson_setup):
    system = build_block_system(*poisson_setup)
    key = next(iter(system.couplings))
    targets = [system.couplings[key], system.diag_blocks[0],
               system.fanout[0]]
    for block in targets:
        for field in ("indptr", "indices", "data"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(block, field)[0] = 1
    for arr in (system.beta[next(iter(system.beta))], system.beta_rows,
                system.edge_src, system.edge_dst, system.edge_rows):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("solver", SOLVERS)
def test_pickle_round_trip_of_a_view_backed_system(poisson_setup, solver):
    kind, sweeps = solver
    system = build_block_system(*poisson_setup, local_solver=kind,
                                n_sweeps=sweeps)
    blob = pickle.dumps(system)
    loaded = pickle.loads(blob)
    # a batching system's Gauss-Seidel blocks factor at first use only
    assert system.n <= _BATCH_ROWS * system.n_parts
    for sysm in (system, loaded):
        assert all((s._lu is None) == (kind == "gs")
                   for s in sysm.local_solvers)
    _assert_same_system(loaded, system)
    for name in ("edge_src", "edge_dst", "edge_rows", "beta_rows"):
        assert _same_array(getattr(loaded, name), getattr(system, name))
    for F, G in zip(loaded.fanout, system.fanout):
        assert (F is None and G is None) or _same_csr(F, G)
    # a solver on its own pickles as its (view-backed) block and derives
    # its operand again
    solver = system.local_solvers[3]
    r = np.linspace(-1.0, 1.0, solver.n)
    assert pickle.loads(pickle.dumps(solver)).apply(r).tobytes() \
        == solver.apply(r).tobytes()
    # and a fresh load, nothing factored yet, drives a run exactly like
    # the original
    rng = np.random.default_rng(0)
    x0, b = rng.standard_normal(system.n), np.zeros(system.n)
    runs = []
    for sysm in (system, pickle.loads(blob)):
        ds = DistributedSouthwell(sysm)
        ds.run(x0, b, max_steps=5)
        runs.append(ds.solution().tobytes())
    assert runs[0] == runs[1]
