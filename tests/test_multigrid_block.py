"""Tests for communication-aware multigrid: block smoothers through the
``solve()`` front door, per-level message accounting, and AMG
sparsification (DESIGN.md §5.16)."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MultigridConfig, RunConfig, solve
from repro.matrices.poisson import poisson_2d
from repro.multigrid import (
    ChebyshevSmoother,
    GaussSeidelSmoother,
    MultigridExecutor,
    RedBlackGaussSeidelSmoother,
    make_smoother,
    sparsify,
)
from repro.partition import partition
from repro.trace import RunTracer


def scaled_laplacian(dim):
    h = 1.0 / (dim + 1)
    return poisson_2d(dim).scale(1.0 / h ** 2)


def _sha(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


def fig6_rhs(dim, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, dim * dim)


def run_block(dim, n_parts, *, method="ds", n_cycles=9, tracer=None,
              cache_dir=None, hierarchy="geometric", drop_tol=0.0,
              budget=1.0, seed=0):
    sm = make_smoother(method, budget=budget, n_parts=n_parts, seed=seed,
                       tracer=tracer, cache_dir=cache_dir)
    mg = MultigridExecutor(scaled_laplacian(dim), sm, tracer=tracer,
                           hierarchy=hierarchy, drop_tol=drop_tol)
    hist = mg.run(fig6_rhs(dim, seed), n_cycles=n_cycles)
    return mg, hist


# ---------------------------------------------------------------- Figure 6
@pytest.mark.parametrize("n_parts", [4, 16])
def test_block_ds_grid_independent_convergence(n_parts):
    """Figure 6 with the *block* machinery: 9 V-cycles of block-DS
    smoothing converge grid-independently at P=4 and P=16."""
    rels = []
    for dim in (15, 31):
        _, hist = run_block(dim, n_parts)
        rels.append(hist.final_norm / hist.initial_norm)
    assert all(r < 1e-6 for r in rels)          # converged, deeply
    # grid independence: doubling the grid does not degrade the contraction
    assert rels[1] < 10 * rels[0] + 1e-8


def test_scalar_smoothed_executor_matches_pinned_digest():
    """Scalar Gauss-Seidel V-cycles at d = 15, 5 cycles.  The digests were
    recorded while the seed-era multigrid driver still existed and was
    proven bit-identical to this run, so they carry its guarantee."""
    dim = 15
    mg = MultigridExecutor(scaled_laplacian(dim), GaussSeidelSmoother(1))
    hist = mg.run(fig6_rhs(dim), n_cycles=5)
    assert _sha(mg.x) == ("f7fd94f6915be1fb20b1302b1a94a938"
                          "0321c7daccddbf49f0dd0b471a6c8eaa")
    assert _sha(np.asarray(hist.residual_norms)) == (
        "48e90d8be1b623aef03649f0b6d3d580"
        "36c1fa4666bcf8053d6ede6096deba50")


# ------------------------------------------------- equal relaxation budget
def test_block_budget_spent_to_within_one_block():
    """Each level spends its cumulative relaxation budget exactly, up to
    an unspendable carry smaller than one block (the shortfall persists
    only when no winning block fits the remainder)."""
    mg, _ = run_block(15, 4, n_cycles=9)
    smoothed = mg.levels[:-1]
    assert smoothed                              # coarsest is exact-solved
    for lvl in smoothed:
        rec = mg.smoother.record_for(lvl.matrix)
        issued = 2 * 9 * mg.smoother.relaxations(lvl.n_unknowns)
        assert rec.relaxations + rec.carry == issued
        assert rec.carry <= int(rec.sizes.max())


# ------------------------------------------------- per-level accounting
def test_level_stats_sum_to_run_totals_by_equality(tmp_path):
    tr = RunTracer()
    mg, _ = run_block(15, 4, tracer=tr)
    rows = mg.level_stats()
    agg = mg.aggregate_stats()
    assert sum(r.msgs for r in rows) == agg.total_messages
    assert sum(r.bytes for r in rows) == agg.total_bytes
    assert sum(r.recvs for r in rows) == agg.total_receives
    assert agg.total_messages > 0                # DS actually communicated

    path = tmp_path / "mg.jsonl"
    tr.save_jsonl(path)
    from repro.analysis.traceagg import summarize_trace

    summary = summarize_trace(path)
    assert summary.level_stats                   # mg_level rows recorded
    assert summary.levels_reconcile()
    assert summary.reconciles()


def test_unsmoothed_coarsest_level_row_is_zero():
    mg, _ = run_block(15, 4)
    rows = mg.level_stats()
    assert rows[-1].n_parts == 0                 # exact solve, no smoothing
    assert rows[-1].msgs == 0 and rows[-1].relaxations == 0
    assert all(r.relaxations > 0 for r in rows[:-1])


def _phases(tracer, name):
    return sum(1 for ev in tracer.iter_events()
               if ev.get("ev") == "phase" and ev.get("name") == name)


@pytest.mark.parametrize("dim,n_parts", [(15, 4), (31, 8)])
def test_warm_setup_cache_hits_every_partitioned_level(tmp_path, dim,
                                                       n_parts):
    """Only the levels that are partitioned read and write the setup
    cache; inherited levels derive from a cached finer level, so a cold
    and a warm run are identical byte for byte."""
    cold_tr = RunTracer()
    cold, _ = run_block(dim, n_parts, tracer=cold_tr, cache_dir=tmp_path,
                        n_cycles=2)
    n_cut = _phases(cold_tr, "setup:partition")
    assert 1 <= n_cut < len(cold.levels) - 1     # some level inherited
    assert len(list(tmp_path.glob("*.pkl"))) == n_cut
    tr = RunTracer()
    mg, _ = run_block(dim, n_parts, tracer=tr, cache_dir=tmp_path,
                      n_cycles=2)
    cache_events = [ev for ev in tr.iter_events()
                    if ev.get("ev") == "setup_cache"]
    assert len(cache_events) == n_cut
    assert all(ev["hit"] for ev in cache_events)
    assert _phases(tr, "setup:partition") == 0
    assert _sha(mg.x) == _sha(cold.x)
    assert mg.level_stats() == cold.level_stats()


# ------------------------------------------------------- AMG sparsification
def test_sparsify_zero_tol_is_identity():
    A = scaled_laplacian(7)
    out, dropped = sparsify(A, 0.0)
    assert out is A and dropped == 0


def test_sparsify_negative_tol_raises():
    with pytest.raises(ValueError):
        sparsify(scaled_laplacian(7), -0.1)


def test_sparsify_drops_weak_couplings_symmetrically():
    from repro.multigrid.transfer import (
        prolongation_matrix,
        restriction_matrix,
    )

    A = scaled_laplacian(15)
    A_c = (restriction_matrix(15).matmat(A)
           .matmat(prolongation_matrix(7)).prune(1e-14))
    out, dropped = sparsify(A_c, 0.1)            # prunes the 9-pt corners
    assert dropped > 0
    assert out.nnz == A_c.nnz - dropped
    d = out.to_dense()
    assert np.array_equal(d != 0.0, (d != 0.0).T)   # structurally symmetric
    assert np.array_equal(np.diag(d), np.diag(A_c.to_dense()))


def test_sparsified_hierarchy_converges_within_bound():
    """Dropping weak Galerkin couplings dampens the coarse correction:
    fewer messages per cycle, slower convergence — but still convergent."""
    _, dense_hist = run_block(15, 4, hierarchy="galerkin", drop_tol=0.0)
    mg, sp_hist = run_block(15, 4, hierarchy="galerkin", drop_tol=0.1)
    dense_rel = dense_hist.final_norm / dense_hist.initial_norm
    sp_rel = sp_hist.final_norm / sp_hist.initial_norm
    assert sum(r.nnz_dropped for r in mg.level_stats()) > 0
    assert dense_rel < 1e-6                      # exact Galerkin: deep
    assert sp_rel < 5e-2                         # sparsified: bounded
    assert sp_rel >= dense_rel                   # never better than exact


# ------------------------------------------------------- solve() front door
def test_solve_mg_block_ds_end_to_end():
    dim = 15
    res = solve(scaled_laplacian(dim), fig6_rhs(dim), method="mg",
                x0=np.zeros(dim * dim),
                config=RunConfig(n_parts=4, seed=0))
    assert res.method == "mg-block-ds"
    assert res.cycles == 9 and res.parallel_steps == 9
    assert res.final_norm / res.history.initial_norm < 1e-6
    assert res.levels is not None
    assert sum(r.msgs for r in res.levels) > 0
    assert res.comm_cost > 0


def test_solve_mg_default_rhs_is_fig6_protocol():
    """b=None draws the Figure 6 seeded uniform RHS; x0=None is zeros."""
    dim = 15
    cfg = RunConfig(n_parts=4, seed=3)
    auto = solve(scaled_laplacian(dim), method="mg", config=cfg)
    manual = solve(scaled_laplacian(dim), fig6_rhs(dim, 3), method="mg",
                   x0=np.zeros(dim * dim), config=cfg)
    assert auto.final_norm == manual.final_norm


def test_solve_mg_result_schema_v5_roundtrip():
    dim = 15
    res = solve(scaled_laplacian(dim), method="mg",
                config=RunConfig(n_parts=4,
                                 mg=MultigridConfig(smoother="gs")))
    doc = res.to_dict()
    assert doc["schema"] == "repro.solveresult/v5"
    assert doc["cycles"] == 9
    assert isinstance(doc["levels"], list) and doc["levels"]
    assert doc["levels"][0]["level"] == 0
    assert {"n", "n_parts", "msgs", "bytes", "recvs", "relaxations",
            "nnz_dropped"} <= set(doc["levels"][0])
    json.dumps(doc)                              # JSON-serializable


def test_solve_mg_scalar_result_has_level_rows_without_messages():
    dim = 15
    res = solve(scaled_laplacian(dim), method="mg",
                config=RunConfig(mg=MultigridConfig(smoother="scalar-ds")))
    assert res.method == "mg-distributed-southwell"
    assert all(r.msgs == 0 for r in res.levels)
    assert sum(r.relaxations for r in res.levels) == res.relaxations
    assert res.relaxations > 0


def test_solve_mg_block_requires_n_parts():
    with pytest.raises(ValueError, match="n_parts"):
        solve(scaled_laplacian(7), method="mg")


@pytest.mark.parametrize("runtime", ["async", "shm"])
def test_solve_mg_rejects_an_explicit_non_lockstep_runtime(runtime):
    """The V-cycle smooths on a lockstep plane: asking for another one is
    a typed error naming the pair, not a silent fallback."""
    with pytest.raises(ValueError, match=f"'mg'.*'{runtime}'"):
        solve(poisson_2d(15), fig6_rhs(15), method="mg",
              config=RunConfig(n_parts=4, runtime=runtime))


def test_solve_mg_env_async_still_smooths_lockstep(monkeypatch):
    """An ambient async mode — a ``use_runtime("async")`` scope, or a
    stray ``REPRO_RUNTIME=async`` that nothing reads — is not this
    call's: the smoothing stays lockstep, bit-identical to
    ``runtime="flat"``."""
    from repro.runtime import use_runtime

    dim = 15
    flat = solve(scaled_laplacian(dim), method="mg",
                 config=RunConfig(n_parts=4, runtime="flat"))
    monkeypatch.setenv("REPRO_RUNTIME", "async")
    with use_runtime("async"):
        env = solve(scaled_laplacian(dim), method="mg",
                    config=RunConfig(n_parts=4))
    assert _sha(env.x) == _sha(flat.x)


def test_solve_mg_rejects_non_grid_operator(fem_300):
    with pytest.raises(ValueError, match="2\\^k"):
        solve(fem_300, method="mg", config=RunConfig(n_parts=4))


def test_solve_mg_drop_tol_implies_galerkin():
    dim = 15
    res = solve(scaled_laplacian(dim), method="mg",
                config=RunConfig(n_parts=4,
                                 mg=MultigridConfig(drop_tol=0.1)))
    assert sum(r.nnz_dropped for r in res.levels) > 0


def test_multigrid_config_validation():
    with pytest.raises(ValueError):
        MultigridConfig(smoother="sor")
    with pytest.raises(ValueError):
        MultigridConfig(budget=0.0)
    with pytest.raises(ValueError):
        MultigridConfig(drop_tol=-1.0)
    with pytest.raises(ValueError):
        MultigridConfig(cycles=0)
    with pytest.raises(ValueError):
        MultigridConfig(levels=1)
    with pytest.raises(ValueError):
        MultigridConfig(hierarchy="algebraic")
    with pytest.raises(ValueError):
        MultigridConfig(coarsest_dim=1)
    # non-integer and non-finite values are a ValueError naming the field
    # at construction, not a truncated count or a deep numpy error
    for field, bad in [("cycles", 2.5), ("cycles", True), ("cycles", "3"),
                       ("levels", 2.5), ("coarsest_dim", 3.5),
                       ("budget", float("nan")), ("budget", float("inf")),
                       ("drop_tol", float("nan")), ("drop_tol", "x")]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            MultigridConfig(**{field: bad})
    cfg = MultigridConfig(cycles=np.int64(2), levels=np.int32(3),
                          coarsest_dim=np.int64(4))
    assert (cfg.cycles, cfg.levels, cfg.coarsest_dim) == (2, 3, 4)
    assert {type(v) for v in (cfg.cycles, cfg.levels,
                              cfg.coarsest_dim)} == {int}


def test_solve_mg_trace_reconciles_end_to_end(tmp_path):
    dim = 15
    path = tmp_path / "solve_mg.jsonl"
    solve(scaled_laplacian(dim), method="mg",
          config=RunConfig(n_parts=4, trace=str(path)))
    from repro.analysis.traceagg import format_trace_summary, summarize_trace

    summary = summarize_trace(path)
    assert summary.reconciles() and summary.levels_reconcile()
    text = format_trace_summary(summary)
    assert "levels (finest first):" in text
    assert "level sums match footer: yes" in text


# ------------------------------------------- cross-commit pins (block smoothers)
# Recorded when coarse levels started inheriting the finer level's
# ownership (level 0's partition is unchanged; levels 1-2 of this
# hierarchy now carry injected labels); ``solve(poisson_2d(31),
# method="mg")`` at P=8, 3 cycles.  Rows are (n_parts, msgs, bytes,
# recvs, relaxations) per level, finest first.
def _solve_pinned(smoother, **cfg):
    return solve(poisson_2d(31), method="mg",
                 config=RunConfig(n_parts=8, mg=MultigridConfig(
                     smoother=smoother, cycles=3), **cfg))


def _level_rows(res):
    return [(r.n_parts, r.msgs, r.bytes, r.recvs, r.relaxations)
            for r in res.levels]


_DS_X = "076f443ebe4eeac46bc651678dcde1e59b8efe60021f3fc5341749715c17c11b"

_BLOCK_PINS = {
    "ds": (_DS_X, 68.125, 0.0006220943,
           [(8, 164, 31624, 164, 5659), (8, 193, 19936, 193, 1328),
            (8, 188, 12744, 188, 293), (0, 0, 0, 0, 0)]),
    "ps": ("48b75f6c8485a39f9972874aca24b7bb63537b8cee96d9716077f62f842d67ce",
           179.625, 0.00116722671,
           [(8, 532, 25376, 532, 5651), (8, 514, 18328, 514, 1350),
            (8, 391, 12032, 391, 289), (0, 0, 0, 0, 0)]),
    "bj": ("99490fd5ec8eeecc0c0be1faef8e268a10108a4441add30fa2ce88814ae58a40",
           52.5, 0.00029516382,
           [(8, 144, 14688, 144, 5766), (8, 144, 8160, 144, 1350),
            (8, 132, 4800, 132, 294), (0, 0, 0, 0, 0)]),
}


@pytest.mark.parametrize("smoother", sorted(_BLOCK_PINS))
def test_block_smoother_solve_matches_pinned_digest(smoother):
    x_sha, comm, time, rows = _BLOCK_PINS[smoother]
    res = _solve_pinned(smoother)
    assert _sha(res.x) == x_sha
    assert res.comm_cost == comm
    assert res.simulated_time == time
    assert _level_rows(res) == rows


def test_block_ds_lossy_solve_matches_pinned_digest():
    from repro.faults import FaultPlan

    res = _solve_pinned("ds", faults=FaultPlan.uniform(seed=7, drop=0.05))
    assert _sha(res.x) == ("3854b4c80b880c30e54613bcb50a1125"
                           "29a3e6474d2658a0c253ce4fb2f09e79")
    assert res.comm_cost == 78.75
    assert res.simulated_time == 0.00067294123
    assert _level_rows(res) == [
        (8, 174, 32920, 173, 5659), (8, 206, 20880, 205, 1328),
        (8, 250, 15952, 244, 293), (0, 0, 0, 0, 0)]
    assert res.faults_injected == {"drop:solve": 2, "drop:residual": 6,
                                   "retry": 86}


def test_block_ds_traced_solve_matches_pinned_digest(tmp_path):
    from repro.analysis.traceagg import summarize_trace

    tr = RunTracer()
    res = _solve_pinned("ds", trace=tr)
    assert _sha(res.x) == _DS_X                  # tracing changes nothing
    assert sum(1 for _ in tr.iter_events()) == 2060
    path = tmp_path / "pinned.jsonl"
    tr.save_jsonl(path)
    summary = summarize_trace(path)
    assert summary.reconciles() and summary.levels_reconcile()


# ------------------------------------------------ per-operator records
@pytest.mark.parametrize("make", [
    lambda: make_smoother("ds", n_parts=4),
    lambda: make_smoother("scalar-ds"),
    lambda: ChebyshevSmoother(degree=2),
    lambda: RedBlackGaussSeidelSmoother(1),
], ids=["block-ds", "scalar-ds", "chebyshev", "red-black"])
def test_smoothers_do_not_confuse_short_lived_operators(make):
    """Per-operator records are keyed on ``id(A)``; the id of a dead
    temporary is handed to the next operator of equal shape, so a record
    must pin (and verify) the operator it was built for."""
    b = np.random.default_rng(0).uniform(-1.0, 1.0, 49)
    x0 = np.zeros(49)
    shared = make()
    for k in range(12):
        # alternate a grid Laplacian and a denser operator of one shape
        A = (poisson_2d(7) if k % 2 else
             poisson_2d(7).matmat(poisson_2d(7))).scale(1.0 + k)
        assert np.array_equal(shared.smooth(A, x0, b),
                              make().smooth(A, x0, b)), k
        if hasattr(shared, "record_for"):
            assert shared.record_for(A).runner.system.A.nnz == A.nnz
            assert shared.record_for(poisson_2d(7)) is None
        del A


# ------------------------------------- coarse levels inherit their ownership
def _labels(sm, level):
    return sm.record_for(level.matrix).runner.system.part.parts


def _check_inheritance(sm, levels, seed=0):
    """Each smoothed level's labels follow the rule: a coarse level
    carries its finer level's labels at ``(2I+1, 2J+1)`` when the part
    counts agree and no part is left empty, and ``partition()``'s labels
    otherwise.  Returns how many levels were partitioned."""
    smoothed = levels[:-1]
    n_cut = 0
    for k, level in enumerate(smoothed):
        A = level.matrix
        n_parts = min(sm.n_parts, A.n_rows)
        labels = _labels(sm, level)
        assert np.bincount(labels, minlength=n_parts).min() > 0, k
        if k:
            n_f = smoothed[k - 1].n
            inj = _labels(sm, smoothed[k - 1]).reshape(n_f, n_f)[1::2, 1::2]
            inj = inj.ravel()
            if (n_parts == min(sm.n_parts, n_f * n_f)
                    and np.bincount(inj, minlength=n_parts).min() > 0):
                assert np.array_equal(labels, inj), k
                continue
        assert np.array_equal(labels,
                              partition(A, n_parts, seed=seed).parts), k
        n_cut += 1
    return n_cut


@settings(max_examples=20, deadline=None)
@given(dim=st.sampled_from([7, 15, 31, 63]),
       n_parts=st.integers(1, 40),
       hierarchy=st.sampled_from([("geometric", 0.0), ("galerkin", 0.0),
                                  ("galerkin", 0.1), ("galerkin", 0.2)]),
       reverse=st.booleans())
def test_coarse_levels_inherit_the_finer_ownership(dim, n_parts, hierarchy,
                                                   reverse):
    sm = make_smoother("ds", n_parts=n_parts)
    ex = MultigridExecutor(scaled_laplacian(dim), sm,
                           hierarchy=hierarchy[0], drop_tol=hierarchy[1])
    smoothed = ex.levels[:-1]
    for level in (smoothed[::-1] if reverse else smoothed):
        sm.prepare(level.matrix)
    _check_inheritance(sm, ex.levels)


def test_fine_grid_partitions_twice_per_hierarchy(monkeypatch):
    """The benchmark's shape, P = 32 on 127²: only the fine level (labels
    pinned) and the 7² level, where injection would empty a part, call
    the partitioner; every level builds its block system once."""
    import repro.partition as rp

    monkeypatch.delenv("REPRO_SETUP_CACHE", raising=False)
    cut = []
    real = rp.partition_matrix

    def counting(A, n_parts, **kw):
        cut.append(A.n_rows)
        return real(A, n_parts, **kw)

    monkeypatch.setattr(rp, "partition_matrix", counting)
    tr = RunTracer()
    sm = make_smoother("ds", n_parts=32, tracer=tr)
    ex = MultigridExecutor(scaled_laplacian(127), sm, tracer=tr)
    for level in ex.levels[:-1]:
        sm.prepare(level.matrix)
    assert cut == [127 * 127, 7 * 7]
    assert _phases(tr, "setup:partition") == 2
    assert _phases(tr, "setup:block_build") == len(ex.levels) - 1 == 5
    parts = _labels(sm, ex.levels[0]).astype(np.int64)
    assert hashlib.sha256(parts.tobytes()).hexdigest()[:16] == (
        "b312794341c96c1b")
    monkeypatch.setattr(rp, "partition_matrix", real)
    assert _check_inheritance(sm, ex.levels) == 2


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_piecewise_mg_round_matches_the_front_door(order):
    """The benchmark's mg round makes the pieces itself — smoother,
    executor, one ``prepare()`` per smoothed level, then ``run()`` — and
    requires ``solve(method="mg")`` to return exactly what it did, in
    whatever order the levels were prepared."""
    A, b, x0 = poisson_2d(31), fig6_rhs(31), np.zeros(31 * 31)
    sm = make_smoother("ds", budget=1.0, n_parts=8, seed=0,
                       local_solver="gs", partition_method="multilevel",
                       tracer=None, faults=None)
    ex = MultigridExecutor(A, sm, coarsest_dim=3, n_levels=None,
                           hierarchy="geometric", drop_tol=0.0)
    smoothed = ex.levels[:-1]
    for level in (smoothed if order == "forward" else smoothed[::-1]):
        sm.prepare(level.matrix)
    ex.run(b, x0=x0, n_cycles=3)
    res = solve(A, b, method="mg", x0=x0,
                config=RunConfig(n_parts=8, seed=0, runtime="flat",
                                 mg=MultigridConfig(smoother="ds",
                                                    budget=1.0, cycles=3)))
    agg = ex.aggregate_stats()
    assert res.x.tobytes() == ex.x.tobytes()
    assert res.relaxations == sum(r.relaxations for r in ex.level_stats())
    assert res.comm_cost == agg.communication_cost()
    assert res.simulated_time == agg.elapsed_time()
    assert list(res.levels) == ex.level_stats()


def test_inherited_levels_never_follow_a_recycled_id():
    """The coarse -> fine links are keyed on ``id(A)`` and hold both
    operators: executors built on one smoother and dropped before they
    run leave no link that a later operator's recycled id could follow,
    and no runner a later level could be handed."""
    import gc

    shared = make_smoother("ds", n_parts=4)
    for k in range(12):
        # alternate grid sizes and coarse-operator stencils, so a stale
        # parent would hand a level other labels (or another shape)
        dim, other = ((15, 31), (31, 15))[k % 2]
        hierarchy = ("geometric", "galerkin")[(k // 2) % 2]
        MultigridExecutor(scaled_laplacian(other), shared,
                          hierarchy=hierarchy)     # linked, never prepared
        gc.collect()
        ex = MultigridExecutor(scaled_laplacian(dim).scale(1.0 + k), shared,
                               hierarchy=hierarchy)
        fresh = MultigridExecutor(scaled_laplacian(dim).scale(1.0 + k),
                                  make_smoother("ds", n_parts=4),
                                  hierarchy=hierarchy)
        b = fig6_rhs(dim)
        ex.run(b, n_cycles=2)
        fresh.run(b, n_cycles=2)
        assert _sha(ex.x) == _sha(fresh.x), k
        for mine, theirs in zip(ex.levels[:-1], fresh.levels[:-1]):
            assert shared.record_for(mine.matrix).runner.system.A.nnz == (
                mine.matrix.nnz)
            assert np.array_equal(_labels(shared, mine),
                                  _labels(fresh.smoother, theirs)), k
        _check_inheritance(shared, ex.levels)
        del ex, fresh
        gc.collect()


def test_dropped_executor_frees_its_levels():
    """A shared smoother holds its level runners and hierarchy links
    weakly: once an executor is dropped, its operators and their runners
    are freed and the smoother's records empty out."""
    import gc
    import weakref

    shared = make_smoother("ds", n_parts=4)
    ex = MultigridExecutor(scaled_laplacian(31), shared,
                           hierarchy="galerkin")
    ex.run(fig6_rhs(31), n_cycles=1)
    operators = [weakref.ref(lvl.matrix) for lvl in ex.levels]
    runners = [weakref.ref(shared.record_for(lvl.matrix).runner)
               for lvl in ex.levels[:-1]]
    assert len(shared._levels) == len(runners) and shared._finer
    del ex
    gc.collect()
    assert all(ref() is None for ref in operators + runners)
    assert shared._levels == {} and shared._finer == {}
