"""Tests for the persistent setup-plane cache (``repro.setupcache``).

Contract under test: a cache hit must be *indistinguishable* from a
recompute — same partition bytes, same permuted matrix, same coupling
blocks, same local-solver action — and the key must retire cached
products whenever anything that computed them could have changed.
"""

import os
import pickle

import numpy as np
import pytest

from repro import config
from repro import setupcache
from repro.api import solve
from repro.matrices.poisson import poisson_2d
from repro.setupcache import get_setup, matrix_digest, setup_key
from repro.sparsela import CSRMatrix
from repro.trace import RunTracer


@pytest.fixture(autouse=True)
def _no_env_cache(monkeypatch):
    """Tests control the cache via ``cache_dir=``, never a leaked env."""
    monkeypatch.delenv(config.ENV_SETUP_CACHE, raising=False)


@pytest.fixture(scope="module")
def A():
    return poisson_2d(20)


def _events(tracer):
    return [(e.get("ev"), e.get("name") or e.get("hit"))
            for e in tracer.iter_events()
            if e.get("ev") in ("phase", "setup_cache")]


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
def test_key_is_stable(A):
    assert setup_key(A, 4) == setup_key(A, 4)


@pytest.mark.parametrize("kwargs", [
    {"n_parts": 8},
    {"n_parts": 4, "method": "strided"},
    {"n_parts": 4, "seed": 1},
    {"n_parts": 4, "local_solver": "direct"},
    {"n_parts": 4, "n_sweeps": 2},
])
def test_key_varies_with_every_parameter(A, kwargs):
    assert setup_key(A, **kwargs) != setup_key(A, 4)


@pytest.mark.parametrize("bad_sweeps", [2.5, "2", True, 0])
def test_key_rejects_a_non_integer_sweep_count(A, bad_sweeps):
    """2.5 and 2 used to share a key (``str(int(n_sweeps))``)."""
    with pytest.raises(ValueError, match="n_sweeps"):
        setup_key(A, 4, n_sweeps=bad_sweeps)


def test_key_varies_with_matrix_content(A):
    B = CSRMatrix(A.indptr.copy(), A.indices.copy(), A.data.copy(), A.shape)
    assert setup_key(B, 4) == setup_key(A, 4)      # content, not identity
    B.data[0] += 1e-12
    assert setup_key(B, 4) != setup_key(A, 4)
    assert matrix_digest(B) != matrix_digest(A)


def test_key_includes_code_digest(A, monkeypatch):
    base = setup_key(A, 4)
    monkeypatch.setattr(setupcache, "setup_code_digest", lambda: "edited")
    assert setup_key(A, 4) != base


def test_code_digest_covers_the_setup_sources():
    import repro

    root = os.path.dirname(repro.__file__)
    for entry in setupcache._SETUP_SOURCES:
        assert os.path.exists(os.path.join(root, entry)), entry
    digest = setupcache.setup_code_digest()
    assert digest == setupcache.setup_code_digest()  # lru-cached, stable
    assert len(digest) == 64


# ----------------------------------------------------------------------
# round-trip identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("local_solver", ["gs", "direct"])
def test_hit_is_indistinguishable_from_recompute(A, tmp_path, local_solver):
    part1, sys1 = get_setup(A, 6, local_solver=local_solver,
                            cache_dir=tmp_path)
    part2, sys2 = get_setup(A, 6, local_solver=local_solver,
                            cache_dir=tmp_path)

    assert np.array_equal(part1.parts, part2.parts)
    assert np.array_equal(part1.perm, part2.perm)
    assert np.array_equal(part1.offsets, part2.offsets)
    assert [list(n) for n in part1.neighbors] == \
        [list(n) for n in part2.neighbors]

    assert np.array_equal(sys1.A.data, sys2.A.data)
    assert np.array_equal(sys1.A.indices, sys2.A.indices)
    assert np.array_equal(sys1.A.indptr, sys2.A.indptr)
    assert sorted(sys1.couplings) == sorted(sys2.couplings)
    for pq in sys1.couplings:
        assert np.array_equal(sys1.couplings[pq].data, sys2.couplings[pq].data)
        assert np.array_equal(sys1.couplings[pq].indices,
                              sys2.couplings[pq].indices)
    assert sorted(sys1.beta) == sorted(sys2.beta)
    for qp in sys1.beta:
        assert np.array_equal(sys1.beta[qp], sys2.beta[qp])
    # the re-factorized local solvers must act identically
    rng = np.random.default_rng(0)
    for p, (s1, s2) in enumerate(zip(sys1.local_solvers, sys2.local_solvers)):
        assert np.array_equal(sys1.diag_blocks[p].data, sys2.diag_blocks[p].data)
        r = rng.standard_normal(sys1.diag_blocks[p].n_rows)
        assert np.array_equal(s1.apply(r), s2.apply(r))


def test_cold_call_writes_one_pickle(A, tmp_path):
    get_setup(A, 4, cache_dir=tmp_path)
    files = list(tmp_path.glob("*.pkl"))
    assert len(files) == 1
    assert files[0].stem == setup_key(A, 4)


def test_cache_off_by_default_writes_nothing(A, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    get_setup(A, 4)                                 # no cache_dir, no env
    assert list(tmp_path.rglob("*.pkl")) == []


@pytest.mark.parametrize("cached", [False, True])
def test_tracer_none_traces_nothing(cached, tmp_path):
    """``tracer=None`` is the null tracer, with a ``cache_dir`` (cold
    then warm) and without one, as a method constructor takes it."""
    A = poisson_2d(16)
    kw = {"cache_dir": tmp_path} if cached else {}
    part, system = get_setup(A, 4, tracer=None, **kw)
    want_part, want_system = get_setup(A, 4)
    assert np.array_equal(part.parts, want_part.parts)
    assert system.n_parts == want_system.n_parts == 4
    if cached:
        again, _ = get_setup(A, 4, tracer=None, **kw)   # the warm hit
        assert np.array_equal(again.parts, part.parts)


def test_corrupt_entry_degrades_to_recompute(A, tmp_path):
    from repro.setupcache import _load

    key = setup_key(A, 4)
    (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
    part, system = get_setup(A, 4, cache_dir=tmp_path)
    assert part.n_parts == 4
    # and the recompute repaired the entry (pickle + blob sidecar)
    cached_part, _ = _load(tmp_path, key)
    assert np.array_equal(cached_part.parts, part.parts)


def test_missing_blob_degrades_to_recompute(A, tmp_path):
    """A .pkl whose sidecar vanished must read as a miss, not a crash."""
    get_setup(A, 4, cache_dir=tmp_path)
    key = setup_key(A, 4)
    (tmp_path / f"{key}.blob").unlink()
    part, system = get_setup(A, 4, cache_dir=tmp_path)
    assert part.n_parts == 4


# ----------------------------------------------------------------------
# trace events
# ----------------------------------------------------------------------
def test_cold_trace_miss_then_compute_phases(A, tmp_path):
    tr = RunTracer()
    get_setup(A, 4, tracer=tr, cache_dir=tmp_path)
    ev = _events(tr)
    assert ("setup_cache", False) in ev
    names = [n for k, n in ev if k == "phase"]
    assert "setup:cache_load" in names
    assert "setup:partition" in names
    assert "setup:block_build" in names


def test_warm_trace_hit_skips_compute_phases(A, tmp_path):
    get_setup(A, 4, cache_dir=tmp_path)
    tr = RunTracer()
    get_setup(A, 4, tracer=tr, cache_dir=tmp_path)
    ev = _events(tr)
    assert ("setup_cache", True) in ev
    names = [n for k, n in ev if k == "phase"]
    assert "setup:partition" not in names
    assert "setup:block_build" not in names


def test_no_cache_trace_has_compute_phases_only(A):
    tr = RunTracer()
    get_setup(A, 4, tracer=tr)
    ev = _events(tr)
    assert all(k != "setup_cache" for k, _ in ev)
    names = [n for k, n in ev if k == "phase"]
    assert names == ["setup:partition", "setup:block_build"]


def test_traceagg_counts_hits_and_misses(A, tmp_path):
    from repro.analysis.traceagg import format_trace_summary, summarize_trace

    tr = RunTracer()
    get_setup(A, 4, tracer=tr, cache_dir=tmp_path)
    get_setup(A, 4, tracer=tr, cache_dir=tmp_path)
    path = tmp_path / "t.jsonl"
    tr.save_jsonl(path)
    summary = summarize_trace(path)
    assert summary.setup_cache_misses == 1
    assert summary.setup_cache_hits == 1
    assert "setup cache: 1 hit(s), 1 miss(es)" in format_trace_summary(summary)


# ----------------------------------------------------------------------
# end-to-end through the front door
# ----------------------------------------------------------------------
def test_solve_identical_cold_vs_warm(A, tmp_path, monkeypatch):
    monkeypatch.setenv(config.ENV_SETUP_CACHE, str(tmp_path))
    r1 = solve(A, n_parts=4, max_steps=5)
    r2 = solve(A, n_parts=4, max_steps=5)
    assert np.array_equal(r1.x, r2.x)
    assert r1.history.residual_norms == r2.history.residual_norms
    assert r1.comm_cost == r2.comm_cost
    assert list(tmp_path.glob("*.pkl"))             # the cache was used


def test_async_solve_identical_cold_vs_warm(A, tmp_path, monkeypatch):
    """An event-driven run is the same uncached, from a cold cache and
    from a warm one."""
    def run():
        return solve(A, n_parts=4, max_steps=5, runtime="async")
    plain = run()
    monkeypatch.setenv(config.ENV_SETUP_CACHE, str(tmp_path))
    cold, warm = run(), run()
    assert list(tmp_path.glob("*.pkl"))
    for res in (cold, warm):
        assert np.array_equal(plain.x, res.x)
        assert plain.history.residual_norms == res.history.residual_norms
        assert plain.comm_cost == res.comm_cost


def test_solve_matches_uncached_run(A, tmp_path, monkeypatch):
    plain = solve(A, n_parts=4, max_steps=5)
    monkeypatch.setenv(config.ENV_SETUP_CACHE, str(tmp_path))
    solve(A, n_parts=4, max_steps=5)                # populate
    warm = solve(A, n_parts=4, max_steps=5)         # hit
    assert np.array_equal(plain.x, warm.x)
    assert plain.history.residual_norms == warm.history.residual_norms


# ----------------------------------------------------------------------
# in-process cache hygiene (runners LRU + clear hook)
# ----------------------------------------------------------------------
def test_runners_setup_lru_is_bounded():
    from repro.experiments import runners

    runners.clear_run_caches()
    for p in range(2, 2 + runners._SETUP_LRU_MAX + 3):
        runners._problem_and_system("af_5_k101", p, size_scale=0.02)
    assert len(runners._SETUP_LRU) == runners._SETUP_LRU_MAX
    runners.clear_run_caches()
    assert len(runners._SETUP_LRU) == 0


def test_run_method_results_survive_cache_round_trip(tmp_path, monkeypatch):
    from repro.experiments.runners import clear_run_caches, run_method

    monkeypatch.setenv(config.ENV_SETUP_CACHE, str(tmp_path))
    clear_run_caches()
    r1 = run_method("af_5_k101", "distributed-southwell", 8,
                    size_scale=0.05, max_steps=5)
    clear_run_caches()                              # force disk round trip
    r2 = run_method("af_5_k101", "distributed-southwell", 8,
                    size_scale=0.05, max_steps=5)
    assert np.array_equal(r1.x, r2.x)
    clear_run_caches()
