"""Tests for the process-pool sweep runner and its on-disk cache.

The sweep runner must be a pure optimisation: identical results to the
serial ``run_method`` path, whether they come from the pool, the inline
fallback, or the cache.  Pool creation is environment-dependent
(sandboxes commonly forbid the required semaphores), so the tests that
exercise parallel dispatch tolerate the documented inline degradation —
the *results* contract is unconditional.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.parallel import (
    SweepTask,
    code_digest,
    default_cache_dir,
    run_sweep,
    task_key,
)
from repro.experiments.runners import METHODS, run_method, suite_runs

#: smallest suite problem configuration that still has real couplings
_PROB = dict(problem="af_5_k101", n_procs=6, size_scale=0.03,
             max_steps=8, seed=0)


def _task(method, **over):
    cfg = {**_PROB, **over}
    return SweepTask(cfg["problem"], method, cfg["n_procs"],
                     cfg["size_scale"], cfg["max_steps"], cfg["seed"])


def _assert_same_result(a, b):
    assert np.array_equal(np.asarray(a.history.residual_norms),
                          np.asarray(b.history.residual_norms))
    assert a.comm_cost == b.comm_cost
    assert a.solve_comm == b.solve_comm
    assert a.residual_comm == b.residual_comm
    assert a.relaxations == b.relaxations
    np.testing.assert_array_equal(a.x, b.x)


# ----------------------------------------------------------------------
# correctness: sweep == serial, regardless of execution strategy
# ----------------------------------------------------------------------
def test_sweep_matches_serial_run_method(tmp_path):
    tasks = [_task(m) for m in METHODS]
    swept = run_sweep(tasks, workers=0, cache_dir=tmp_path)
    for task, res in zip(tasks, swept):
        ref = run_method(task.problem, task.method, task.n_procs,
                         task.size_scale, task.max_steps, task.seed)
        _assert_same_result(ref, res)


def test_sweep_with_pool_matches_serial(tmp_path):
    """Parallel dispatch (or its inline fallback) returns the same
    results in the same order."""
    tasks = [_task(m) for m in METHODS]
    swept = run_sweep(tasks, workers=2, cache_dir=tmp_path,
                      use_cache=False)
    for task, res in zip(tasks, swept):
        ref = run_method(task.problem, task.method, task.n_procs,
                         task.size_scale, task.max_steps, task.seed)
        _assert_same_result(ref, res)


# ----------------------------------------------------------------------
# the on-disk cache
# ----------------------------------------------------------------------
def test_cache_hit_skips_recompute(tmp_path, monkeypatch):
    task = _task("distributed-southwell")
    first = run_sweep([task], workers=0, cache_dir=tmp_path)[0]
    assert list(tmp_path.glob("*.pkl")), "no cache entry written"

    import repro.experiments.parallel as par

    def boom(_):  # pragma: no cover - must not be reached
        raise AssertionError("cache miss: task was recomputed")

    monkeypatch.setattr(par, "_run_task", boom)
    again = par.run_sweep([task], workers=0, cache_dir=tmp_path)[0]
    _assert_same_result(first, again)


def test_task_key_isolates_parameters_and_code(monkeypatch):
    # pin the baseline mode: the suite itself may run under a forced
    # REPRO_RUNTIME, and the whole point here is that changing the knob
    # changes the key
    monkeypatch.delenv("REPRO_RUNTIME", raising=False)
    base = task_key(_task("distributed-southwell"))
    assert base != task_key(_task("block-jacobi"))
    assert base != task_key(_task("distributed-southwell", n_procs=7))
    assert base != task_key(_task("distributed-southwell", seed=1))
    assert base != task_key(_task("distributed-southwell", max_steps=9))
    # the runtime knob is part of the key: results produced
    # under a forced mode never masquerade as the default's
    monkeypatch.setenv("REPRO_RUNTIME", "async")
    assert base != task_key(_task("distributed-southwell"))
    assert code_digest()  # stable, non-empty


def test_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "xyz"))
    assert default_cache_dir() == tmp_path / "xyz"
    monkeypatch.delenv("REPRO_SWEEP_CACHE")
    assert default_cache_dir().name == "repro-southwell"


def test_corrupt_cache_entry_is_recomputed(tmp_path):
    task = _task("block-jacobi")
    key = task_key(task)
    (tmp_path / f"{key}.pkl").write_bytes(b"not a pickle")
    res = run_sweep([task], workers=0, cache_dir=tmp_path)[0]
    ref = run_method(task.problem, task.method, task.n_procs,
                     task.size_scale, task.max_steps, task.seed)
    _assert_same_result(ref, res)


# ----------------------------------------------------------------------
# suite_runs wiring
# ----------------------------------------------------------------------
def test_suite_runs_workers_param(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    serial = suite_runs((_PROB["problem"],), _PROB["n_procs"],
                        _PROB["size_scale"], _PROB["max_steps"],
                        _PROB["seed"], workers=0)
    swept = suite_runs((_PROB["problem"],), _PROB["n_procs"],
                       _PROB["size_scale"], _PROB["max_steps"],
                       _PROB["seed"], workers=2)
    assert [r.name for r in serial] == [r.name for r in swept]
    for m in METHODS:
        _assert_same_result(serial[0].results[m], swept[0].results[m])


def test_suite_runs_reads_workers_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
    monkeypatch.setenv("REPRO_WORKERS", "2")
    swept = suite_runs((_PROB["problem"],), _PROB["n_procs"],
                       _PROB["size_scale"], _PROB["max_steps"],
                       _PROB["seed"])
    ref = run_method(_PROB["problem"], "block-jacobi", _PROB["n_procs"],
                     _PROB["size_scale"], _PROB["max_steps"], _PROB["seed"])
    _assert_same_result(ref, swept[0].results["block-jacobi"])
    monkeypatch.setenv("REPRO_WORKERS", "junk")
    assert suite_runs((_PROB["problem"],), _PROB["n_procs"],
                      _PROB["size_scale"], _PROB["max_steps"],
                      _PROB["seed"])  # junk env degrades to serial


def test_sweep_task_accepts_tuples(tmp_path):
    res = run_sweep([(_PROB["problem"], "block-jacobi", _PROB["n_procs"],
                      _PROB["size_scale"], _PROB["max_steps"],
                      _PROB["seed"])], workers=0, cache_dir=tmp_path)
    assert res[0].method == "block-jacobi"
