"""Fault-injection plane tests (DESIGN.md §5.11).

The resilience contract pinned here:

- a **null plan** (every rate zero, no schedules) compiles to disabled
  machinery: runs are bit-identical to runs with no plan at all, and to
  the recorded per-message plane's (property-tested over plan seeds and
  repair knobs);
- a **seeded lossy plan** reproduces the recorded per-message plane's
  histories, injected-fault counts and :class:`MessageStats` bit for bit
  (``tests/plane_pins.py``) — the fate stream is a pure function of the
  plan, never of runtime representation;
- epoch delays are gone: a plan asking for one raises, while plan files
  carrying the neutral legacy keys still load;
- accounting: drops are charged as sends but **never** as receives;
  duplicates charge two receives;
- DS's repair/retry hardening keeps it converging under 5% and 20%
  message loss, while PS — whose criterion needs exact neighbor norms —
  stops by *reporting* deadlock (``degraded``), never by hanging;
- the ``solve()`` front door's ``RunConfig.faults``/``strict`` fields
  (the only way to attach a plan: no environment variable does), the
  removal of the legacy wrappers, the ``SolveResult`` schema, and trace
  reconciliation of the ``fault:*`` / ``repair:*`` event categories.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config as _config
from repro.api import RunConfig, solve
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.faults import (
    DegradedRunError,
    EdgeFaults,
    FaultPlan,
    FaultRuntime,
    SlowdownWindow,
    StallWindow,
)
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import symmetric_unit_diagonal_scale

from tests.oracles import edge_id
from tests.plane_pins import PINS, run_fingerprint

_CLASSES = {"block-jacobi": BlockJacobi,
            "parallel-southwell": ParallelSouthwell,
            "distributed-southwell": DistributedSouthwell}

LOSSY_PLAN = FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=7)


@pytest.fixture(scope="module")
def small_setup():
    A = symmetric_unit_diagonal_scale(poisson_2d(20)).matrix
    part = partition(A, 8, seed=3)
    return A, build_block_system(A, part)


@pytest.fixture(scope="module")
def loss_setup():
    """The acceptance problem: Poisson, P=64."""
    A = symmetric_unit_diagonal_scale(poisson_2d(40)).matrix
    part = partition(A, 64, seed=3)
    return A, build_block_system(A, part)


def _run(system, n, cls, plan, steps=15, **kwargs):
    m = cls(system, faults=plan, **kwargs)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, n)
    hist = m.run(x0, np.zeros(n), max_steps=steps)
    return m, hist


def _digest(hist) -> str:
    norms = np.asarray(hist.residual_norms, dtype=np.float64)
    relax = np.asarray(hist.relaxations, dtype=np.int64)
    return hashlib.sha256(norms.tobytes() + relax.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# null plans are bit-identical to no plan (the live flat run's, and the
# recorded per-message plane's)
# ----------------------------------------------------------------------
_BASELINE: dict[str, str] = {"pinned": PINS["faultless-ds-digest"]}


def _baseline_digest(small_setup, mode: str) -> str:
    if mode not in _BASELINE:
        A, system = small_setup
        _, hist = _run(system, A.n_rows, DistributedSouthwell, None)
        _BASELINE[mode] = _digest(hist)
    return _BASELINE[mode]


@pytest.mark.parametrize("mode", ["pinned", "flat"])
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       resend_after=st.integers(1, 10),
       retry_budget=st.integers(0, 50),
       patience=st.integers(1, 20))
def test_null_plan_bit_identical_to_faultless(small_setup, mode, seed,
                                              resend_after, retry_budget,
                                              patience):
    """Any plan with zero rates runs exactly like no plan at all."""
    plan = FaultPlan(seed=seed, resend_after=resend_after,
                     retry_budget=retry_budget,
                     deadlock_patience=patience)
    assert plan.is_null
    A, system = small_setup
    _, hist = _run(system, A.n_rows, DistributedSouthwell, plan)
    assert _digest(hist) == _baseline_digest(small_setup, mode)


# ----------------------------------------------------------------------
# seeded lossy plans: the flat plane reproduces the recorded
# per-message plane exactly
# ----------------------------------------------------------------------
@pytest.mark.parametrize("method", sorted(_CLASSES))
def test_lossy_plan_object_vs_flat_identical(small_setup, method):
    """Histories, stats and injected-fault counts all match bitwise.

    This also pins the drain-path accounting: dropped messages are
    charged as sends but never as receives, so the per-step
    ``MessageStats`` equal the recorded ones under a nonzero fault plan.
    """
    A, system = small_setup
    m_f, h_f = _run(system, A.n_rows, _CLASSES[method], LOSSY_PLAN)
    pin = PINS[f"lossy:{method}"]
    assert dict(m_f._faults.injected) == pin["injected"]
    assert {**run_fingerprint(m_f, h_f), "injected": pin["injected"]} == pin


def test_stale_plan_reproduces_the_recorded_run(small_setup):
    """Ghost-stale and reorder fates (no loss): DS skips the torn z
    overwrites exactly as the recorded per-message run did."""
    A, system = small_setup
    plan = FaultPlan.uniform(reorder=0.2, ghost_stale=0.3, seed=5)
    m, h = _run(system, A.n_rows, DistributedSouthwell, plan)
    pin = PINS["stale:distributed-southwell"]
    assert {**run_fingerprint(m, h), "injected": dict(m._faults.injected)} \
        == pin


def test_same_plan_is_deterministic(small_setup):
    A, system = small_setup
    _, h1 = _run(system, A.n_rows, DistributedSouthwell, LOSSY_PLAN)
    _, h2 = _run(system, A.n_rows, DistributedSouthwell, LOSSY_PLAN)
    assert _digest(h1) == _digest(h2)


def test_drops_charged_as_sends_not_receives(small_setup):
    """With drop-only faults, receives == sends − drops, exactly."""
    A, system = small_setup
    plan = FaultPlan.uniform(drop=0.15, seed=5)
    m, _ = _run(system, A.n_rows, BlockJacobi, plan)
    stats = m.engine.stats
    drops = m._faults.injected.get("drop:solve", 0)
    assert drops > 0
    assert stats.total_receives == stats.total_messages - drops


def test_duplicates_charge_two_receives(small_setup):
    A, system = small_setup
    plan = FaultPlan.uniform(duplicate=0.2, seed=5)
    m, _ = _run(system, A.n_rows, BlockJacobi, plan)
    stats = m.engine.stats
    dups = m._faults.injected.get("duplicate:solve", 0)
    assert dups > 0
    assert stats.total_receives == stats.total_messages + dups


# ----------------------------------------------------------------------
# plan serialization
# ----------------------------------------------------------------------
_rate = st.floats(0.0, 1.0, allow_nan=False)


@settings(max_examples=25, deadline=None)
@given(drop=_rate, duplicate=_rate, reorder=_rate, ghost_stale=_rate,
       seed=st.integers(0, 2**31 - 1))
def test_plan_json_roundtrip(drop, duplicate, reorder, ghost_stale, seed):
    plan = FaultPlan.uniform(drop=drop, duplicate=duplicate,
                             reorder=reorder, ghost_stale=ghost_stale,
                             seed=seed,
                             stalls=(StallWindow(rank=1, start=2, stop=5),),
                             slowdowns=(SlowdownWindow(rank=0, start=1,
                                                       stop=3,
                                                       factor=2.5),))
    doc = plan.to_json()
    assert json.loads(doc)["schema"] == "repro.faultplan/v1"
    assert FaultPlan.from_json(doc) == plan


def test_plan_from_json_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown FaultPlan fields"):
        FaultPlan.from_json('{"seed": 1, "bogus": 2}')


# ----------------------------------------------------------------------
# resilience semantics: DS converges under loss, PS reports deadlock
# ----------------------------------------------------------------------
@pytest.mark.parametrize("drop", [0.05, 0.2])
def test_ds_converges_under_loss(loss_setup, drop):
    A, system = loss_setup
    plan = FaultPlan.uniform(drop=drop, seed=11)
    m = DistributedSouthwell(system, faults=plan)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    x0 /= np.linalg.norm(A.matvec(x0))
    hist = m.run(x0, np.zeros(A.n_rows), max_steps=200,
                 target_norm=0.1, stop_at_target=True)
    assert not m.degraded
    assert hist.final_norm < 0.1          # ‖r⁰‖ = 1: converged under loss
    assert m.repairs_sent > 0             # the hardening did real work


def test_ps_deadlock_detected_not_hung(loss_setup):
    """PS under loss stops early and *says why* instead of spinning."""
    A, system = loss_setup
    plan = FaultPlan.uniform(drop=0.2, seed=11)
    m = ParallelSouthwell(system, faults=plan)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    x0 /= np.linalg.norm(A.matvec(x0))
    m.run(x0, np.zeros(A.n_rows), max_steps=400, target_norm=1e-8,
          stop_at_target=True)
    assert m.degraded
    assert m.steps_taken < 400            # early, bounded stop
    assert "deadlock" in m.degraded_reason or "no active" \
        in m.degraded_reason


def test_strict_policy_raises_on_degradation(loss_setup):
    A, _ = loss_setup
    plan = FaultPlan.uniform(drop=0.2, seed=11)
    cfg = RunConfig(n_parts=64, max_steps=400, target_norm=1e-8,
                    stop_at_target=True, faults=plan, strict=True)
    with pytest.raises(DegradedRunError):
        solve(A, method="parallel-southwell", config=cfg)
    # same run without strict returns the diagnosis instead
    res = solve(A, method="parallel-southwell",
                config=RunConfig(n_parts=64, max_steps=400,
                                 target_norm=1e-8, stop_at_target=True,
                                 faults=plan))
    assert res.degraded and res.degraded_reason


def test_strict_policy_raises_on_async_degradation(loss_setup):
    """PS under loss degrades on the event plane too, and ``strict``
    turns that into a raised :class:`DegradedRunError`."""
    A, _ = loss_setup
    cfg = RunConfig(n_parts=64, max_steps=400, target_norm=1e-8,
                    stop_at_target=True, runtime="async",
                    faults=FaultPlan.uniform(drop=0.2, seed=11))
    with pytest.raises(DegradedRunError):
        solve(A, method="parallel-southwell",
              config=dataclasses.replace(cfg, strict=True))
    res = solve(A, method="parallel-southwell", config=cfg)
    assert res.degraded and res.degraded_reason


# ----------------------------------------------------------------------
# stall / slowdown / delay schedules
# ----------------------------------------------------------------------
def test_stall_schedule_skips_relaxations(small_setup):
    A, system = small_setup
    plan = FaultPlan(seed=3, stalls=(StallWindow(rank=0, start=1, stop=6),))
    base, _ = _run(system, A.n_rows, BlockJacobi, None, steps=10)
    m, hist = _run(system, A.n_rows, BlockJacobi, plan, steps=10)
    # rank 0 sat out 5 of its 10 relaxations (row-weighted counter)
    assert m.total_relaxations < base.total_relaxations
    assert m._faults.injected["stall"] == 5
    # and exactly as on the recorded per-message plane
    pin = PINS["stall:block-jacobi"]
    assert {**run_fingerprint(m, hist), "injected": {"stall": 5}} == pin


def test_slowdown_schedule_stretches_time(small_setup):
    A, system = small_setup
    # factor = fraction of full speed; 1e-3 makes rank 0 a straggler
    # whose stretched compute dominates the lockstep step time
    slow = FaultPlan(seed=3, slowdowns=(SlowdownWindow(rank=0, start=1,
                                                       stop=11,
                                                       factor=1e-3),))
    m_base, h_base = _run(system, A.n_rows, BlockJacobi, None,
                          steps=10)
    m_slow, h_slow = _run(system, A.n_rows, BlockJacobi, slow,
                          steps=10)
    # same numerics (slowdowns only bend the clock) but more elapsed time
    assert _digest(h_base) == _digest(h_slow)
    assert (m_slow.engine.stats.elapsed_time()
            > 2.0 * m_base.engine.stats.elapsed_time())


def test_delay_plan_is_rejected():
    """Epoch delays are gone (late delivery is ``AsyncConfig.latency``
    under ``runtime="async"``): a nonzero ``delay`` or a ``max_delay``
    other than 1 raises a ValueError naming the field, in code and in a
    plan file; the neutral legacy keys an old ``to_json`` wrote load."""
    with pytest.raises(ValueError, match="^delay must be 0"):
        EdgeFaults(delay=0.3)
    with pytest.raises(ValueError, match="^max_delay must be 1"):
        EdgeFaults(max_delay=3)
    with pytest.raises(ValueError, match="^delay must be 0"):
        FaultPlan.from_json('{"seed": 1, "solve": {"delay": 0.5}}')
    with pytest.raises(ValueError, match="^max_delay must be 1"):
        FaultPlan.from_json('{"residual": {"max_delay": 2}}')
    legacy = ('{"schema": "repro.faultplan/v1", "seed": 3, "solve": '
              '{"drop": 0.1, "duplicate": 0.0, "reorder": 0.0, '
              '"delay": 0.0, "max_delay": 1, "ghost_stale": 0.0}}')
    plan = FaultPlan.from_json(legacy)
    assert plan == FaultPlan(seed=3, solve=EdgeFaults(drop=0.1))
    assert "delay" not in plan.to_json()


# ----------------------------------------------------------------------
# solve() front door: RunConfig.faults is the only source of a plan
# ----------------------------------------------------------------------
def test_faults_spec_precedence(monkeypatch, tmp_path, small_setup):
    """An explicit ``RunConfig.faults`` plan is the whole spec: a stray
    ``REPRO_FAULTS`` plan file attaches nothing, and ``repro config``
    does not list it."""
    A, _ = small_setup
    path = tmp_path / "plan.json"
    path.write_text(FaultPlan.uniform(drop=0.1, seed=7).to_json())
    monkeypatch.setenv("REPRO_FAULTS", str(path))             # ignored
    assert solve(A, n_parts=8, max_steps=10).faults_injected is None
    res = solve(A, n_parts=8, max_steps=10,
                faults=FaultPlan.from_file(path))
    assert sum(res.faults_injected.values()) > 0
    assert "REPRO_FAULTS" not in _config.describe()


def test_solveresult_v4_schema(small_setup):
    A, _ = small_setup
    res = solve(A, n_parts=8, max_steps=10,
                faults=FaultPlan.uniform(drop=0.1, seed=7))
    doc = res.to_dict()
    assert doc["schema"] == "repro.solveresult/v5"
    assert doc["faults_injected"] == res.faults_injected
    assert doc["degraded"] is False
    assert doc["repairs"] == res.repairs
    json.dumps(doc)                       # fully JSON-able, plan included


def test_removed_wrappers_are_gone():
    """v2.0: ``solve()`` is the only entry point — the deprecated
    per-method wrappers must be absent from both API surfaces."""
    import repro
    import repro.api

    for name in ("run_block_method", "solve_block_jacobi",
                 "solve_parallel_southwell", "solve_distributed_southwell",
                 "_deprecated", "_cfg_kwargs"):
        assert not hasattr(repro.api, name), name
        assert not hasattr(repro, name), name
        assert name not in repro.api.__all__
        assert name not in repro.__all__


# ----------------------------------------------------------------------
# trace integration
# ----------------------------------------------------------------------
def test_trace_reconciles_fault_and_repair_events(small_setup, tmp_path):
    from repro.analysis.traceagg import summarize_trace

    A, _ = small_setup
    path = tmp_path / "faulted.trace.jsonl"
    res = solve(A, n_parts=8, max_steps=15, faults=LOSSY_PLAN,
                trace=str(path))
    s = summarize_trace(path)
    assert s.reconciles()
    assert s.fault_counts == res.faults_injected
    assert int(s.repair_matrix.sum()) == res.repairs


@pytest.mark.parametrize("plan", [None, LOSSY_PLAN], ids=["clean", "lossy"])
def test_async_trace_reconciles(small_setup, tmp_path, plan):
    """A traced event-driven run writes its trace file, which reconciles
    with its stats, fault counts and repairs; its result document is
    JSON-able with the plan attached."""
    from repro.analysis.traceagg import summarize_trace

    A, _ = small_setup
    path = tmp_path / "async.trace.jsonl"
    res = solve(A, n_parts=8, max_steps=15, faults=plan, trace=str(path),
                runtime="async")
    assert res.trace_path == str(path)
    s = summarize_trace(path)
    assert s.reconciles()
    assert s.fault_counts == (res.faults_injected or {})
    assert int(s.repair_matrix.sum()) == res.repairs
    json.dumps(res.to_dict())


def test_trace_reconciles_without_faults(small_setup, tmp_path):
    from repro.analysis.traceagg import summarize_trace

    A, _ = small_setup
    path = tmp_path / "clean.trace.jsonl"
    solve(A, n_parts=8, max_steps=10, trace=str(path))
    s = summarize_trace(path)
    assert s.reconciles()
    assert s.fault_counts == {}


# ----------------------------------------------------------------------
# fate-stream unit properties
# ----------------------------------------------------------------------
def test_fate_stream_is_stateless_and_seeded():
    from repro.runtime import ParallelEngine

    def bound(seed):
        fr = FaultRuntime(FaultPlan.uniform(drop=0.3, duplicate=0.1,
                                            seed=seed), 8)
        eng = ParallelEngine(8)
        eng.faults = fr
        eng.configure_flat([(p, q, 1, 0) for p in range(8)
                            for q in range(8) if p != q])
        return fr, eng.flat

    (a, plane), (b, _), (other, _) = bound(42), bound(42), bound(43)
    s12 = np.array([2 * edge_id(plane, 1, 2)])
    for _ in range(50):
        assert a.fates_flat(s12).tolist() == b.fates_flat(s12).tolist()
    # different seeds decorrelate (not a hard guarantee per message, but
    # 200 draws agreeing would mean the seed is ignored)
    s34 = np.array([2 * edge_id(plane, 3, 4)])
    draws_a = [a.fates_flat(s34).tolist() for _ in range(200)]
    draws_c = [other.fates_flat(s34).tolist() for _ in range(200)]
    assert draws_a != draws_c
