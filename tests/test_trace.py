"""The run-trace observability layer (DESIGN.md §5.9).

The contract under test, in order of importance:

1. **Zero behavior change**: a traced run produces the bit-identical
   seed-DS convergence digest and byte-identical ``MessageStats`` — the
   live untraced run's and the recorded per-message plane's
   (``tests/plane_pins.py``; the ``[object]`` cases).
2. **Exact reconciliation**: the event-derived per-edge/per-category
   counts equal the stats totals exactly, and the trace holds exactly
   the events the recorded per-message plane's trace held.
3. The sinks round-trip: JSONL → ``summarize_trace`` → the ``repro
   trace`` report; Chrome export is valid ``trace_event`` JSON.
4. The ``solve``/``RunConfig`` front door is behaviour-identical to the
   lockstep plane's direct run and to the recorded per-message plane's.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.api import RunConfig, solve
from repro.cli import main as cli_main
from repro.core import DistributedSouthwell
from repro.core.blockdata import build_block_system
from repro.analysis import format_trace_summary, summarize_trace
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.sparsela import symmetric_unit_diagonal_scale
from repro.trace import (
    NULL_TRACER,
    NullTracer,
    RunTracer,
    Tracer,
    tracer_from_config,
)

from tests.plane_pins import (PINS, _h, history_digest, stats_digest,
                              trace_pin)

# digest of the seed implementation's DS run (tests/test_backends.py)
SEED_DS_DIGEST = \
    "43241919e53e91ddde3be083df3a0b9a477db7d1c4ff8edb6160dd1d6edb0850"


def _seed_ds_problem():
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    part = partition(A, 8, seed=3)
    system = build_block_system(A, part)
    rng = np.random.default_rng(7)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    return A, system, x0


def _run_seed_ds(tracer=None, full=False):
    """The exact seed-DS run of test_backends, optionally traced
    (``full``: the whole-history digest of ``tests/plane_pins.py``
    instead of the seed's norms-and-relaxations one)."""
    A, system, x0 = _seed_ds_problem()
    ds = DistributedSouthwell(system, tracer=tracer)
    hist = ds.run(x0, np.zeros(A.n_rows), max_steps=25)
    if full:
        return history_digest(hist), ds.engine.stats
    norms = np.asarray(hist.residual_norms, dtype=np.float64)
    relax = np.asarray(hist.relaxations, dtype=np.int64)
    digest = hashlib.sha256(norms.tobytes() + relax.tobytes()).hexdigest()
    return digest, ds.engine.stats


def _stats_fingerprint(stats):
    """Everything MessageStats counts, snapshot order included."""
    return (stats.total_messages, stats.total_bytes,
            dict(stats.category_msgs), dict(stats.category_bytes),
            [(s.msgs.tolist(), s.nbytes.tolist(), s.recvs.tolist(),
              dict(s.category_msgs), s.time) for s in stats.steps])


# ----------------------------------------------------------------------
# 1. zero behavior change, pinned by the seed digest and by the
#    recorded per-message plane ("object")
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["flat", "object"])
def test_traced_run_reproduces_seed_digest(mode):
    if mode == "flat":
        digest, _ = _run_seed_ds(tracer=RunTracer())
        assert digest == SEED_DS_DIGEST
    else:
        digest, _ = _run_seed_ds(tracer=RunTracer(), full=True)
        assert digest == PINS["trace:distributed-southwell"]["history"]


@pytest.mark.parametrize("mode", ["flat", "object"])
def test_traced_stats_byte_identical_to_untraced(mode):
    d_off, s_off = _run_seed_ds(tracer=None)
    d_on, s_on = _run_seed_ds(tracer=RunTracer())
    assert d_on == d_off
    assert _stats_fingerprint(s_on) == _stats_fingerprint(s_off)
    if mode == "object":
        assert stats_digest(s_on) == PINS["seed-ds-stats"]


def test_null_tracer_is_disabled_and_silent():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    # every hook is a no-op on the base protocol
    NULL_TRACER.relax(0)
    NULL_TRACER.repairs([0], [1])
    NULL_TRACER.phase_begin("relax")
    NULL_TRACER.phase_end("relax")


# ----------------------------------------------------------------------
# 2. exact reconciliation with MessageStats, identical across planes
# ----------------------------------------------------------------------
def _traced_summary(tmp_path, tracer=None):
    tracer = tracer if tracer is not None else RunTracer()
    _, stats = _run_seed_ds(tracer=tracer)
    path = tracer.save_jsonl(tmp_path / "ds.trace.jsonl")
    return summarize_trace(path), stats


@pytest.mark.parametrize("mode", ["flat", "object"])
def test_trace_reconciles_exactly_with_stats(mode, tmp_path):
    tracer = RunTracer()
    s, stats = _traced_summary(tmp_path, tracer)
    if mode == "object":
        # the events are exactly the recorded per-message plane's
        pin = PINS["trace:distributed-southwell"]
        pinned = trace_pin(list(tracer.iter_events()))
        assert pinned == {k: pin[k] for k in ("counts", "events")}
    assert s.reconciles()
    assert s.total_messages == stats.total_messages
    assert s.total_bytes == stats.total_bytes
    assert s.category_messages() == {
        k: v for k, v in stats.category_msgs.items() if v}
    # every read message was traced as a receive
    assert int(s.recv_counts.sum()) == s.total_messages
    assert s.communication_cost() == stats.communication_cost()


def test_both_planes_record_identical_traces():
    """Every method's traced seed-problem run emits exactly the events
    (timing aside) the recorded per-message plane's trace held."""
    from tests.test_runtime_fastpath import _METHOD_CLASSES

    A, system, x0 = _seed_ds_problem()
    for name, cls in _METHOD_CLASSES.items():
        m = cls(system, tracer=RunTracer())
        hist = m.run(x0, np.zeros(A.n_rows), max_steps=25)
        assert {**trace_pin(list(m.tracer.iter_events())),
                "history": history_digest(hist)} == PINS[f"trace:{name}"]


def test_trace_records_phases_and_meta(tmp_path):
    s, _ = _traced_summary(tmp_path)
    assert s.method == "distributed-southwell"
    assert s.n_procs == 8
    # DS has three phases, 25 spans each, all with non-negative time
    assert set(s.phase_times) == {"relax", "apply", "finalize"}
    for name, (spans, total) in s.phase_times.items():
        assert spans == 25, name
        assert total >= 0.0
    rows = s.phase_rows()
    assert abs(sum(r["share"] for r in rows) - 1.0) < 1e-12


# ----------------------------------------------------------------------
# 3. sinks and the CLI summarizer
# ----------------------------------------------------------------------
def test_jsonl_events_are_valid_json_with_schema(tmp_path):
    tracer = RunTracer()
    _run_seed_ds(tracer=tracer)
    path = tracer.save_jsonl(tmp_path / "run.trace.jsonl")
    lines = path.read_text().splitlines()
    head = json.loads(lines[0])
    assert head["ev"] == "meta"
    assert head["schema"] == "repro.trace/v1"
    kinds = {json.loads(line)["ev"] for line in lines}
    assert {"meta", "stats", "step", "phase", "relax", "send",
            "recv"} <= kinds
    # summarizing an event iterable works the same as a path
    events = [json.loads(line) for line in lines]
    assert summarize_trace(events).reconciles()


def test_chrome_sink_is_valid_trace_event_json(tmp_path):
    tracer = RunTracer()
    _run_seed_ds(tracer=tracer)
    path = tracer.save(tmp_path / "run.chrome")   # suffix picks the sink
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    phases = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    assert len(phases) == 75            # 3 phases x 25 steps
    assert len(counters) == 25          # one active-count sample per step
    assert all(e["dur"] >= 0.0 and e["ts"] >= 0.0 for e in phases)
    meta = [e for e in events if e.get("ph") == "M"]
    assert meta and meta[0]["args"]["name"] == "distributed-southwell"


def test_cli_trace_subcommand_summarizes(tmp_path, capsys):
    tracer = RunTracer()
    _run_seed_ds(tracer=tracer)
    path = tracer.save_jsonl(tmp_path / "run.trace.jsonl")
    assert cli_main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "distributed-southwell: P=8 steps=25" in out
    assert "reconciles with MessageStats: yes" in out
    assert "phase times" in out


def test_cli_config_subcommand_lists_knobs(capsys):
    assert cli_main(["config"]) == 0
    out = capsys.readouterr().out
    for var in ("REPRO_RUNTIME", "REPRO_TRACE", "REPRO_SETUP_CACHE",
                "REPRO_FAULTS"):
        assert var in out
    # config-field parameters are not environment knobs
    for var in ("REPRO_ASYNC_LATENCY", "REPRO_ASYNC_SPEED_FACTORS",
                "REPRO_MG_"):
        assert var not in out


def test_cli_solver_trace_flag_and_json(tmp_path, capsys):
    trace_file = tmp_path / "cli.trace.jsonl"
    rc = cli_main(["-n", "4", "-grid_dim", "12", "-sweep_max", "5",
                   "--trace", str(trace_file), "--json",
                   "--runtime", "flat"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "distributed-southwell"
    assert doc["trace_path"] == str(trace_file)
    assert doc["config"]["n_parts"] == 4
    assert len(doc["history"]["residual_norms"]) == 6
    assert summarize_trace(trace_file).reconciles()


# ----------------------------------------------------------------------
# 4. the solve()/RunConfig front door
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["flat", "object"])
def test_solve_runconfig_plane_equivalence(mode):
    A = symmetric_unit_diagonal_scale(poisson_2d(16)).matrix
    base = solve(A, method="distributed-southwell",
                 config=RunConfig(n_parts=8, max_steps=20, seed=3,
                                  runtime="flat"))
    if mode == "object":
        # the front door reproduces the recorded per-message plane's
        pin = PINS["solve-front-door"]
        assert _h(np.asarray(base.history.residual_norms)) == pin["history"]
        assert _h(np.asarray(base.x)) == pin["x"]
        assert [float(v).hex() for v in (base.comm_cost, base.solve_comm,
                                         base.residual_comm)] == pin["comm"]
        mode = "auto"           # the default mode runs the same plane
    cfg = RunConfig(n_parts=8, max_steps=20, seed=3, runtime=mode)
    front = solve(A, method="distributed-southwell", config=cfg)
    np.testing.assert_array_equal(base.history.residual_norms,
                                  front.history.residual_norms)
    assert base.comm_cost == front.comm_cost
    assert base.solve_comm == front.solve_comm
    assert base.residual_comm == front.residual_comm
    np.testing.assert_array_equal(base.x, front.x)
    assert front.config is cfg


def test_solve_overrides_build_config():
    A = symmetric_unit_diagonal_scale(poisson_2d(12)).matrix
    res = solve(A, method="block-jacobi", n_parts=4, max_steps=5, seed=1,
                runtime="flat")
    assert res.config.n_parts == 4
    assert res.config.max_steps == 5
    assert res.parallel_steps == 5


def test_solve_trace_path_writes_file(tmp_path):
    A = symmetric_unit_diagonal_scale(poisson_2d(12)).matrix
    path = tmp_path / "solve.trace.jsonl"
    res = solve(A, method="parallel-southwell", n_parts=4, max_steps=5,
                trace=str(path))
    assert res.trace_path == str(path)
    s = summarize_trace(path)
    assert s.method == "parallel-southwell"
    assert s.reconciles()


def test_solve_rejects_tracer_with_prebuilt_instance():
    A, system, x0 = _seed_ds_problem()
    ds = DistributedSouthwell(system)
    with pytest.raises(ValueError, match="method constructor"):
        solve(A, method=ds, trace=RunTracer())


def test_runconfig_to_dict_is_jsonable():
    cfg = RunConfig(n_parts=8, trace=RunTracer())
    doc = json.loads(json.dumps(cfg.to_dict()))
    assert doc["n_parts"] == 8
    assert doc["trace"] == "RunTracer"
    assert doc["cost_model"]["alpha"] == pytest.approx(2.0e-6)


def test_solve_result_to_dict_is_jsonable():
    A = symmetric_unit_diagonal_scale(poisson_2d(12)).matrix
    res = solve(A, method="block-jacobi", n_parts=4, max_steps=5,
                runtime="flat")
    doc = json.loads(json.dumps(res.to_dict()))
    assert doc["final_norm"] == pytest.approx(res.final_norm)
    assert doc["parallel_steps"] == 5
    assert doc["config"]["n_parts"] == 4
    assert doc["trace_path"] is None
    assert "x" not in doc


def test_run_method_writes_per_run_trace_files(monkeypatch, tmp_path):
    """REPRO_TRACE=<dir> makes the experiment runner write one trace
    file per (uncached) run, named after the task parameters."""
    from repro.experiments.runners import clear_run_caches, run_method

    monkeypatch.setenv("REPRO_TRACE", str(tmp_path))
    clear_run_caches()
    try:
        res = run_method("msdoor", "distributed-southwell", 4,
                         size_scale=0.05, max_steps=5)
        expected = tmp_path / "msdoor-DS-P4-x0.05-s0.trace.jsonl"
        assert res.trace_path == str(expected)
        s = summarize_trace(expected)
        assert s.method == "distributed-southwell"
        assert s.n_procs == 4
        assert s.reconciles()
    finally:
        clear_run_caches()


def test_tracer_from_config_env(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert tracer_from_config() is NULL_TRACER
    monkeypatch.setenv("REPRO_TRACE", "1")
    t = tracer_from_config()
    assert isinstance(t, RunTracer) and t.enabled
    monkeypatch.setenv("REPRO_TRACE", "off")
    assert tracer_from_config() is NULL_TRACER


def test_custom_tracer_protocol_receives_hooks():
    """A user Tracer subclass plugged into solve() sees the run events."""

    class Counting(Tracer):
        enabled = True

        def __init__(self):
            self.relaxes = 0
            self.sends = 0

        def relax(self, p):
            self.relaxes += 1

        def sends_flat(self, plane, sids, category):
            self.sends += int(np.asarray(sids).size)

    A = symmetric_unit_diagonal_scale(poisson_2d(12)).matrix
    counting = Counting()
    res = solve(A, method="block-jacobi", n_parts=4, max_steps=5,
                trace=counting, runtime="flat")
    assert res.trace_path is None       # instances are not auto-saved
    assert counting.relaxes == 4 * 5    # BJ: everyone relaxes every step
    assert counting.sends == res.n_parts * res.comm_cost
