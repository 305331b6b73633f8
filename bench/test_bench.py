"""Tests of the benchmark itself: ``python -m pytest bench -q``.

Not part of tier-1 (``testpaths = ["tests"]``): these check the
benchmark's contract — the shape of ``BENCHMARK.json``, that the code and
the file name the same workloads and metrics, that a ``--smoke`` run
prints every metric, that the exact metrics repeat on one seed and
differ between seeds, and the span / order-statistic / verdict
arithmetic the numbers rest on.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("msgs_per_proc", "model_time_s", "residual_digits")


# ----------------------------------------------------------------------
# BENCHMARK.json
# ----------------------------------------------------------------------
def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in SPEC[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    for n in names:
        assert NAME.match(n) and len(n) <= 64, n
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_run_budget_fits_the_cap():
    # 4 + 22 x workloads runs, each run_seconds of rounds plus a warm-up
    # round, input generation and the front-door child (< 7 s measured)
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * (SPEC["run_seconds"] + 7) <= 3420
    assert SPEC["run_seconds"] == run.parse_args(
        ["--workload", "x"]).seconds


def test_code_and_file_agree():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in SPEC["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in SPEC["per_layer"]] == list(workloads.PER_LAYER)


# ----------------------------------------------------------------------
# smoke runs (functional, not a measurement)
# ----------------------------------------------------------------------
def bench(*args, env=None, cwd=ROOT, script=BENCH_DIR / "run.py"):
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=170,
                          cwd=cwd, env=env)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    return res


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name, tmp_path):
    base = ("--workload", name, "--smoke", "--trace", "0")
    first = result_of(bench(*base, "--seed", "0"))
    assert list(first["metrics"]) == [m[0] for m in workloads.END_TO_END]
    for (mname, unit, *_), m in zip(workloads.END_TO_END,
                                    first["metrics"].values()):
        assert m["unit"] == unit and m["value"] > 0, mname
    # same seed, hostile environment: the REPRO_* knobs are scrubbed, so
    # the exact metrics repeat to the last bit
    env = dict(os.environ, REPRO_TRACE="1", REPRO_RUNTIME="object",
               REPRO_SETUP_CACHE=str(tmp_path / "cache"))
    again = result_of(bench(*base, "--seed", "0", env=env))
    other = result_of(bench(*base, "--seed", "1"))
    for k in EXACT:
        assert again["metrics"][k] == first["metrics"][k], k
        assert other["metrics"][k] != first["metrics"][k], k
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced(name, tmp_path):
    spans_file = tmp_path / "spans.json"
    out_file = tmp_path / "out.json"
    res = result_of(bench("--workload", name, "--smoke", "--trace", "1",
                          "--seed", "0", "--spans", str(spans_file),
                          "--out", str(out_file)))
    assert list(res["metrics"]) == [m[0] for m in workloads.PER_LAYER]
    kind = workloads.WORKLOADS[name].kind
    m = {k: v["value"] for k, v in res["metrics"].items()}
    # each workload stresses what it says, and bypasses what it says
    assert (m["core.steps"] == 0) == (kind == "async")
    assert (m["core.async_exec.turns"] > 0) == (kind == "async")
    assert (m["multigrid.levels"] > 0) == (kind == "mg")
    assert m["partition.partition_s"] > 0
    assert m["core.ps_over_ds_msgs"] > 0
    # self times sum to the round span, from the span file alone
    doc = json.loads(spans_file.read_text())
    spans = harness.Spans()
    spans.names = [doc["names"][k] for k in doc["name"]]
    spans.parents, spans.t0, spans.t1 = doc["parent"], doc["t0"], doc["t1"]
    roots = [i for i, n in enumerate(spans.names) if n == "round"]
    assert len(roots) == 3          # warm-up + two timed
    for root in roots:
        own = spans.self_times(root)
        assert sum(own.values()) == pytest.approx(spans.duration(root),
                                                  rel=0.02)
    shares = json.loads(out_file.read_text())["layer_shares"]
    assert shares["self_time_closure_max_err"] <= 0.02


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------
def test_no_result_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "mg_vcycle_ds", "--seed", "0", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src/repro" in proc.stderr.replace(os.sep, "/")


def test_too_few_rounds_is_not_reported():
    proc = bench("--workload", "mg_vcycle_ds", "--seed", "0", "--seconds",
                 "2", "--trace", "0")
    assert proc.returncode == 3
    assert proc.stdout.strip() == ""
    assert "timed rounds" in proc.stderr


def test_unknown_workload_and_late_pin():
    proc = bench("--workload", "nope", "--smoke")
    assert proc.returncode == 2 and proc.stdout.strip() == ""
    assert "numpy" in sys.modules        # imported above, via workloads
    with pytest.raises(SystemExit):
        run.pin_environment()


def test_failed_check_fails_the_round():
    wl = workloads.WORKLOADS["lockstep_ds_p256"]
    inp = workloads.make_inputs(wl, 0, smoke=True)
    spans = harness.Spans()
    rnd = workloads.run_round(wl, inp, True, spans, traced=False)
    assert workloads.check_round(wl, inp, True, rnd, rnd.exact) == []
    wrong = dict(rnd.exact, msgs=rnd.exact["msgs"] + 1)
    assert "msgs" in workloads.check_round(wl, inp, True, rnd, wrong)[0]
    rnd.runner_norm *= 1.0 + 1e-6
    assert "reports" in workloads.check_round(wl, inp, True, rnd,
                                              rnd.exact)[0]
    door = dict(rnd.exact, x_sha256="0" * 64)
    assert workloads.check_front_door(rnd.exact, door)


def test_leak_guard_sees_a_thread():
    import threading

    guard = harness.LeakGuard()
    assert guard.leaks() == []
    stop = threading.Event()
    t = threading.Thread(target=stop.wait, name="leaky")
    t.start()
    try:
        assert any("leaky" in msg for msg in guard.leaks())
    finally:
        stop.set()
        t.join(timeout=10)
    assert not t.is_alive()


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def test_quartiles_follow_statistics_quantiles():
    import statistics

    vals = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 9.7]
    q1, med, q3 = harness.quartiles(vals)
    assert (q1, q3) == tuple(statistics.quantiles(vals, n=4)[::2])
    assert med == statistics.median(vals)
    assert harness.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert harness.spread([5.0, 5.0, 5.0]) == 0.0
    assert harness.spread(vals) == pytest.approx((q3 - q1) / med)
    assert harness.summary(vals)["n"] == 10
    with pytest.raises(ValueError):
        harness.quartiles([])


def test_span_self_times():
    s = harness.Spans()
    with s.span("root") as root:
        with s.span("a"):
            with s.span("b"):
                pass
        with s.span("a"):
            pass
    # fixed clock: root 0-10, a 1-5 (b 2-4), a 6-9
    s.t0, s.t1 = [0.0, 1.0, 2.0, 6.0], [10.0, 5.0, 4.0, 9.0]
    own = s.self_times(root)
    assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0}
    dur, self_by_name, count = s.totals(root)
    assert dur == {"root": 10.0, "a": 7.0, "b": 2.0}
    assert self_by_name == {"root": 3.0, "a": 5.0, "b": 2.0}
    assert count == {"root": 1, "a": 2, "b": 1}
    assert sum(own.values()) == s.duration(root)
    # a child that escapes its parent is clipped, and the sum shows it
    s.t1[3] = 12.0
    assert s.self_times(root)[0] == 2.0
    assert sum(s.self_times(root).values()) == 12.0 != s.duration(root)
    assert s.subtree(1) == [1, 2]


def test_compare_verdicts():
    v = compare.verdict
    a = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert v(a, [1.02, 1.03, 1.01, 1.02, 1.04], "lower", 0.10)[0] == "agree"
    assert v(a, [1.20, 1.21, 1.19, 1.20, 1.22], "lower", 0.10)[0] == "worse"
    assert v(a, [0.80, 0.81, 0.79, 0.80, 0.82], "lower", 0.10)[0] == "agree"
    # higher-is-better flips the direction
    assert v(a, [0.80, 0.81, 0.79, 0.80, 0.82], "higher", 0.10)[0] == "worse"
    noisy = [1.0, 1.4, 0.7, 1.2, 0.9]
    assert v(a, noisy, "lower", 0.10)[0] == "unresolved"
    # ... unless every B run beats every A run
    assert v([2.0, 2.5, 1.9, 3.0, 2.2], noisy, "lower", 0.10)[0] == "agree"
    verdict, change = v(a, [1.05] * 5, "lower", 0.10)
    assert verdict == "agree" and change == pytest.approx(0.05)
    # failed rounds: bound 0, any rise is worse
    assert v([0.0], [0.0], "lower", 0.0)[0] == "agree"
    assert v([0.0], [1.0], "lower", 0.0)[0] == "worse"


def test_compare_cli(tmp_path, capsys):
    def write(d, seed, setup):
        d.mkdir(exist_ok=True)
        metrics = {m[0]: {"value": 1.0, "unit": m[1]}
                   for m in workloads.END_TO_END}
        metrics["setup_s"]["value"] = setup
        (d / f"r{seed}.json").write_text(json.dumps({
            "workload": "setup_p1024", "seed": seed, "trace": 0,
            "smoke": False, "failed": 0, "metrics": metrics}))

    for seed in range(5):
        write(tmp_path / "a", seed, 1.00 + seed / 1000)
        write(tmp_path / "same", seed, 1.01 + seed / 1000)
        write(tmp_path / "slow", seed, 1.50 + seed / 1000)
    a = str(tmp_path / "a")
    assert compare.main(["--a", a, "--b", str(tmp_path / "same")]) == 0
    out = capsys.readouterr().out
    assert "7 pairs: 7 agree, 0 worse, 0 unresolved" in out
    assert compare.main(["--a", a, "--b", str(tmp_path / "slow")]) == 1
    assert "worse" in capsys.readouterr().out
    base = tmp_path / "BASELINE.json"
    assert compare.main(["--a", a, "--record", str(base)]) == 0
    doc = json.loads(base.read_text())
    assert doc["workloads"]["setup_p1024"]["metrics"]["setup_s"][
        "median"] == pytest.approx(1.002)
