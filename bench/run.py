#!/usr/bin/env python3
"""The repo's benchmark: one workload, one seed, one pass per invocation.

    python3 bench/run.py --workload lockstep_ds_p256 --seed 0 \
        --seconds 25 --trace 0

A closed loop with one client in one process.  Inputs are generated once
from ``--seed``; then *rounds* of (fresh set-up, solve to a fixed work
budget) repeat for ``--seconds``, and every timing reported is the
fastest of the timed rounds (one warm-up round is discarded; the median
and quartiles go to stderr and ``--out``).  The last
line of standard output is one JSON object: with ``--trace 0`` the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of a traced
pass (spans around every call into a layer, plus the side probes).

Any failed output check, a run too short to time 5 rounds, a leaked
thread / child / shared-memory segment, or a missing ``src/repro`` ends
the run with a non-zero exit code and no result line.  bench/README.md
has the metric definitions, the timing rule and the reasons behind both.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: fewer timed rounds than this and nothing is reported.  A default run
#: times 13-17 rounds on a quiet box; the box's busy spells (bench/README.md)
#: stretch a round by up to 1.7x, and a run that merely got slower must
#: still report
MIN_ROUNDS = 5

#: calibration-probe max/min above this gets a warning on stderr
NOISY_CALIB = 1.25

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread and no ``REPRO_*`` knob, set before numpy loads.

    The thread pools read their variables once at import, so pinning
    after numpy is imported would silently do nothing — that case is an
    error, not a warning.  Scrubbing ``REPRO_*`` means the benchmark
    measures what users get by default (set-up cache off, flat plane,
    scalar scheduler, no trace) whatever the caller's shell exports.
    """
    if "numpy" in sys.modules:
        raise SystemExit("bench: numpy was imported before the thread "
                         "pins could be set")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]


def fail(code: int, *lines: str) -> int:
    for line in lines:
        print(f"bench: {line}", file=sys.stderr)
    return code


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="how long the timed rounds run (default 25)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1 = traced pass, per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, two timed rounds: a functional "
                         "check, not a measurement")
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the full result document here "
                         "(bench/compare.py reads these)")
    ap.add_argument("--spans", type=Path, default=None,
                    help="span file of a traced pass (default: under "
                         "bench/out/)")
    ap.add_argument("--front-door", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# the fresh child: the one solve() call a user would write
# ----------------------------------------------------------------------
def front_door_main(wl, args) -> int:
    """Generate the inputs, wait for the step count on stdin, call
    ``solve()`` once, report what came back and this process's peak RSS
    (``SolveResult.peak_rss_bytes``, i.e. ``ru_maxrss``)."""
    import workloads as W

    inp = W.make_inputs(wl, args.seed, args.smoke)
    steps = int(sys.stdin.readline())
    t0 = time.perf_counter()
    res = W.front_door(wl, inp, args.smoke, steps)
    wall = time.perf_counter() - t0
    print(json.dumps({"exact": W.front_door_exact(wl, res),
                      "peak_rss_mb": res.peak_rss_bytes / 2 ** 20,
                      "wall_s": wall}))
    return 0


def spawn_front_door_child(args) -> subprocess.Popen:
    """Start the fresh child *before* this process grows.

    A forked child's ``ru_maxrss`` starts at its parent's resident size
    at fork time, so a child spawned after the rounds would report the
    benchmark's own footprint (several hundred MB of round garbage), not
    the program's.  Spawned now, it inherits a bare interpreter with the
    imports done — less than its own imports reach anyway.  It builds its
    inputs and then blocks on stdin, using no processor while rounds are
    timed, until :func:`finish_front_door_child` sends the step count.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--front-door"]
    if args.smoke:
        cmd.append("--smoke")
    return subprocess.Popen(cmd, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT)


def finish_front_door_child(child: subprocess.Popen, steps: int) -> dict:
    out, err = child.communicate(f"{steps}\n", timeout=150)
    if child.returncode != 0:
        raise RuntimeError(f"front-door child exited {child.returncode}:\n"
                           f"{err}")
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# per-layer metrics from the traced rounds' spans
# ----------------------------------------------------------------------
def _percentile(sorted_vals, q: float) -> float:
    if not sorted_vals:
        return 0.0
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


def layer_timings(kind: str, spans, traced_rounds) -> tuple[dict, dict]:
    """``(per-layer timing metrics, layer shares)`` of the traced rounds.

    Each per-round number is a total over the round's spans of one name;
    the metric is its fastest traced round (counts repeat exactly, so
    their minimum is their value).  Step and V-cycle durations are
    pooled over all traced rounds before taking percentiles, since one
    round has only a few hundred of them.  Shares are medians over the
    traced rounds of each round's own split.
    """
    import harness as H

    per_round: dict[str, list[float]] = {}
    own_round: dict[str, list[float]] = {}
    setup_share, solve_share, closure = [], [], []
    steps, cycles = [], []
    for rnd in traced_rounds:
        ids = spans.subtree(rnd.root)
        dur, own, count = spans.totals(rnd.root)
        round_s = dur["round"]
        closure.append(abs(sum(own.values()) - round_s) / round_s)
        phases = sum(dur.get(f"core.phase.{p}", 0.0)
                     for p in ("relax", "apply", "finalize"))
        stepping = dur.get("core.loop", dur.get("multigrid.smooth", 0.0))
        prep0 = sum(spans.duration(i) for i in ids
                    if spans.names[i] == "multigrid.prepare"
                    and spans.tags[i] == 0)
        row = {
            "partition.partition_s": dur.get("partition.partition", 0.0),
            "core.blockdata.build_s": dur.get("core.blockdata.build", 0.0),
            "core.block_base.ctor_s": dur.get("core.block_base.ctor", 0.0),
            "core.block_base.setup_s": dur.get("core.block_base.setup", 0.0),
            "core.solution_s": dur.get("core.solution", 0.0),
            "core.phase.relax_s": dur.get("core.phase.relax", 0.0),
            "core.phase.apply_s": dur.get("core.phase.apply", 0.0),
            "core.phase.finalize_s": dur.get("core.phase.finalize", 0.0),
            "core.step_overhead_s": max(0.0, stepping - phases)
            if stepping else 0.0,
            "core.steps": float(count.get("core.phase.relax", 0)),
            "solve": dur["solve"],
            "core.async_exec.ctor_s": dur.get("core.async_exec.ctor", 0.0),
            "core.async_exec.prepare_s":
                dur.get("core.async_exec.prepare", 0.0),
            "core.async_exec.run_s": dur.get("core.async_exec.run", 0.0),
            "core.async_exec.us_per_turn":
                (dur["core.async_exec.run"] / rnd.exact["steps"] * 1e6
                 if kind == "async" else 0.0),
            "multigrid.hierarchy_s": dur.get("multigrid.hierarchy", 0.0),
            "multigrid.prepare_s": dur.get("multigrid.prepare", 0.0),
            "multigrid.prepare_level0_frac":
                (prep0 / dur["multigrid.prepare"]
                 if "multigrid.prepare" in dur else 0.0),
            "multigrid.smooth_s": dur.get("multigrid.smooth", 0.0),
            "multigrid.transfer_s": dur.get("multigrid.transfer", 0.0),
            "multigrid.coarse_s": dur.get("multigrid.coarse", 0.0),
        }
        for k, v in row.items():
            per_round.setdefault(k, []).append(v)
        for k, v in own.items():
            own_round.setdefault(k, []).append(v / round_s)
        setup_share.append(dur["setup"] / round_s)
        solve_share.append(dur["solve"] / round_s)
        start = 0.0
        for i in ids:
            name = spans.names[i]
            if name == "core.phase.relax":
                start = spans.t0[i]
            elif name == "core.phase.finalize":
                steps.append(spans.t1[i] - start)
            elif name == "multigrid.cycle":
                cycles.append(spans.duration(i))
    metrics = {k: min(v) for k, v in per_round.items()}
    metrics["core.relax_per_s"] = (traced_rounds[0].exact["relaxations"]
                                   / metrics.pop("solve"))
    steps.sort()
    cycles.sort()
    metrics["core.step_ms_p50"] = _percentile(steps, 0.50) * 1e3
    metrics["core.step_ms_p90"] = _percentile(steps, 0.90) * 1e3
    metrics["multigrid.cycle_ms_p50"] = _percentile(cycles, 0.50) * 1e3
    # (every traced round has the same span names: same calls, same order)
    med_share = {k: H.quartiles(v)[1] for k, v in own_round.items()}
    top = sorted(med_share.items(), key=lambda kv: -kv[1])[:3]
    shares = {
        "setup_share_of_round": H.quartiles(setup_share)[1],
        "solve_share_of_round": H.quartiles(solve_share)[1],
        "top_self_time_layers": [{"layer": k, "share_of_round": v}
                                 for k, v in top],
        "self_time_closure_max_err": max(closure),
        "step_samples": len(steps),
        "traced_rounds": len(traced_rounds),
    }
    return metrics, shares


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def environment() -> dict:
    import platform

    import numpy
    import scipy
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numba": numba_version, "blas_threads": 1}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(2, f"no program to measure: {ROOT / 'src' / 'repro'} "
                       f"is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import workloads as W

    wl = W.WORKLOADS.get(args.workload)
    if wl is None:
        return fail(2, f"unknown workload {args.workload!r}; choices: "
                       f"{', '.join(W.WORKLOADS)}")
    if args.front_door:
        return front_door_main(wl, args)
    if args.seconds <= 0:
        return fail(2, "--seconds must be positive")
    child = None if args.trace else spawn_front_door_child(args)
    try:
        return measure(args, wl, child)
    finally:
        if child is not None and child.poll() is None:
            child.kill()        # a failed run must not leave it waiting
            child.wait()


def measure(args, wl, child) -> int:
    import harness as H
    import workloads as W

    guard = H.LeakGuard()
    spans = H.Spans()
    t_start = time.perf_counter()
    with spans.span("matrices.build") as s_build:
        inp = W.make_inputs(wl, args.seed, args.smoke)

    # ---- rounds --------------------------------------------------------
    warm = W.run_round(wl, inp, args.smoke, spans, traced=False)
    failures = [f"warm-up round: {why}"
                for why in W.check_round(wl, inp, args.smoke, warm, None)]
    reference = warm.exact
    warm_s = spans.duration(warm.root)
    del warm
    rounds, traced_flags, calib, walls = [], [], [], []
    failed = 0
    loop_start = time.perf_counter()
    est = warm_s
    while True:
        if args.smoke:
            if len(rounds) == 2:
                break
        elif time.perf_counter() - loop_start + est > args.seconds:
            # the next round would not finish inside --seconds
            break
        t0 = time.perf_counter()
        calib.append(H.calibration_probe())
        # a traced pass alternates traced and plain rounds, so the two
        # see the same drift and their ratio is the tracing overhead
        traced = bool(args.trace) and len(rounds) % 2 == 0
        rnd = W.run_round(wl, inp, args.smoke, spans, traced)
        why = W.check_round(wl, inp, args.smoke, rnd, reference)
        if why:
            failed += 1
            failures += [f"round {len(rounds) + 1}: {w}" for w in why]
        if rounds:
            # only the newest round keeps its solver objects: a dozen live
            # P=1024 block systems slow every later allocation, and the
            # set-up timings would drift upward through the run
            rounds[-1].x = rounds[-1].state = None
        rounds.append(rnd)
        traced_flags.append(traced)
        walls.append(time.perf_counter() - t0)
        est = H.quartiles(walls)[1]
    if not args.smoke and len(rounds) < MIN_ROUNDS:
        return fail(3, f"only {len(rounds)} timed rounds fit in "
                       f"{args.seconds:g} s; {MIN_ROUNDS} are needed "
                       f"before a timing is reported")
    calib_spread = max(calib) / min(calib)
    if calib_spread > NOISY_CALIB:
        print(f"bench: WARNING noisy box — the fixed calibration probe "
              f"ranged {min(calib) * 1e3:.1f}-{max(calib) * 1e3:.1f} ms "
              f"(x{calib_spread:.2f}) across rounds", file=sys.stderr)

    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    traced_rounds = [r for r, t in zip(rounds, traced_flags) if t]
    last = rounds[-1]
    digits, _ = W.residual_digits(inp, last.x)
    setup = H.summary([r.setup_s for r in plain])
    solve = H.summary([r.solve_s for r in plain])
    attempted = len(rounds) + 1         # + the front-door check

    # ---- front door, and what only one pass measures --------------------
    doc = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "smoke": args.smoke,
           "rounds": len(rounds), "env": environment(),
           "exact": reference, "calib_spread": calib_spread}
    if not args.trace:
        front = finish_front_door_child(child, reference["steps"])
        door = W.check_front_door(reference, front["exact"])
        values = {
            "setup_s": setup["min"],
            "solve_wall_s": solve["min"],
            "peak_rss_mb": front["peak_rss_mb"],
            "msgs_per_proc": reference["msgs_per_proc"],
            "model_time_s": reference["model_time_s"],
            "residual_digits": digits,
        }
        table = W.END_TO_END
        doc["timings"] = {
            "setup_s": {**setup, "samples": [r.setup_s for r in plain]},
            "solve_wall_s": {**solve,
                             "samples": [r.solve_s for r in plain]}}
        doc["front_door_wall_s"] = front["wall_s"]
    else:
        import probes

        with H.timed_segment():
            t0 = time.perf_counter()
            res = W.front_door(wl, inp, args.smoke, reference["steps"])
            door_s = time.perf_counter() - t0
        door = W.check_front_door(reference, W.front_door_exact(wl, res))
        values, shares = layer_timings(wl.kind, spans, traced_rounds)
        values.update(W.layer_counts(wl, inp, last))
        values.update(probes.run_probes(args.seed, args.smoke, OUT_DIR))
        round_t = min(spans.duration(r.root) for r in traced_rounds)
        round_p = min(spans.duration(r.root) for r in plain)
        values.update({
            "matrices.build_s": spans.duration(s_build),
            "api.front_door_s": door_s,
            "api.front_door_gap_s": door_s - setup["min"] - solve["min"],
            "trace.overhead_frac": round_t / round_p - 1.0,
            "noise.calib_spread": calib_spread,
            "noise.round_iqr_frac":
                H.spread([r.setup_s + r.solve_s for r in plain]),
        })
        table = W.PER_LAYER
        doc["layer_shares"] = shares
        span_path = args.spans or (
            OUT_DIR / f"spans_{wl.name}_seed{args.seed}.json")
        spans.dump(span_path, {"workload": wl.name, "seed": args.seed,
                               "smoke": args.smoke})
    if door:
        failed += 1
        failures += door

    # ---- verdict --------------------------------------------------------
    H.stop_resource_tracker()
    leaks = guard.leaks()
    if failures or leaks:
        return fail(1, f"{failed} of {attempted} operations failed",
                    *failures, *leaks)
    unknown = set(values) - {name for name, *_ in table}
    if unknown:
        raise AssertionError(f"metrics not in the table: {sorted(unknown)}")
    # a layer the workload never runs reads 0 (the predicted-zero cells)
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, *_ in table}
    result = {"correct": True, "attempted": attempted, "failed": 0,
              "metrics": metrics}
    doc.update(result)
    doc["wall_s"] = time.perf_counter() - t_start
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"bench: {wl.name} seed={args.seed} trace={args.trace} "
          f"rounds={len(rounds)} "
          f"setup min {setup['min']:.4f}s median {setup['median']:.4f}s "
          f"[{setup['q1']:.4f},{setup['q3']:.4f}] "
          f"solve min {solve['min']:.4f}s median {solve['median']:.4f}s "
          f"[{solve['q1']:.4f},{solve['q3']:.4f}] "
          f"calib x{calib_spread:.2f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
