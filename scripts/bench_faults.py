#!/usr/bin/env python
"""Fault-plane benchmark — overhead when disabled, cost when active.

Three timed configurations of flat-plane Distributed Southwell on a 2D
Poisson problem (P=256 by default, the PR-1/PR-2 perf problem):

- ``off``   — no fault plan at all (the production hot path);
- ``null``  — a null :class:`~repro.faults.FaultPlan` attached (every
  rate zero).  Null plans must compile to *disabled* machinery, so this
  run must be bit-identical to ``off`` and its per-step time within
  noise of it — the acceptance bar is ≤5% overhead;
- ``drop``  — a lossy plan (10% drop both categories), which pays for
  fate draws, cumulative self-healing payloads and heartbeat repair;
  reported for scale, not gated.

Results are written to ``BENCH_faults.json`` at the repository root.

Usage::

    PYTHONPATH=src python scripts/bench_faults.py            # full run
    PYTHONPATH=src python scripts/bench_faults.py --smoke    # CI-sized

Schema (``BENCH_faults.json``)::

    {
      "schema": "repro.bench_faults/v1",
      "smoke": false,
      "environment": {...},
      "config": {"n_parts": ..., "side": ..., "steps": ..., "repeats": ...},
      "results": [
        {"plan": "off" | "null" | "drop", "best_step_s": ...,
         "mean_step_s": ..., "history_digest": "...",
         "total_messages": ..., "injected": {...}},
        ...
      ],
      "summary": {"null_overhead": ..., "drop_overhead": ...,
                  "null_identical_to_off": true}
    }

``null_overhead`` (null / off per-step time) is the perf-smoke-enforced
acceptance metric (bar: ≤1.05).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import DistributedSouthwell  # noqa: E402
from repro.core.blockdata import build_block_system  # noqa: E402
from repro.faults import FaultPlan  # noqa: E402
from repro.matrices.poisson import poisson_2d  # noqa: E402
from repro.partition import partition  # noqa: E402
from repro.runtime import use_runtime  # noqa: E402
from repro.sparsela import symmetric_unit_diagonal_scale  # noqa: E402

SCHEMA = "repro.bench_faults/v1"

PLANS = {
    "off": None,
    "null": FaultPlan(seed=11),
    "drop": FaultPlan.uniform(drop=0.1, seed=11),
}


def build_case(n_parts: int, side: int):
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    return system, x0, np.zeros(A.n_rows)


def run_one(label: str, plan, system, x0, b, steps: int,
            repeats: int) -> dict:
    best = []
    with use_runtime("flat"):
        for _ in range(repeats):
            ds = DistributedSouthwell(system, faults=plan)
            ds.setup(x0, b)
            norms = []
            t0 = time.perf_counter()
            for _ in range(steps):
                ds.step()
                norms.append(ds.global_norm())
            best.append((time.perf_counter() - t0) / steps)
        assert ds.engine.flat is not None
        assert ds.engine.faults is ds._faults
    h = hashlib.sha256()
    h.update(np.asarray(norms, dtype=np.float64).tobytes())
    h.update(np.asarray(ds.norms, dtype=np.float64).tobytes())
    h.update(str(ds.total_relaxations).encode())
    injected = (dict(ds._faults.injected) if ds._faults is not None
                else None)
    return {
        "plan": label,
        "best_step_s": min(best),
        "mean_step_s": float(np.mean(best)),
        "history_digest": h.hexdigest(),
        "total_messages": ds.engine.stats.total_messages,
        "injected": injected,
    }


def bench(n_parts: int, side: int, steps: int, repeats: int,
          log) -> tuple[list[dict], dict]:
    system, x0, b = build_case(n_parts, side)
    log(f"P={n_parts} (n={system.n}, side={side}), {steps} steps x "
        f"{repeats} repeats:")
    results = []
    for label, plan in PLANS.items():
        rec = run_one(label, plan, system, x0, b, steps, repeats)
        results.append(rec)
        log(f"  {label:<5} step={rec['best_step_s'] * 1e3:9.3f} ms  "
            f"msgs={rec['total_messages']}")
    by = {r["plan"]: r for r in results}
    summary = {
        "null_overhead": by["null"]["best_step_s"] / by["off"]["best_step_s"],
        "drop_overhead": by["drop"]["best_step_s"] / by["off"]["best_step_s"],
        "null_identical_to_off": (by["null"]["history_digest"]
                                  == by["off"]["history_digest"]
                                  and by["null"]["total_messages"]
                                  == by["off"]["total_messages"]),
    }
    log(f"  null overhead {summary['null_overhead']:.3f}x, "
        f"drop overhead {summary['drop_overhead']:.3f}x, "
        f"null==off: {summary['null_identical_to_off']}")
    return results, summary


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized run (smaller problem, fewer repeats)")
    ap.add_argument("--output", type=Path,
                    default=REPO_ROOT / "BENCH_faults.json",
                    help="output JSON path (default: repo root)")
    ap.add_argument("--n-parts", type=int, default=None)
    ap.add_argument("--side", type=int, default=None)
    ap.add_argument("--steps", type=int, default=None)
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    n_parts = args.n_parts or (64 if args.smoke else 256)
    side = args.side or (64 if args.smoke else 96)
    steps = args.steps or 5
    repeats = args.repeats or (3 if args.smoke else 5)
    log = (lambda s: None) if args.quiet else print

    t0 = time.perf_counter()
    results, summary = bench(n_parts, side, steps, repeats, log)
    doc = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "environment": environment(),
        "config": {"n_parts": n_parts, "side": side, "steps": steps,
                   "repeats": repeats},
        "results": results,
        "summary": summary,
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.output} "
        f"({len(results)} records, {time.perf_counter() - t0:.1f} s)")
    if not summary["null_identical_to_off"]:
        print("ERROR: null-plan run differs from faultless run",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
