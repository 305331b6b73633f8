#!/usr/bin/env python
"""Runtime message-plane benchmark — object plane vs flat-buffer plane.

Times full parallel steps of each distributed block method (DS / PS /
Block Jacobi) on 2D Poisson problems partitioned at increasing process
counts, under both message planes: ``object`` (dict payloads + Message
objects — the seed implementation) and ``flat`` (preallocated per-edge
mailboxes, DESIGN.md §5.8).  Both runs of a pair must agree **exactly**:
the benchmark records (and the paired check verifies) a digest of the
per-step convergence history plus total message and byte counts — a pair
that disagrees fails the whole benchmark, because a fast-but-different
runtime is a bug, not a speedup.

Results are written to ``BENCH_runtime.json`` at the repository root.

Usage::

    PYTHONPATH=src python scripts/bench_runtime.py            # full run
    PYTHONPATH=src python scripts/bench_runtime.py --smoke    # CI-sized

Schema (``BENCH_runtime.json``)::

    {
      "schema": "repro.bench_runtime/v1",
      "smoke": false,
      "environment": {"python": ..., "numpy": ..., "scipy": ...,
                      "platform": ...},
      "config": {"n_procs": [...], "steps": ..., "repeats": ...},
      "results": [
        {"method": "distributed-southwell", "runtime": "flat",
         "n": 9216, "n_parts": 256, "steps": 10, "repeats": 3,
         "best_step_s": ..., "mean_step_s": ...,
         "history_digest": "...", "total_messages": ...,
         "total_bytes": ...},
        ...
      ],
      "summary": {"ds_p256_speedup": ..., "pairs_identical": true}
    }

``best_step_s``/``mean_step_s`` are per-parallel-step seconds.  The
summary's ``ds_p256_speedup`` (object / flat per-step time for DS at the
largest P) is the PR acceptance metric (target: >= 3x).
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

from repro.core import DistributedSouthwell, ParallelSouthwell  # noqa: E402
from repro.core.blockdata import build_block_system  # noqa: E402
from repro.matrices.poisson import poisson_2d  # noqa: E402
from repro.partition import partition  # noqa: E402
from repro.runtime import use_runtime  # noqa: E402
from repro.solvers.block_jacobi import BlockJacobi  # noqa: E402
from repro.sparsela import symmetric_unit_diagonal_scale  # noqa: E402

SCHEMA = "repro.bench_runtime/v1"
METHOD_CLASSES = (BlockJacobi, ParallelSouthwell, DistributedSouthwell)
RUNTIMES = ("object", "flat")
#: problem side per process count — keeps subdomains in the paper's
#: ~20-50-row regime while the interpreter overhead scales with P
SIDES = {16: 48, 64: 64, 256: 96}


def build_case(n_parts: int, side: int):
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    return A, system, x0, np.zeros(A.n_rows)


def run_one(cls, system, x0, b, runtime: str, steps: int,
            repeats: int) -> dict:
    """Time ``steps`` parallel steps under one message plane.

    Timing repeats restart the method from scratch (``setup`` resets all
    state), so every repeat times the same trajectory; the digest and the
    communication totals come from the final repeat.
    """
    best = []
    with use_runtime(runtime):
        for _ in range(repeats):
            method = cls(system)
            method.setup(x0, b)
            norms = []
            t0 = time.perf_counter()
            for _ in range(steps):
                method.step()
                norms.append(method.global_norm())
            best.append((time.perf_counter() - t0) / steps)
        expected_flat = runtime == "flat" and method._flat_supported()
        assert method._use_flat == expected_flat
    h = hashlib.sha256()
    h.update(np.asarray(norms, dtype=np.float64).tobytes())
    h.update(np.asarray(method.norms, dtype=np.float64).tobytes())
    h.update(str(method.total_relaxations).encode())
    stats = method.engine.stats
    return {
        "method": method.name,
        "runtime": runtime,
        "n": system.n,
        "n_parts": system.n_parts,
        "steps": steps,
        "repeats": repeats,
        "best_step_s": min(best),
        "mean_step_s": float(np.mean(best)),
        "history_digest": h.hexdigest(),
        "total_messages": stats.total_messages,
        "total_bytes": stats.total_bytes,
    }


def bench(n_procs_list, steps, repeats, log) -> tuple[list[dict], dict]:
    results = []
    pairs_identical = True
    ds_speedups = {}
    for n_parts in n_procs_list:
        side = SIDES.get(n_parts, int(6 * np.sqrt(n_parts)))
        _, system, x0, b = build_case(n_parts, side)
        log(f"P={n_parts} (n={system.n}, side={side}):")
        for cls in METHOD_CLASSES:
            pair = {}
            for runtime in RUNTIMES:
                rec = run_one(cls, system, x0, b, runtime, steps, repeats)
                results.append(rec)
                pair[runtime] = rec
                log(f"  {rec['method']:<24} {runtime:<7} "
                    f"step={rec['best_step_s'] * 1e3:9.3f} ms  "
                    f"msgs={rec['total_messages']}")
            same = all(
                pair["object"][k] == pair["flat"][k]
                for k in ("history_digest", "total_messages", "total_bytes"))
            if not same:
                pairs_identical = False
                log(f"  !! {pair['object']['method']} P={n_parts}: "
                    "object and flat runs DISAGREE")
            speedup = (pair["object"]["best_step_s"]
                       / pair["flat"]["best_step_s"])
            log(f"    speedup {speedup:.2f}x")
            if pair["object"]["method"] == "distributed-southwell":
                ds_speedups[n_parts] = speedup
    top = max(n_procs_list)
    summary = {
        "pairs_identical": pairs_identical,
        "ds_speedups": {str(p): s for p, s in ds_speedups.items()},
        f"ds_p{top}_speedup": ds_speedups.get(top),
    }
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
                    help="CI-sized run (fewer process counts / repeats)")
    ap.add_argument("--output", type=Path,
                    default=REPO_ROOT / "BENCH_runtime.json",
                    help="output JSON path (default: repo root)")
    ap.add_argument("--n-procs", type=int, nargs="*", default=None,
                    help="process counts to bench (default: 16 64 256)")
    ap.add_argument("--steps", type=int, default=None,
                    help="parallel steps per timing run")
    ap.add_argument("--repeats", type=int, default=None)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    n_procs = args.n_procs or ([16, 64] if args.smoke else [16, 64, 256])
    steps = args.steps or (5 if args.smoke else 10)
    repeats = args.repeats or 3
    log = (lambda s: None) if args.quiet else print

    t0 = time.perf_counter()
    results, summary = bench(n_procs, steps, repeats, log)
    doc = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "environment": environment(),
        "config": {"n_procs": list(n_procs), "steps": steps,
                   "repeats": repeats,
                   "sides": {str(p): SIDES.get(p) for p in n_procs}},
        "results": results,
        "summary": summary,
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.output} "
        f"({len(results)} records, {time.perf_counter() - t0:.1f} s)")
    if not summary["pairs_identical"]:
        print("ERROR: object/flat pairs disagree", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
