#!/usr/bin/env python
"""Communication-aware multigrid benchmark — messages per digit.

Runs the Figure 6 V-cycle protocol (9 cycles, seeded random RHS, zero
initial guess) with the *block* smoothers at the equal-relaxation-budget
contract and measures what each smoother's communication buys:

- smoother comparison — block-DS vs block-PS vs block-BJ vs serial GS
  per grid size, reporting total smoothing messages/bytes and
  **messages per digit** of residual reduction
  (``total_msgs / log10(r0/rN)``).  The paper's claim, measured at the
  V-cycle: Distributed Southwell needs several times fewer messages per
  digit than Parallel Southwell at the same relaxation budget (DS skips
  PS's all-neighbor residual-norm exchange).  Block-Jacobi sends no
  norm traffic at all but converges shallower per relaxation; serial GS
  is the zero-message convergence reference.
- sparsification sweep — Galerkin hierarchies at ``drop_tol`` in
  {0, 0.1, 0.2} with block-DS: dropping weak coarse couplings removes
  message edges (msgs fall monotonically) while damping the coarse
  correction (digits fall too) — the honest comm-vs-convergence
  trade-off of arXiv 1512.04629.
- determinism — the headline configuration runs twice and must produce
  bit-identical residual histories and message counts (sha256 digest).

Results are written to ``BENCH_mg.json`` at the repository root.

Usage::

    PYTHONPATH=src python scripts/bench_mg.py            # full run
    PYTHONPATH=src python scripts/bench_mg.py --smoke    # CI-sized

Schema (``BENCH_mg.json``)::

    {
      "schema": "repro.bench_mg/v1",
      "smoke": false,
      "environment": {...},
      "config": {"n_parts": ..., "dims": [...], "cycles": ...,
                 "drop_tols": [...]},
      "smoothers": [
        {"smoother": ..., "dim": ..., "rel_resid": ..., "digits": ...,
         "msgs": ..., "bytes": ..., "msgs_per_digit": ...,
         "bytes_per_digit": ..., "levels": [...], "digest": "..."},
        ...
      ],
      "sparsification": [
        {"drop_tol": ..., "rel_resid": ..., "digits": ..., "msgs": ...,
         "bytes": ..., "nnz_dropped": ..., "msgs_per_digit": ...}, ...
      ],
      "summary": {"ds_vs_ps_msgs_per_digit": ...,
                  "ds_fewer_msgs_per_digit_than_ps": true,
                  "sparsify_msgs_monotone": true,
                  "sparsify_saves_msgs": true,
                  "grid_independent": true,
                  "deterministic": true}
    }

``ds_fewer_msgs_per_digit_than_ps``, ``sparsify_msgs_monotone``,
``sparsify_saves_msgs``, ``grid_independent`` and ``deterministic`` are
the perf-smoke-enforced acceptance gates (all must be true).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.matrices.poisson import poisson_2d  # noqa: E402
from repro.multigrid import MultigridExecutor, make_smoother  # noqa: E402

SCHEMA = "repro.bench_mg/v1"

SMOOTHERS = ("ds", "ps", "bj", "gs")
DROP_TOLS = (0.0, 0.1, 0.2)


def run_vcycles(dim: int, n_parts: int, smoother: str, cycles: int,
                hierarchy: str = "geometric",
                drop_tol: float = 0.0) -> dict:
    """One Figure 6 run; returns metrics plus a determinism digest."""
    h = 1.0 / (dim + 1)
    A = poisson_2d(dim).scale(1.0 / h ** 2)
    b = np.random.default_rng(0).uniform(-1.0, 1.0, dim * dim)
    mg = MultigridExecutor(A, make_smoother(smoother, n_parts=n_parts,
                                            seed=0),
                           hierarchy=hierarchy, drop_tol=drop_tol)
    hist = mg.run(b, n_cycles=cycles)
    agg = mg.aggregate_stats()
    rel = hist.final_norm / hist.initial_norm
    digits = math.log10(hist.initial_norm / hist.final_norm)
    dig = hashlib.sha256()
    dig.update(np.asarray(hist.residual_norms, dtype=np.float64).tobytes())
    dig.update(str(agg.total_messages).encode())
    dig.update(str(agg.total_bytes).encode())
    return {
        "smoother": smoother,
        "dim": dim,
        "rel_resid": rel,
        "digits": digits,
        "msgs": agg.total_messages,
        "bytes": agg.total_bytes,
        "msgs_per_digit": agg.total_messages / digits,
        "bytes_per_digit": agg.total_bytes / digits,
        "nnz_dropped": sum(mg.dropped),
        "levels": [row.to_dict() for row in mg.level_stats()],
        "digest": dig.hexdigest(),
    }


def bench(dims: tuple[int, ...], n_parts: int, cycles: int,
          drop_tols: tuple[float, ...], log) -> tuple[list, list, dict]:
    log(f"smoothers at P={n_parts}, {cycles} V-cycles "
        f"(equal relaxation budget):")
    smoother_rows = []
    for dim in dims:
        for name in SMOOTHERS:
            rec = run_vcycles(dim, n_parts, name, cycles)
            smoother_rows.append(rec)
            log(f"  {name:3s} {dim:3d}x{dim:<3d} rel={rec['rel_resid']:9.2e}"
                f"  msgs={rec['msgs']:6d}  "
                f"msgs/digit={rec['msgs_per_digit']:8.1f}")

    log(f"sparsification sweep (galerkin, block-ds, dim={dims[0]}):")
    sparse_rows = []
    for tol in drop_tols:
        rec = run_vcycles(dims[0], n_parts, "ds", cycles,
                          hierarchy="galerkin", drop_tol=tol)
        rec["drop_tol"] = tol
        del rec["smoother"], rec["levels"]
        sparse_rows.append(rec)
        log(f"  tol={tol:4.2f} rel={rec['rel_resid']:9.2e}  "
            f"msgs={rec['msgs']:6d}  dropped={rec['nnz_dropped']}")

    repeat = run_vcycles(dims[0], n_parts, "ds", cycles)
    by = {(r["smoother"], r["dim"]): r for r in smoother_rows}
    ds_rows = [by[("ds", d)] for d in dims]
    ps_rows = [by[("ps", d)] for d in dims]
    summary = {
        "ds_vs_ps_msgs_per_digit": (
            ds_rows[-1]["msgs_per_digit"] / ps_rows[-1]["msgs_per_digit"]),
        "ds_fewer_msgs_per_digit_than_ps": all(
            d["msgs_per_digit"] < p["msgs_per_digit"]
            for d, p in zip(ds_rows, ps_rows)),
        "sparsify_msgs_monotone": all(
            a["msgs"] >= b["msgs"]
            for a, b in zip(sparse_rows, sparse_rows[1:])),
        "sparsify_saves_msgs": (sparse_rows[-1]["msgs"]
                                < sparse_rows[0]["msgs"]),
        # Figure 6 shape: every smoother stays convergent as the grid
        # grows (no more than one digit lost across the dim sweep)
        "grid_independent": all(
            by[(s, dims[-1])]["rel_resid"]
            < 10.0 * by[(s, dims[0])]["rel_resid"] + 1e-8
            for s in SMOOTHERS),
        "deterministic": repeat["digest"] == ds_rows[0]["digest"],
    }
    log(f"  ds/ps msgs-per-digit ratio "
        f"{summary['ds_vs_ps_msgs_per_digit']:.3f}, "
        f"deterministic: {summary['deterministic']}")
    return smoother_rows, sparse_rows, summary


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
                    help="CI-sized run (smaller grids, fewer procs)")
    ap.add_argument("--output", type=Path,
                    default=REPO_ROOT / "BENCH_mg.json",
                    help="output JSON path (default: repo root)")
    ap.add_argument("--n-parts", type=int, default=None)
    ap.add_argument("--cycles", type=int, default=9)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)

    dims = (15, 31) if args.smoke else (31, 63)
    n_parts = args.n_parts or (4 if args.smoke else 16)
    log = (lambda s: None) if args.quiet else print

    t0 = time.perf_counter()
    smoother_rows, sparse_rows, summary = bench(dims, n_parts, args.cycles,
                                                DROP_TOLS, log)
    doc = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "environment": environment(),
        "config": {"n_parts": n_parts, "dims": list(dims),
                   "cycles": args.cycles, "drop_tols": list(DROP_TOLS)},
        "smoothers": smoother_rows,
        "sparsification": sparse_rows,
        "summary": summary,
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.output} ({len(smoother_rows)} smoother records, "
        f"{time.perf_counter() - t0:.1f} s)")
    gates = ("ds_fewer_msgs_per_digit_than_ps", "sparsify_msgs_monotone",
             "sparsify_saves_msgs", "grid_independent", "deterministic")
    failed = [g for g in gates if not summary[g]]
    if failed:
        print(f"ERROR: acceptance gate(s) failed: {', '.join(failed)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
