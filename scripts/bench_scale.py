#!/usr/bin/env python
"""Paper-scale scaling campaign — n up to 1M rows, P up to 4096.

Runs DS and PS over an (n × P) grid of 2D Poisson problems through the
memory-bounded pipeline (streamed generation, grid partitioning, flat
message plane) and records, per cell: build-phase wall times, per-step
wall times, message/byte totals, and the cell's peak RSS.  Each cell
executes in a **forked child process**, so ``getrusage(RUSAGE_SELF)``
in the child is that cell's true high-water mark, not the campaign's
running maximum.

The campaign reproduces the paper's headline at scale: DS converges
like PS while communicating ~3× less.  The communication ratio is
measured the way the paper measures it — messages per process **to
reach a common residual target** (the weaker method's final norm,
crossings interpolated with the same ``interp_log_residual`` the
Table 2/3 reproduction uses) — and the summary gates on that ratio at
the largest cell (≥ 2.5×) plus the memory budget (peak RSS < 16 GB at
n = 1,048,576, P = 4096).  The ratio grows with convergence depth, so
the default 48 steps (‖r‖ ≈ 4e-3 from ‖r⁰‖ = 1) is part of the
campaign's definition.

Before any cell runs, three small-n **digest gates** prove the touched
paths are still bit-identical to the seed implementations: streamed
generation vs the whole-mesh reference, int32 vs int64 slab indices,
and cold vs warm setup-cache solves.  Any gate failure aborts the
campaign.

Results are written to ``BENCH_scale.json`` at the repository root.

Usage::

    PYTHONPATH=src python scripts/bench_scale.py           # full campaign
    PYTHONPATH=src python scripts/bench_scale.py --smoke   # CI-sized

Schema (``BENCH_scale.json``)::

    {
      "schema": "repro.bench_scale/v1",
      "smoke": false,
      "environment": {...},
      "gates": {"generation": "ok", "slab_dtypes": "ok",
                "setup_cache": "ok"},
      "cells": [
        {"side": ..., "n": ..., "n_parts": ...,
         "build_s": {"generate": ..., "partition": ..., "block_build": ...,
                     "method_setup": ...},
         "peak_rss_bytes": ...,
         "results": [
           {"method": "distributed-southwell" | "parallel-southwell",
            "steps": ..., "step_s": [...], "mean_step_s": ...,
            "final_norm": ..., "total_messages": ..., "total_bytes": ...,
            "comm_cost": ..., "comm_at_target": ...,
            "history_digest": "..."}, ...],
         "target_norm": ...,
         "comm_ratio_ps_over_ds": ..., "norm_ratio_ds_over_ps": ...},
        ...
      ],
      "summary": {"max_peak_rss_bytes": ..., "under_16gb": true,
                  "headline": {"side": ..., "n_parts": ...,
                               "comm_ratio_ps_over_ds": ...},
                  "headline_ratio_ok": true, "gates_ok": true}
    }
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
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
from repro.sparsela import symmetric_unit_diagonal_scale  # noqa: E402

SCHEMA = "repro.bench_scale/v1"
GB = 1 << 30

METHODS = {
    "distributed-southwell": DistributedSouthwell,
    "parallel-southwell": ParallelSouthwell,
}


def _peak_rss_self() -> int:
    unit = 1 if sys.platform == "darwin" else 1024
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * unit


# ----------------------------------------------------------------------
# small-n digest gates: every touched path still bit-identical
# ----------------------------------------------------------------------
def _csr_sha256(A) -> str:
    h = hashlib.sha256()
    for arr in (A.indptr, A.indices, A.data):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _gate_generation() -> bool:
    """Streamed grid build vs the seed whole-mesh reference."""
    from repro.matrices.poisson import _grid2d_entries
    from repro.matrices.stream import grid2d_stream

    def coeff(i, j):
        return np.ones(i.shape), np.ones(i.shape)

    ref = _grid2d_entries(48, 48, coeff)
    got = grid2d_stream(48, 48, coeff, block_rows=7)
    return _csr_sha256(ref) == _csr_sha256(got)


def _history_digest(cls, side: int, n_parts: int, steps: int) -> str:
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    part = partition(A, n_parts, method="grid", grid_shape=(side, side))
    system = build_block_system(A, part)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    with use_runtime("flat"):
        m = cls(system)
        m.setup(x0, b)
        norms = []
        for _ in range(steps):
            m.step()
            norms.append(m.global_norm())
    h = hashlib.sha256()
    h.update(np.asarray(norms, dtype=np.float64).tobytes())
    h.update(np.asarray(m.norms, dtype=np.float64).tobytes())
    h.update(str(m.total_relaxations).encode())
    return h.hexdigest()


def _gate_slab_dtypes() -> bool:
    """int32 slab-index fast path vs the int64 path, same digests."""
    import repro.runtime.flatplane as fp

    d32 = _history_digest(DistributedSouthwell, 32, 16, 8)
    saved = fp._INT32_LIMIT
    try:
        fp._INT32_LIMIT = 0          # force every plane onto int64
        d64 = _history_digest(DistributedSouthwell, 32, 16, 8)
    finally:
        fp._INT32_LIMIT = saved
    return d32 == d64


def _gate_setup_cache() -> bool:
    """Cold vs warm (memmap-backed) setup-cache solves, same histories."""
    from repro.api import solve

    A = symmetric_unit_diagonal_scale(poisson_2d(24)).matrix
    with tempfile.TemporaryDirectory() as d:
        os.environ["REPRO_SETUP_CACHE"] = d
        try:
            cold = solve(A, n_parts=4, max_steps=8, seed=0, runtime="flat")
            warm = solve(A, n_parts=4, max_steps=8, seed=0, runtime="flat")
        finally:
            del os.environ["REPRO_SETUP_CACHE"]
    return (cold.history.residual_norms == warm.history.residual_norms
            and np.array_equal(cold.x, warm.x))


GATES = {
    "generation": _gate_generation,
    "slab_dtypes": _gate_slab_dtypes,
    "setup_cache": _gate_setup_cache,
}


def run_gates(log) -> dict:
    out = {}
    for name, fn in GATES.items():
        t0 = time.perf_counter()
        ok = bool(fn())
        out[name] = "ok" if ok else "FAILED"
        log(f"  gate {name:<12} {out[name]}"
            f"  ({time.perf_counter() - t0:.2f} s)")
    return out


# ----------------------------------------------------------------------
# one (n, P) cell — executed inside a forked child
# ----------------------------------------------------------------------
def run_cell(side: int, n_parts: int, steps: int) -> dict:
    t0 = time.perf_counter()
    A = symmetric_unit_diagonal_scale(poisson_2d(side)).matrix
    t_gen = time.perf_counter() - t0

    t0 = time.perf_counter()
    part = partition(A, n_parts, method="grid", grid_shape=(side, side))
    t_part = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = build_block_system(A, part)
    t_build = time.perf_counter() - t0

    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    r0 = b - A.matvec(x0)
    x0 = x0 / np.linalg.norm(r0)         # the paper's ‖r⁰‖₂ = 1 setup

    results = []
    curves = {}
    t_setup_total = 0.0
    for name, cls in METHODS.items():
        with use_runtime("flat"):
            m = cls(system)
            t0 = time.perf_counter()
            m.setup(x0, b)
            t_setup = time.perf_counter() - t0
            t_setup_total += t_setup
            norms = []
            comm_curve = []
            step_s = []
            for _ in range(steps):
                t0 = time.perf_counter()
                m.step()
                step_s.append(time.perf_counter() - t0)
                norms.append(m.global_norm())
                comm_curve.append(m.engine.stats.communication_cost())
        h = hashlib.sha256()
        h.update(np.asarray(norms, dtype=np.float64).tobytes())
        h.update(np.asarray(m.norms, dtype=np.float64).tobytes())
        h.update(str(m.total_relaxations).encode())
        stats = m.engine.stats
        curves[name] = (np.asarray(norms), np.asarray(comm_curve))
        results.append({
            "method": name,
            "steps": steps,
            "step_s": [float(s) for s in step_s],
            "mean_step_s": float(np.mean(step_s)),
            "final_norm": float(norms[-1]),
            "total_messages": int(stats.total_messages),
            "total_bytes": int(stats.total_bytes),
            "comm_cost": float(stats.communication_cost()),
            "history_digest": h.hexdigest(),
        })
        del m

    # the paper's metric: messages per process to reach a COMMON
    # residual target — the weaker method's final norm, so both runs
    # crossed it — with the Table 2/3 crossing interpolation
    from repro.analysis.history import interp_log_residual

    target = max(float(curves[name][0][-1]) for name in curves)
    comm_at = {}
    for r in results:
        norms, comm_curve = curves[r["method"]]
        comm_at[r["method"]] = float(
            interp_log_residual(comm_curve, norms, target))
        r["comm_at_target"] = comm_at[r["method"]]

    ds = next(r for r in results if r["method"] == "distributed-southwell")
    ps = next(r for r in results if r["method"] == "parallel-southwell")
    return {
        "side": side,
        "n": side * side,
        "n_parts": n_parts,
        "build_s": {"generate": t_gen, "partition": t_part,
                    "block_build": t_build, "method_setup": t_setup_total},
        "peak_rss_bytes": _peak_rss_self(),
        "results": results,
        "target_norm": target,
        "comm_ratio_ps_over_ds": (comm_at["parallel-southwell"]
                                  / comm_at["distributed-southwell"]),
        "norm_ratio_ds_over_ps": ds["final_norm"] / ps["final_norm"],
    }


def run_cell_forked(side: int, n_parts: int, steps: int) -> dict:
    """Run one cell in a fresh child so its RSS is the cell's own."""
    if not hasattr(os, "fork"):          # pragma: no cover - POSIX hosts
        return run_cell(side, n_parts, steps)
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:                          # child
        code = 1
        try:
            os.close(rfd)
            payload = json.dumps(run_cell(side, n_parts, steps)).encode()
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
            code = 0
        except BaseException as exc:      # noqa: BLE001 - report then die
            print(f"cell (side={side}, P={n_parts}) failed: {exc!r}",
                  file=sys.stderr)
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        payload = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not payload:
        raise RuntimeError(
            f"cell (side={side}, P={n_parts}) child failed "
            f"(status {status})")
    return json.loads(payload)


# ----------------------------------------------------------------------
def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI-sized campaign (n≈200k, P=1024, one cell)")
    ap.add_argument("--output", type=Path,
                    default=REPO_ROOT / "BENCH_scale.json",
                    help="output JSON path (default: repo root)")
    ap.add_argument("--steps", type=int, default=48)
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args(argv)
    log = (lambda s: None) if args.quiet else print

    if args.smoke:
        grid = [(448, 1024)]                   # n = 200,704
    else:
        grid = [(512, 1024), (512, 4096),      # n = 262,144
                (1024, 1024), (1024, 4096)]    # n = 1,048,576

    t_start = time.perf_counter()
    log("digest gates (small n, bit-identity of every touched path):")
    gates = run_gates(log)
    gates_ok = all(v == "ok" for v in gates.values())
    if not gates_ok:
        print("ERROR: digest gate failed — campaign aborted",
              file=sys.stderr)
        bad = {k: v for k, v in gates.items() if v != "ok"}
        print(f"  failing gates: {bad}", file=sys.stderr)
        return 1

    cells = []
    for side, n_parts in grid:
        log(f"cell side={side} (n={side * side:,}) P={n_parts} "
            f"steps={args.steps}:")
        cell = run_cell_forked(side, n_parts, args.steps)
        cells.append(cell)
        b = cell["build_s"]
        log(f"  build: gen={b['generate']:.1f}s part={b['partition']:.1f}s "
            f"blocks={b['block_build']:.1f}s setup={b['method_setup']:.1f}s"
            f"  peak_rss={cell['peak_rss_bytes'] / GB:.2f} GB")
        for r in cell["results"]:
            log(f"  {r['method']:<22} step={r['mean_step_s'] * 1e3:8.1f} ms"
                f"  msgs={r['total_messages']:>12,}"
                f"  ‖r‖={r['final_norm']:.3e}")
        log(f"  comm ratio PS/DS = {cell['comm_ratio_ps_over_ds']:.2f}x "
            f"at ‖r‖ = {cell['target_norm']:.2e}")

    headline = cells[-1]      # largest (n, P) cell in the grid
    max_rss = max(c["peak_rss_bytes"] for c in cells)
    summary = {
        "max_peak_rss_bytes": max_rss,
        "under_16gb": max_rss < 16 * GB,
        "headline": {
            "side": headline["side"],
            "n": headline["n"],
            "n_parts": headline["n_parts"],
            "comm_ratio_ps_over_ds": headline["comm_ratio_ps_over_ds"],
            "norm_ratio_ds_over_ps": headline["norm_ratio_ds_over_ps"],
            "peak_rss_bytes": headline["peak_rss_bytes"],
        },
        "headline_ratio_ok": headline["comm_ratio_ps_over_ds"] >= 2.5,
        "gates_ok": gates_ok,
    }
    doc = {
        "schema": SCHEMA,
        "smoke": bool(args.smoke),
        "environment": environment(),
        "config": {"steps": args.steps,
                   "grid": [{"side": s, "n_parts": p} for s, p in grid]},
        "gates": gates,
        "cells": cells,
        "summary": summary,
    }
    args.output.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log(f"wrote {args.output} ({len(cells)} cells, "
        f"{time.perf_counter() - t_start:.1f} s)")
    if not summary["under_16gb"]:
        print(f"ERROR: peak RSS {max_rss / GB:.2f} GB breaks the "
              f"16 GB budget", file=sys.stderr)
        return 1
    if not summary["headline_ratio_ok"]:
        print(f"ERROR: headline PS/DS comm ratio "
              f"{summary['headline']['comm_ratio_ps_over_ds']:.2f}x "
              f"< 2.5x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
