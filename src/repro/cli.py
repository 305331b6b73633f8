"""Command-line driver mirroring the SC17 artifact's ``DMEM_Southwell``.

The artifact binary is driven as::

    srun -N 32 -n 1024 ./DMEM_Southwell -x_zeros -mat_file ecology2.mtx.bin
        -sweep_max 20 -loc_solver gs -solver sos_sds

This module reproduces that interface over the simulated runtime::

    python -m repro -n 64 -x_zeros -mat_file matrix.mtx -sweep_max 20
        -loc_solver gs -solver sos_sds

Differences from the artifact, by necessity: ``-n`` selects the number of
*simulated* processes (there is no ``srun``); matrices load from Matrix
Market text or this package's ``.bin`` format; the default generated
problem is a 5-point Laplacian on a 100×100 grid (the artifact defaults
to 1000×1000, far beyond a laptop-scale simulation).  Solver names accept
both the artifact's (``sos_sds``, ``sos_ps``, ``sj``) and descriptive
(``ds``, ``ps``, ``bj``) spellings.

Runtime additions (not in the artifact): ``--runtime async`` runs the
event-driven engine (with ``--async-latency`` / ``--async-speed-factors``
for link latency and per-rank stragglers).
``-solver mg`` (alias ``--method mg``) runs the communication-aware
multigrid V-cycle with ``--mg-smoother`` / ``--mg-drop-tol``; it needs a
square ``2^k - 1`` grid (``-grid_dim 31``, 63, 127, ...).

Observability additions (not in the artifact): ``--trace PATH`` records
the run's event trace (JSONL, or Chrome ``trace_event`` for ``.json`` /
``.chrome``), ``--json`` prints the result as one JSON document, and two
subcommands — ``python -m repro trace FILE`` summarizes a recorded trace
and ``python -m repro config`` prints every ``REPRO_*`` knob with its
effective value and source.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro import config as repro_config
from repro.api import RunConfig, solve
from repro.matrices.poisson import poisson_2d
from repro.sparsela import (
    read_binary,
    read_matrix_market,
    symmetric_unit_diagonal_scale,
)

__all__ = ["main"]

_SOLVER_ALIASES = {
    "sos_sds": "distributed-southwell",
    "sos_ps": "parallel-southwell",
    "sj": "block-jacobi",
    "ds": "distributed-southwell",
    "ps": "parallel-southwell",
    "bj": "block-jacobi",
    "distributed-southwell": "distributed-southwell",
    "parallel-southwell": "parallel-southwell",
    "block-jacobi": "block-jacobi",
    "mg": "mg",
    "multigrid": "mg",
}


def build_parser() -> argparse.ArgumentParser:
    """The DMEM_Southwell-flavoured argument parser."""
    parser = argparse.ArgumentParser(
        prog="dmem-southwell",
        description="Distributed Southwell / Parallel Southwell / Block "
                    "Jacobi over a simulated one-sided-MPI runtime.")
    parser.add_argument("-n", "--num-procs", type=int, default=32,
                        help="number of simulated MPI processes "
                             "(the artifact's srun -n)")
    parser.add_argument("-mat_file", default=None,
                        help="matrix file (.mtx Matrix Market or .bin)")
    parser.add_argument("-grid_dim", type=int, default=100,
                        help="side of the generated 5-point Laplacian when "
                             "no -mat_file is given")
    parser.add_argument("-sweep_max", type=int, default=20,
                        help="number of parallel steps (artifact default 20)")
    parser.add_argument("-solver", "--method", dest="solver",
                        default="sos_sds",
                        choices=sorted(_SOLVER_ALIASES),
                        help="sos_sds=Distributed Southwell, "
                             "sos_ps=Parallel Southwell, sj=Block Jacobi; "
                             "mg=communication-aware multigrid V-cycle "
                             "(needs a 2^k-1 -grid_dim, e.g. 31 or 63)")
    parser.add_argument("-loc_solver", default="gs",
                        choices=("gs", "direct"),
                        help="local subdomain solver")
    parser.add_argument("-x_zeros", action="store_true",
                        help="x0 = 0 and random b (default: random x0, "
                             "b = 0); either way ‖r0‖₂ is scaled to 1")
    parser.add_argument("-target", type=float, default=None,
                        help="optional residual-norm target to report")
    parser.add_argument("-seed", type=int, default=0,
                        help="random seed")
    parser.add_argument("-format_out", action="store_true",
                        help="machine-readable output (one metric per line)")
    parser.add_argument("--runtime", default=None,
                        choices=repro_config.VALID_RUNTIME_MODES,
                        help="execution plane (overrides REPRO_RUNTIME); "
                             "'async' runs the event-driven engine")
    parser.add_argument("--async-latency", type=float, default=None,
                        dest="async_latency", metavar="SECONDS",
                        help="simulated network latency under --runtime "
                             "async")
    parser.add_argument("--async-speed-factors", default=None,
                        dest="async_speed_factors", metavar="SPEC",
                        help="per-rank straggler spec 'rank:factor,...' "
                             "under --runtime async")
    parser.add_argument("--mg-smoother", default=None, dest="mg_smoother",
                        choices=repro_config.VALID_MG_SMOOTHERS,
                        help="V-cycle smoother under -solver mg: block "
                             "'ds'/'ps'/'bj' (real runners at the equal-"
                             "relaxation budget), 'gs', or the paper's "
                             "'scalar-ds'/'scalar-ps'")
    parser.add_argument("--mg-drop-tol", type=float, default=None,
                        dest="mg_drop_tol", metavar="TOL",
                        help="AMG sparsification threshold for Galerkin "
                             "coarse operators under -solver mg; implies "
                             "the Galerkin hierarchy")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record the run's event trace to PATH (JSONL; "
                             ".json/.chrome suffix writes Chrome "
                             "trace_event format)")
    parser.add_argument("--faults", default=None, metavar="PATH",
                        help="inject faults from a FaultPlan JSON file "
                             "(also settable via REPRO_FAULTS)")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero (DegradedRunError) when a "
                             "faulted run degrades instead of converging")
    parser.add_argument("--json", action="store_true", dest="json_out",
                        help="print the full result as one JSON document")
    return parser


def load_matrix(args) :
    """Load or generate the (unit-diagonal scaled) test matrix."""
    if args.mat_file:
        if args.mat_file.endswith(".bin"):
            A = read_binary(args.mat_file)
        else:
            A = read_matrix_market(args.mat_file)
    else:
        A = poisson_2d(args.grid_dim)
    return symmetric_unit_diagonal_scale(A).matrix


def _trace_command(argv: list[str]) -> int:
    """``repro trace FILE [...]``: summarize recorded trace files."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Summarize a recorded run trace: per-phase times, "
                    "per-edge message counts, MessageStats reconciliation.")
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="JSONL trace file(s) written by --trace / "
                             "REPRO_TRACE")
    args = parser.parse_args(argv)
    from repro.analysis import format_trace_summary, summarize_trace

    for i, path in enumerate(args.files):
        if i:
            print()
        if len(args.files) > 1:
            print(f"== {path}")
        print(format_trace_summary(summarize_trace(path)))
    return 0


def _config_command(argv: list[str]) -> int:
    """``repro config``: print every knob's effective value and source."""
    argparse.ArgumentParser(
        prog="repro config",
        description="Show the REPRO_* configuration knobs.").parse_args(argv)
    print(repro_config.describe())
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: load/generate, solve, report (0 on success)."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return _trace_command(argv[1:])
    if argv and argv[0] == "config":
        return _config_command(argv[1:])
    args = build_parser().parse_args(argv)
    t_setup = time.perf_counter()
    A = load_matrix(args)
    rng = np.random.default_rng(args.seed)
    if args.x_zeros:
        x0 = np.zeros(A.n_rows)
        b = rng.uniform(-1.0, 1.0, A.n_rows)
        b /= np.linalg.norm(b)
    else:
        x0 = rng.uniform(-1.0, 1.0, A.n_rows)
        b = np.zeros(A.n_rows)
        x0 /= np.linalg.norm(A.matvec(x0))
    method = _SOLVER_ALIASES[args.solver]
    setup_time = time.perf_counter() - t_setup

    t_solve = time.perf_counter()
    plan = None
    if args.faults is not None:
        from repro.faults import FaultPlan

        plan = FaultPlan.from_file(args.faults)
    async_cfg = None
    if (args.async_latency is not None
            or args.async_speed_factors is not None):
        from repro.api import AsyncConfig

        sf = None
        if args.async_speed_factors is not None:
            sf = repro_config.parse_speed_factors(
                args.async_speed_factors) or None
        async_cfg = AsyncConfig(latency=args.async_latency, speed_factors=sf)
    mg_cfg = None
    if (method == "mg" or args.mg_smoother is not None
            or args.mg_drop_tol is not None):
        from repro.api import MultigridConfig

        # the CLI unit-diagonal-scales whatever it loads, so the coarse
        # operators must be formed variationally from that scaled fine
        # operator — the geometric rediscretized hierarchy would be
        # dimensionally inconsistent with it
        mg_cfg = MultigridConfig(smoother=args.mg_smoother,
                                 drop_tol=args.mg_drop_tol,
                                 hierarchy="galerkin")
    cfg = RunConfig(n_parts=args.num_procs, max_steps=args.sweep_max,
                    local_solver=args.loc_solver, seed=args.seed,
                    trace=args.trace, faults=plan, strict=args.strict,
                    runtime=args.runtime, async_config=async_cfg,
                    mg=mg_cfg)
    result = solve(A, b, method=method, x0=x0, config=cfg)
    solve_time = time.perf_counter() - t_solve

    if args.json_out:
        doc = result.to_dict()
        doc["setup_wallclock"] = setup_time
        doc["solve_wallclock"] = solve_time
        print(json.dumps(doc, indent=2))
    elif args.format_out:
        print(f"solver {method}")
        print(f"n {A.n_rows}")
        print(f"nnz {A.nnz}")
        print(f"procs {args.num_procs}")
        print(f"parallel_steps {result.parallel_steps}")
        print(f"residual_norm {result.final_norm:.16e}")
        print(f"comm_cost {result.comm_cost:.6f}")
        print(f"solve_comm {result.solve_comm:.6f}")
        print(f"res_comm {result.residual_comm:.6f}")
        print(f"relaxations_per_n {result.relaxations / A.n_rows:.6f}")
        print(f"simulated_time {result.simulated_time:.9f}")
        if result.virtual_time is not None:
            print(f"virtual_time {result.virtual_time:.9f}")
        print(f"setup_wallclock {setup_time:.3f}")
        print(f"solve_wallclock {solve_time:.3f}")
        if result.faults_injected is not None:
            print(f"faults_injected "
                  f"{sum(result.faults_injected.values())}")
            print(f"repairs {result.repairs}")
            print(f"degraded {int(result.degraded)}")
        if args.target is not None:
            steps = result.history.cost_to_reach(args.target,
                                                 axis="parallel_steps")
            print(f"steps_to_target "
                  f"{'nan' if steps is None else f'{steps:.3f}'}")
    else:
        print(f"matrix: n={A.n_rows:,} nnz={A.nnz:,} "
              f"({args.mat_file or f'{args.grid_dim}x{args.grid_dim} Laplace'})")
        print(f"setup: {setup_time:.2f} s wall-clock")
        print(result.summary())
        print(f"solve: {solve_time:.2f} s wall-clock "
              f"({result.parallel_steps} parallel steps)")
        if args.target is not None:
            steps = result.history.cost_to_reach(args.target,
                                                 axis="parallel_steps")
            state = f"{steps:.2f} steps" if steps is not None else "† (never)"
            print(f"‖r‖₂ ≤ {args.target}: {state}")
        if result.faults_injected is not None:
            inj = "  ".join(f"{k}={v}" for k, v in
                            sorted(result.faults_injected.items()))
            print(f"faults: {inj or 'none'} (repairs={result.repairs})")
            if result.degraded:
                print(f"DEGRADED: {result.degraded_reason}")
        if result.trace_path:
            print(f"trace written to {result.trace_path} "
                  f"(summarize with: python -m repro trace "
                  f"{result.trace_path})")
    # release the in-process setup/run caches: one-shot invocations are
    # about to exit anyway, but programmatic main(argv) loops (tests,
    # notebooks) must not accumulate block systems across calls
    from repro.experiments.runners import clear_run_caches

    clear_run_caches()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
