#!/usr/bin/env python
"""Artifact-evaluation driver: regenerate every paper artifact in one go.

The SC17 artifact's ``AllMatJob.sh`` runs its sweep scripts over all 14
matrices; this is the reproduction's equivalent.  It regenerates every
table and figure at the chosen scale, writes each one's raw rows to
``<outdir>/<name>.csv`` (plus a JSON copy), and prints a summary.

Usage::

    python scripts/reproduce_all.py [--scale paper|small] [--outdir results]
                                    [--trace DIR]

The experiments run one after another in this process; runs they share
are computed once (``run_method``'s in-process cache).  ``--trace DIR``
records one event-trace file per run into DIR (summarize with
``python -m repro trace``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.analysis.export import rows_to_csv, rows_to_json
from repro.analysis.tables import format_table
from repro.experiments.__main__ import EXPERIMENTS, _run
from repro.experiments import get_scale
from repro.experiments.runners import trace_runs_into


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", default="paper",
                        choices=("paper", "small"))
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--trace", default=None, metavar="DIR",
                        help="record one event-trace file per run into DIR "
                             "(default: off)")
    args = parser.parse_args(argv)
    scale = get_scale(args.scale)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    t_start = time.perf_counter()
    with trace_runs_into(args.trace):
        for name in EXPERIMENTS:
            t0 = time.perf_counter()
            rows = _run(name, scale)
            dt = time.perf_counter() - t0
            rows_to_csv(rows, outdir / f"{name}.csv")
            rows_to_json(rows, outdir / f"{name}.json")
            print(format_table(rows, title=f"{name} ({scale.name} scale, "
                                           f"{dt:.1f}s)", digits=4))
            print()
    total = time.perf_counter() - t_start
    print(f"all {len(EXPERIMENTS)} experiments regenerated in "
          f"{total:.0f}s; raw rows in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
