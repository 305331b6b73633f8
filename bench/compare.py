#!/usr/bin/env python3
"""Compare two sets of benchmark result files (the A/A and A/B tool).

    python3 bench/compare.py --a runs/parent --b runs/change
    python3 bench/compare.py --a runs/first --record bench/BASELINE.json

Each set is the ``--out`` files of several ``bench/run.py --trace 0``
runs (directories are searched for ``*.json``).  Per (workload, metric)
the table shows each side's median and quartiles over its runs, the
change toward *worse* as a share of A's median, the bound from
``BENCHMARK.json``, and a verdict:

``agree``
    B's median is no worse than A's by more than the bound.
``worse``
    it is — the exit code is then 1.
``unresolved``
    one side's own quartile spread is wider than the bound, so the
    comparison cannot tell — unless every B run beats every A run.

``failed_rounds`` (rounds that failed an output check, totalled over the
set; ``run.py`` prints no result when there are any, so a set that has
results reads 0) is compared with bound 0: any rise is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from harness import quartiles, spread  # noqa: E402

FAILED = ("failed_rounds", "count", "lower", 0.0)


def load_specs(path: Path | None = None) -> tuple[list, list]:
    """``(workload names, [(metric, unit, better, bound), ...])`` from
    ``BENCHMARK.json`` plus the ``failed_rounds`` pseudo-metric."""
    doc = json.loads((path or BENCH_DIR.parent / "BENCHMARK.json")
                     .read_text())
    metrics = [(m["name"], m["unit"], m["better"], m["bound"])
               for m in doc["end_to_end"]]
    return [w["name"] for w in doc["workloads"]], metrics + [FAILED]


def load_set(paths) -> tuple[dict, list, dict | None]:
    """``({workload: {metric: [value per run]}}, traced docs, the box the
    first run was made on)``."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs: dict[str, dict[str, list[float]]] = {}
    traced = []
    env = None
    for f in files:
        doc = json.loads(f.read_text())
        if "metrics" not in doc or "workload" not in doc or doc.get("smoke"):
            continue
        env = env or doc.get("env")
        if doc.get("trace"):
            traced.append(doc)
            continue
        per = runs.setdefault(doc["workload"], {})
        for name, m in doc["metrics"].items():
            per.setdefault(name, []).append(float(m["value"]))
        per.setdefault(FAILED[0], []).append(float(doc["failed"]))
    return runs, traced, env


def worsening(a_med: float, b_med: float, better: str) -> float:
    """B's change toward worse, as a share of A's median."""
    delta = b_med - a_med if better == "lower" else a_med - b_med
    if delta == 0:
        return 0.0
    return delta / abs(a_med) if a_med else float("inf") * delta


def verdict(a, b, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` for one (workload, metric) pair."""
    (_, a_med, _), (_, b_med, _) = quartiles(a), quartiles(b)
    change = worsening(a_med, b_med, better)
    if better == "lower":
        b_beats_a = max(b) < min(a)
    else:
        b_beats_a = min(b) > max(a)
    if b_beats_a:
        return "agree", change
    if spread(a) > bound or spread(b) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "agree"), change


def compare(a_runs: dict, b_runs: dict, workloads, metrics) -> list[dict]:
    rows = []
    for wl in workloads:
        if wl not in a_runs or wl not in b_runs:
            continue
        for name, unit, better, bound in metrics:
            a, b = a_runs[wl].get(name), b_runs[wl].get(name)
            if not a or not b:
                continue
            if name == FAILED[0]:
                # any failure in the set counts, so totals, not medians
                a, b = [sum(a)], [sum(b)]
            v, change = verdict(a, b, better, bound)
            rows.append({"workload": wl, "metric": name, "unit": unit,
                         "a": quartiles(a), "b": quartiles(b),
                         "n": (len(a), len(b)), "worse_by": change,
                         "bound": bound, "verdict": v})
    return rows


def _fmt(q) -> str:
    q1, med, q3 = q
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def print_table(rows) -> None:
    print(f"{'workload':<18}{'metric':<17}{'A median [q1, q3]':<36}"
          f"{'B median [q1, q3]':<36}{'worse by':>9}{'bound':>7}  verdict")
    for r in rows:
        print(f"{r['workload']:<18}{r['metric']:<17}{_fmt(r['a']):<36}"
              f"{_fmt(r['b']):<36}{r['worse_by']:>+9.2%}{r['bound']:>7.1%}"
              f"  {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("agree", "worse", "unresolved")}
    print(f"{len(rows)} pairs: {counts['agree']} agree, "
          f"{counts['worse']} worse, {counts['unresolved']} unresolved")


def record(runs: dict, traced: list, env, workloads, metrics,
           path: Path) -> None:
    """Write one set's summary as the recorded baseline: per (workload,
    metric) median, quartiles and spread over the runs, the box they
    were made on, and each workload's layer shares from its traced runs
    (the run of the lowest seed)."""
    doc = {"schema": "repro.bench.baseline/v1", "environment": env,
           "workloads": {}}
    for wl in workloads:
        if wl not in runs:
            continue
        entry = {"runs": len(next(iter(runs[wl].values()))), "metrics": {}}
        for name, unit, better, bound in metrics:
            vals = runs[wl].get(name)
            if vals:
                q1, med, q3 = quartiles(vals)
                entry["metrics"][name] = {
                    "unit": unit, "better": better, "bound": bound,
                    "median": med, "q1": q1, "q3": q3,
                    "spread": spread(vals)}
        mine = sorted((d for d in traced if d["workload"] == wl),
                      key=lambda d: d["seed"])
        if mine:
            entry["layer_shares"] = mine[0]["layer_shares"]
            entry["trace_overhead_frac"] = \
                mine[0]["metrics"]["trace.overhead_frac"]["value"]
        doc["workloads"][wl] = entry
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True,
                    help="result files or directories of set A (the base)")
    ap.add_argument("--b", nargs="+", default=None,
                    help="result files or directories of set B")
    ap.add_argument("--record", type=Path, default=None,
                    help="write set A's summary here as the baseline")
    args = ap.parse_args(argv)
    if (args.b is None) == (args.record is None):
        ap.error("give exactly one of --b and --record")
    workloads, metrics = load_specs()
    a_runs, a_traced, env = load_set(args.a)
    if not a_runs:
        print("compare: set A holds no untraced result files",
              file=sys.stderr)
        return 2
    if args.record is not None:
        record(a_runs, a_traced, env, workloads, metrics, args.record)
        return 0
    b_runs, _, _ = load_set(args.b)
    rows = compare(a_runs, b_runs, workloads, metrics)
    if not rows:
        print("compare: the two sets share no workload", file=sys.stderr)
        return 2
    print_table(rows)
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
