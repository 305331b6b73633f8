"""Shared run machinery for the experiment drivers.

The heavy artifacts (partitions, block systems, 50-step method runs) are
cached in-process so Tables 2, 3 and 4 — which the paper derives from the
same runs — are computed once, and repeated bench invocations are cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro.api import RunConfig, SolveResult, solve
from repro.core.blockdata import BlockSystem
from repro.core.distributed_southwell_block import DistributedSouthwell
from repro.core.parallel_southwell_block import ParallelSouthwell
from repro.matrices.suite import load_problem
from repro.setupcache import get_setup
from repro.solvers.block_jacobi import BlockJacobi
from repro.trace import NULL_TRACER, RunTracer

__all__ = ["METHOD_LABELS", "METHODS", "clear_run_caches",
           "get_block_system", "run_method", "suite_runs", "trace_runs_into"]

#: method registry in the paper's column order: BJ, PS, DS
METHODS = ("block-jacobi", "parallel-southwell", "distributed-southwell")
METHOD_LABELS = {"block-jacobi": "BJ", "parallel-southwell": "PS",
                 "distributed-southwell": "DS"}
_CLASSES = {"block-jacobi": BlockJacobi,
            "parallel-southwell": ParallelSouthwell,
            "distributed-southwell": DistributedSouthwell}


#: in-process setup LRU: deliberately small — a block system for a big
#: suite matrix holds the permuted matrix, every diagonal block and
#: coupling block plus factorizations, so 64 entries (the old
#: ``lru_cache`` bound) could pin gigabytes.  Cross-invocation reuse is
#: the persistent setup cache's job (``REPRO_SETUP_CACHE``), not this
#: dict's.
_SETUP_LRU: OrderedDict = OrderedDict()
_SETUP_LRU_MAX = 8

#: where :func:`run_method` writes per-run trace files (``None``: runs
#: are not traced); set only inside :func:`trace_runs_into`
_TRACE_DIR: Path | None = None


@contextmanager
def trace_runs_into(directory):
    """Scope in which every (uncached) :func:`run_method` run records a
    trace and writes it into ``directory``, one file per run (``None``:
    runs are not traced)."""
    global _TRACE_DIR
    previous = _TRACE_DIR
    _TRACE_DIR = None if directory is None else Path(directory)
    try:
        yield
    finally:
        _TRACE_DIR = previous


def _problem_and_system(name: str, n_procs: int, size_scale: float = 1.0,
                        seed: int = 0, tracer=NULL_TRACER):
    """The ``(problem, block system)`` pair every run derives from.

    One cache entry serves all three methods *and* both the problem
    metadata and the partitioned system — the single ``load_problem``
    call site for the run machinery.  Misses go through the setup plane
    (:mod:`repro.setupcache`): setup phases land in ``tracer`` and the
    persistent cache is consulted when enabled.
    """
    key = (name, n_procs, size_scale, seed)
    hit = _SETUP_LRU.get(key)
    if hit is not None:
        _SETUP_LRU.move_to_end(key)
        return hit
    prob = load_problem(name, size_scale=size_scale, seed=seed)
    _, system = get_setup(prob.matrix, n_procs, seed=seed, tracer=tracer)
    _SETUP_LRU[key] = (prob, system)
    while len(_SETUP_LRU) > _SETUP_LRU_MAX:
        _SETUP_LRU.popitem(last=False)
    return prob, system


def get_block_system(name: str, n_procs: int, size_scale: float = 1.0,
                     seed: int = 0) -> BlockSystem:
    """Partition + block system for one suite problem (cached)."""
    return _problem_and_system(name, n_procs, size_scale, seed)[1]


def clear_run_caches() -> None:
    """Drop the in-process run caches (results, setup pairs, problems).

    Called by the CLI after a run so a long-lived process does not
    accumulate block systems and results.
    """
    _run_method_cached.cache_clear()
    _SETUP_LRU.clear()
    load_problem.cache_clear()


def run_method(name: str, method: str, n_procs: int, size_scale: float = 1.0,
               max_steps: int = 50, seed: int = 0) -> SolveResult:
    """One cached 50-step run of one method on one suite problem.

    The block system is shared across methods so all three run on
    identical data (the paper's comparison discipline).  Inside
    :func:`trace_runs_into`, each (uncached) run writes its own trace
    file into that directory, named after the task parameters; the
    tracer is live during setup too, so setup phases and setup-cache
    hits/misses appear in the trace (``repro trace FILE`` reports them).
    The trace directory is part of the cache key, so a run traced into
    one directory is never served as another's.
    """
    return _run_method_cached(name, method, n_procs, size_scale,
                              max_steps, seed, _TRACE_DIR)


@lru_cache(maxsize=512)
def _run_method_cached(name: str, method: str, n_procs: int,
                       size_scale: float, max_steps: int, seed: int,
                       trace_dir: Path | None) -> SolveResult:
    tracer = NULL_TRACER if trace_dir is None else RunTracer()
    prob, system = _problem_and_system(name, n_procs, size_scale, seed,
                                       tracer=tracer)
    runner = _CLASSES[method](system, seed=seed, tracer=tracer)
    x0, b = prob.initial_state(seed=seed)
    # the figure experiments are lockstep by construction (their x-axes
    # count parallel steps); the event-driven analog is ``fig8_async``
    res = solve(prob.matrix, b=b, method=runner, x0=x0,
                config=RunConfig(max_steps=max_steps, runtime="flat"))
    if trace_dir is not None:
        fname = (f"{name}-{METHOD_LABELS[method]}-P{n_procs}"
                 f"-x{size_scale:g}-s{seed}.trace.jsonl")
        res.trace_path = str(tracer.save_jsonl(trace_dir / fname))
    return res


@dataclass(frozen=True)
class SuiteRun:
    """All three methods' results for one problem."""

    name: str
    n: int
    results: dict  # method -> SolveResult


def suite_runs(names: tuple[str, ...], n_procs: int, size_scale: float = 1.0,
               max_steps: int = 50, seed: int = 0) -> list[SuiteRun]:
    """Run (or fetch) BJ/PS/DS on every named problem."""
    out = []
    for name in names:
        prob, _ = _problem_and_system(name, n_procs, size_scale, seed)
        results = {m: run_method(name, m, n_procs, size_scale, max_steps,
                                 seed) for m in METHODS}
        out.append(SuiteRun(name=name, n=prob.n, results=results))
    return out
