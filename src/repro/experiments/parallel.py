"""Process-pool sweep runner with an on-disk result cache.

The paper's artifact farms its 14-matrix sweeps out to a cluster; the
reproduction's equivalent is a local process pool.  A *sweep task* is one
``run_method`` invocation — ``(problem, method, P, scale, steps, seed)`` —
and tasks are independent, so a sweep is embarrassingly parallel.

Two layers make repeated sweeps cheap and safe:

- **on-disk cache**: each task's :class:`~repro.api.SolveResult` is
  pickled under a key that includes a digest of the ``repro`` source tree
  (plus the active runtime mode), so results are
  reused across processes *and* invocations but never survive a code
  change that could alter them;
- **graceful degradation**: sandboxes and restricted environments often
  forbid forking — if the pool cannot be built the sweep silently runs
  inline, same results, one process.

The pool itself is :class:`repro.runtime.pool.ForkTaskPool`: the loaded
package and config ride through the fork, so a worker costs one
``fork()`` instead of a fresh interpreter, a re-import and a knob
replay.

Workers default to serial (``workers=0``); opt in per call or with the
``REPRO_WORKERS`` environment variable (``scripts/reproduce_all.py
--workers N`` wires it through).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from repro import config as _config

__all__ = [
    "SweepTask",
    "code_digest",
    "default_cache_dir",
    "run_sweep",
    "task_key",
]


@dataclass(frozen=True)
class SweepTask:
    """One ``run_method`` invocation, hashable and picklable."""

    problem: str
    method: str
    n_procs: int
    size_scale: float = 1.0
    max_steps: int = 50
    seed: int = 0


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
@lru_cache(maxsize=1)
def code_digest() -> str:
    """Digest of the ``repro`` package source (cache-invalidation token).

    Hashes every ``.py`` file under the package root in sorted relative-
    path order, path and contents both, so *any* source change — however
    remote from the solvers — retires all cached sweep results.  Cheap
    insurance: a stale numeric result is far more expensive than a rerun.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def task_key(task: SweepTask) -> str:
    """Stable cache key for one task.

    Includes everything that can change the result: the task parameters,
    the source digest, and the runtime-mode / trace / fault-plan knobs
    (all planes are equivalence-tested and tracing is
    zero-behavior-change, but those are test invariants, not assumptions
    the cache should bake in — and a traced run carries a ``trace_path``
    an untraced cache hit would not).  The runtime knob enters through
    :func:`repro.runtime.flatplane.runtime_mode` rather than the raw
    environment variable, so programmatic overrides (``use_runtime`` /
    ``RunConfig(runtime=...)`` in effect around the sweep) key the cache
    exactly like ``REPRO_RUNTIME`` does.
    """
    from repro.runtime.flatplane import runtime_mode

    parts = (
        "repro.sweep/v1",
        task.problem,
        task.method,
        str(task.n_procs),
        repr(float(task.size_scale)),
        str(task.max_steps),
        str(task.seed),
        code_digest(),
        runtime_mode(),
        _config.trace_spec() or "",
        _config.faults_spec() or "",
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def default_cache_dir() -> Path:
    """``REPRO_SWEEP_CACHE`` if set, else ``~/.cache/repro-southwell``."""
    return _config.sweep_cache()


# ----------------------------------------------------------------------
# cache I/O
# ----------------------------------------------------------------------
def _cache_load(cache: Path, key: str):
    path = cache / f"{key}.pkl"
    try:
        with open(path, "rb") as fh:
            return pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError):
        return None


def _cache_store(cache: Path, key: str, result) -> None:
    """Atomic write (tmp + rename) so concurrent sweeps never read a
    torn pickle; failures are silent — the cache is an optimisation."""
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, cache / f"{key}.pkl")
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError:
        pass


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------
def _run_task(task: SweepTask):
    """Execute one task in the current process (worker or inline)."""
    from repro.experiments.runners import clear_run_caches, run_method
    from repro.runtime.pool import in_pool_worker

    try:
        return run_method(task.problem, task.method, task.n_procs,
                          task.size_scale, task.max_steps, task.seed)
    finally:
        if in_pool_worker():  # pragma: no cover - exercised in forked procs
            # the parent holds the returned result and the disk caches
            # hold everything reusable; keep only the bounded setup LRU
            # so consecutive tasks on one problem share a partition
            clear_run_caches(keep_setup=True)


def run_sweep(tasks, workers: int | None = None,
              cache_dir: Path | str | None = None,
              use_cache: bool = True) -> list:
    """Run every task, in task order, returning their ``SolveResult``\\ s.

    ``workers=None`` reads ``REPRO_WORKERS`` (default 0); values < 2 run
    inline.  Cache hits never touch the pool.  If the pool cannot be
    created or dies (sandboxed environments), the remaining tasks run
    inline — a sweep degrades, it does not fail.
    """
    tasks = [t if isinstance(t, SweepTask) else SweepTask(*t)
             for t in tasks]
    if workers is None:
        workers = _config.workers()
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    results: list = [None] * len(tasks)
    todo: list[int] = []
    keys = [task_key(t) if use_cache else "" for t in tasks]
    for i, t in enumerate(tasks):
        hit = _cache_load(cache, keys[i]) if use_cache else None
        if hit is not None:
            results[i] = hit
        else:
            todo.append(i)

    computed = list(todo)
    if todo and workers > 1:
        todo = _run_pool(tasks, todo, results, workers)
    for i in todo:                      # inline: remainder / fallback
        results[i] = _run_task(tasks[i])
    if use_cache:
        for i in computed:
            _cache_store(cache, keys[i], results[i])
    return results


def _run_pool(tasks, todo, results, workers) -> list[int]:
    """Try the fork pool for ``todo``; return indices still unrun."""
    from repro.runtime.pool import ForkTaskPool, ForkUnavailable

    done: set[int] = set()
    try:
        with ForkTaskPool(min(workers, len(todo)), _run_task) as pool:
            for i, out in pool.map_indexed({i: tasks[i] for i in todo}):
                results[i] = out
                done.add(i)
        return []
    except (OSError, ImportError, PermissionError, RuntimeError,
            ForkUnavailable):
        # no forking in this environment, or a worker died mid-sweep:
        # degrade inline for whatever is still missing
        return [i for i in todo if i not in done]
