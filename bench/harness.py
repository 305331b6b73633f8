"""Measurement plumbing shared by the benchmark's passes.

Nothing here imports ``repro``: spans, order statistics, the timed-segment
rule, the calibration probe and the leak guards are about *how* the
benchmark measures, not about what it measures.

Timing rule (bench/README.md gives the history and the data): every
timing the benchmark reports is the fastest of many short rounds inside
one process — the rounds do bit-identical work and this box's noise only
ever adds time — with the median and quartiles kept beside it; each
timed segment runs with the cyclic collector off after a full
collection, and the clock is ``time.perf_counter``.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "LeakGuard",
    "Spans",
    "calibration_probe",
    "quartiles",
    "spread",
    "stop_resource_tracker",
    "summary",
    "timed_segment",
]


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the acceptance check applies to run sets.  One
    value is its own three quartiles."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no values")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when every
    value is equal, ``inf`` when they differ around a zero median)."""
    q1, med, q3 = quartiles(values)
    if q3 == q1:
        return 0.0
    return (q3 - q1) / abs(med) if med else float("inf")


def summary(values) -> dict:
    """Fastest sample, median, quartiles and count of one timing."""
    q1, med, q3 = quartiles(values)
    return {"min": min(values), "median": med, "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Spans:
    """In-memory span table: name, parent, start, end, optional tag.

    Spans nest strictly (one client, one thread), so the open spans form
    a stack and a span's parent is whatever was open when it began.  The
    table is columnar — five parallel lists — so recording costs one
    clock read and five appends, and the span file is compact.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.tags: list = []
        self._open: list[int] = []

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.tags.append(tag)
        self.t1.append(0.0)
        self._open.append(idx)
        self.t0.append(time.perf_counter())
        return idx

    def end(self) -> int:
        t = time.perf_counter()
        idx = self._open.pop()
        self.t1[idx] = t
        return idx

    @contextmanager
    def span(self, name: str, tag=None):
        idx = self.begin(name, tag)
        try:
            yield idx
        finally:
            self.end()

    def duration(self, idx: int) -> float:
        return self.t1[idx] - self.t0[idx]

    # -- analysis -------------------------------------------------------
    def subtree(self, root: int) -> list[int]:
        """``root`` and every span below it, in recording order (which is
        depth-first, so the subtree is one contiguous run of the table)."""
        inside = {root}
        out = [root]
        for i in range(root + 1, len(self.names)):
            if self.parents[i] not in inside:
                break
            inside.add(i)
            out.append(i)
        return out

    def self_times(self, root: int) -> dict[int, float]:
        """Self time of every span under ``root``: its duration minus the
        part of its interval its child spans cover (children are clipped
        to the parent and overlaps counted once, so a mis-nested span
        shows as self times that do not sum to the root)."""
        ids = self.subtree(root)
        kids: dict[int, list[int]] = {i: [] for i in ids}
        for i in ids[1:]:
            kids[self.parents[i]].append(i)
        out = {}
        for i in ids:
            lo, hi = self.t0[i], self.t1[i]
            covered = 0.0
            edge = lo
            for k in kids[i]:       # recording order == start order
                a = max(self.t0[k], edge)
                b = min(self.t1[k], hi)
                if b > a:
                    covered += b - a
                    edge = b
            out[i] = (hi - lo) - covered
        return out

    def totals(self, root: int) -> tuple[dict[str, float], dict[str, float],
                                         dict[str, int]]:
        """``(duration, self time, span count)`` by name under ``root``."""
        selfs = self.self_times(root)
        dur: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        for i, s in selfs.items():
            name = self.names[i]
            dur[name] = dur.get(name, 0.0) + self.duration(i)
            own[name] = own.get(name, 0.0) + s
            count[name] = count.get(name, 0) + 1
        return dur, own, count

    def dump(self, path: Path, meta: dict) -> None:
        """Write the span file (columnar JSON, names interned)."""
        uniq = sorted(set(self.names))
        code = {n: k for k, n in enumerate(uniq)}
        doc = {
            "schema": "repro.bench.spans/v1",
            "meta": meta,
            "names": uniq,
            "name": [code[n] for n in self.names],
            "parent": self.parents,
            "t0": self.t0,
            "t1": self.t1,
            "tag": self.tags,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# timed segments and the noise probe
# ----------------------------------------------------------------------
@contextmanager
def timed_segment():
    """A timed segment: full collection first, cyclic GC off inside, so
    a collection triggered by one round's garbage never lands in the
    next round's timing."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def calibration_probe() -> float:
    """Seconds a fixed interpreter-bound loop takes (≈40 ms here).

    The workloads are interpreter-bound, so a fixed pure-python loop
    sees the same disturbances they do (a busy sibling core, frequency
    steps, a noisy neighbour on the host).  One probe per round; the
    max/min over a run is ``noise.calib_spread``.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(600_000):
        acc += i & 7
    dt = time.perf_counter() - t0
    if acc < 0:             # keeps the loop's result live
        raise AssertionError
    return dt


# ----------------------------------------------------------------------
# leak guards
# ----------------------------------------------------------------------
_SHM_DIR = Path("/dev/shm")


def _own_segments() -> set[str]:
    """POSIX shared-memory segments this user owns (python names them
    ``psm_*``); empty where ``/dev/shm`` does not exist."""
    out = set()
    try:
        entries = list(os.scandir(_SHM_DIR))
    except OSError:
        return out
    uid = os.getuid()
    for e in entries:
        try:
            if e.name.startswith("psm_") and e.stat().st_uid == uid:
                out.add(e.name)
        except OSError:
            pass                # vanished between scandir and stat
    return out


def stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's resource-tracker helper.

    The standard library starts that process the first time a
    shared-memory segment is created (the shm probe does) and leaves it
    running until the interpreter exits, un-waited-for.  The benchmark
    reports only after everything it started has ended, so it stops the
    helper itself; ``_stop`` closes the pipe and waits for the process.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class LeakGuard:
    """Snapshot at start; :meth:`leaks` lists what outlived the run."""

    def __init__(self) -> None:
        self._threads = {t.ident for t in threading.enumerate()}
        self._segments = _own_segments()

    def leaks(self) -> list[str]:
        found = []
        for t in threading.enumerate():
            if t.ident not in self._threads:
                found.append(f"thread {t.name!r} still alive")
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
            found.append("child process still running" if pid == 0
                         else f"child process {pid} was never waited for")
        except ChildProcessError:
            pass                # no children at all: the good case
        for name in sorted(_own_segments() - self._segments):
            found.append(f"shared-memory segment {name} not unlinked")
        return found
