"""Fork-based workers: a persistent task pool and a one-shot child.

:class:`ForkTaskPool` runs coarse pickled tasks for
:mod:`repro.experiments.parallel` over forked processes instead of a
spawn-based ``ProcessPoolExecutor``: spawned workers re-import the
package per pool, forked ones inherit it.  :class:`ForkedCall` runs one
function in one forked child while the parent works on — the
partitioner's second bisection half (DESIGN.md §5.10).

Sandboxes routinely forbid forking (the case
``experiments/parallel.py`` has always degraded around): a constructor
failure surfaces as :class:`ForkUnavailable` (pool) or ``OSError``
(one-shot child) so callers can fall back to the single-process path
instead of crashing.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import signal
import struct

__all__ = ["ForkTaskPool", "ForkUnavailable", "ForkedCall", "WorkerDied",
           "in_pool_worker"]


class ForkUnavailable(RuntimeError):
    """The environment forbids forking worker processes."""


class WorkerDied(RuntimeError):
    """A forked worker exited without sending its result."""


#: set in every :class:`ForkTaskPool` worker: code that could fork on its
#: own stays serial there, so ``n`` workers never become ``2n`` processes
_in_worker = False


def in_pool_worker() -> bool:
    """True inside a :class:`ForkTaskPool` worker process."""
    return _in_worker


_LEN = struct.Struct("<Q")


def _write_frame(fd: int, payload: bytes) -> None:
    data = _LEN.pack(len(payload)) + payload
    while data:
        n = os.write(fd, data)
        data = data[n:]


def _read_frame(fd: int) -> bytes | None:
    head = _read_exact(fd, _LEN.size)
    if head is None:
        return None
    (n,) = _LEN.unpack(head)
    return _read_exact(fd, n)


def _read_exact(fd: int, n: int) -> bytes | None:
    buf = b""
    while len(buf) < n:
        chunk = os.read(fd, n - len(buf))
        if not chunk:
            return None
        buf += chunk
    return buf


class _TaskError:
    """Pickled marker carrying a worker-side exception back."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def _outcome(fn, *args):
    """``fn(*args)``, or its exception wrapped as a :class:`_TaskError`."""
    try:
        return fn(*args)
    except BaseException as exc:                # ship the failure back
        return _TaskError(exc)


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


class ForkedCall:
    """``fn()`` evaluated in one forked child while the parent works on.

    The constructor forks; its ``OSError`` propagates so a caller can call
    ``fn`` itself instead.  :meth:`result` blocks for the child's value,
    re-raises the child's exception with its type, or raises
    :class:`WorkerDied` when the child exits without sending one — EOF on
    the pipe, never a hang.  The child leaves through ``os._exit``;
    leaving the ``with`` block kills a child whose result was never
    collected, and the parent always reaps it.
    """

    def __init__(self, fn) -> None:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
            raise
        if pid == 0:                            # ---- child
            status = 0
            try:
                os.close(r)
                _write_frame(w, _dumps(_outcome(fn)))
            except BaseException:               # pragma: no cover - child
                status = 1
            finally:
                os._exit(status)
        os.close(w)
        self._fd, self._pid = r, pid

    def result(self):
        """Block for ``fn()``'s value and reap the child."""
        frame = _read_frame(self._fd)
        self._reap(kill=frame is None)
        if frame is None:
            raise WorkerDied("forked child exited without a result")
        out = pickle.loads(frame)
        if isinstance(out, _TaskError):
            raise out.exc
        return out

    def _reap(self, kill: bool) -> None:
        if self._pid is None:
            return
        os.close(self._fd)
        if kill:
            os.kill(self._pid, signal.SIGKILL)  # a zombie takes it too
        os.waitpid(self._pid, 0)
        self._pid = None

    def __enter__(self) -> "ForkedCall":
        return self

    def __exit__(self, *exc) -> None:
        self._reap(kill=True)


class ForkTaskPool:
    """Persistent forked workers running pickled ``(index, item)`` tasks.

    The sweep runner's replacement for its spawn-based pool: ``fn`` and
    the loaded package come along through the fork, so a worker costs one
    ``fork()`` instead of a fresh interpreter plus re-import.  Results
    stream back over pipes; :meth:`map_indexed` multiplexes over all
    workers with ``select`` so one slow task never blocks dispatch to an
    idle process.  Workers see :func:`in_pool_worker` return True.
    """

    def __init__(self, n: int, fn) -> None:
        if not hasattr(os, "fork"):
            raise ForkUnavailable("os.fork is not available on this platform")
        self.n = n
        self._task_w: list[int] = []
        self._res_r: list[int] = []
        self._pids: list[int] = []
        self._closed = False
        try:
            for _ in range(n):
                task_r, task_w = os.pipe()
                res_r, res_w = os.pipe()
                pid = os.fork()
                if pid == 0:                    # ---- child
                    status = 0
                    try:
                        os.close(task_w)
                        os.close(res_r)
                        for fd in self._task_w + self._res_r:
                            os.close(fd)
                        self._serve(fn, task_r, res_w)
                    except BaseException:       # pragma: no cover - child
                        status = 1
                    finally:
                        os._exit(status)
                os.close(task_r)
                os.close(res_w)
                self._task_w.append(task_w)
                self._res_r.append(res_r)
                self._pids.append(pid)
        except OSError as exc:
            self.close()
            raise ForkUnavailable(f"cannot fork workers: {exc}") from exc
        self._atexit = atexit.register(self.close)

    @staticmethod
    def _serve(fn, task_r: int, res_w: int) -> None:
        global _in_worker
        _in_worker = True
        while True:
            frame = _read_frame(task_r)
            if frame is None:
                return
            idx, item = pickle.loads(frame)
            _write_frame(res_w, _dumps((idx, _outcome(fn, item))))

    # ------------------------------------------------------------------
    def map_indexed(self, items: dict):
        """Run ``{index: item}``; yield ``(index, result)`` as they finish.

        A worker-side exception is re-raised here (after the pool is
        closed) so callers can degrade exactly like a died
        ``ProcessPoolExecutor``.
        """
        if self._closed:
            raise RuntimeError("task pool is closed")
        pending = list(items.items())
        busy: dict[int, bool] = {}
        idle = list(range(self.n))
        inflight = 0
        while pending or inflight:
            while pending and idle:
                w = idle.pop()
                idx, item = pending.pop(0)
                _write_frame(self._task_w[w], _dumps((idx, item)))
                busy[self._res_r[w]] = True
                inflight += 1
            ready, _, _ = select.select(list(busy), [], [])
            for fd in ready:
                frame = _read_frame(fd)
                if frame is None:
                    self.close()
                    raise WorkerDied("sweep worker died")
                idx, out = pickle.loads(frame)
                if isinstance(out, _TaskError):
                    self.close()
                    raise out.exc
                del busy[fd]
                idle.append(self._res_r.index(fd))
                inflight -= 1
                yield idx, out

    def close(self) -> None:
        """Close the task pipes and reap every worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for fd in self._task_w + self._res_r:
            try:
                os.close(fd)
            except OSError:
                pass
        for pid in self._pids:
            try:
                os.waitpid(pid, 0)
            except (ChildProcessError, OSError):
                pass
        if getattr(self, "_atexit", None) is not None:
            atexit.unregister(self._atexit)
            self._atexit = None

    def __enter__(self) -> "ForkTaskPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
