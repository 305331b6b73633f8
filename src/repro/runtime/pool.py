"""Fork-based persistent task pool for the sweep runner.

:class:`ForkTaskPool` runs coarse pickled tasks for
:mod:`repro.experiments.parallel` over forked processes instead of a
spawn-based ``ProcessPoolExecutor``: spawned workers re-import the
package per pool, forked ones inherit it.

Sandboxes routinely forbid forking (the case
``experiments/parallel.py`` has always degraded around): a constructor
failure surfaces as :class:`ForkUnavailable` so callers can fall back to
the single-process path instead of crashing.
"""

from __future__ import annotations

import atexit
import os
import pickle
import select
import struct

__all__ = ["ForkTaskPool", "ForkUnavailable"]


class ForkUnavailable(RuntimeError):
    """The environment forbids forking worker processes."""


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


class ForkTaskPool:
    """Persistent forked workers running pickled ``(index, item)`` tasks.

    The sweep runner's replacement for its spawn-based pool: ``fn`` and
    the loaded package come along through the fork, so a worker costs one
    ``fork()`` instead of a fresh interpreter plus re-import.  Results
    stream back over pipes; :meth:`map_indexed` multiplexes over all
    workers with ``select`` so one slow task never blocks dispatch to an
    idle process.
    """

    def __init__(self, n: int, fn, init=None) -> None:
        if not hasattr(os, "fork"):
            raise ForkUnavailable("os.fork is not available on this platform")
        self.n = n
        self._task_w: list[int] = []
        self._res_r: list[int] = []
        self._pids: list[int] = []
        self._closed = False
        try:
            for w in range(n):
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
                        if init is not None:
                            init(w)
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
        while True:
            frame = _read_frame(task_r)
            if frame is None:
                return
            idx, item = pickle.loads(frame)
            try:
                out = fn(item)
            except BaseException as exc:        # ship the failure back
                out = _TaskError(exc)
            _write_frame(res_w, pickle.dumps((idx, out),
                                             protocol=pickle.HIGHEST_PROTOCOL))

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
                _write_frame(self._task_w[w], pickle.dumps(
                    (idx, item), protocol=pickle.HIGHEST_PROTOCOL))
                busy[self._res_r[w]] = True
                inflight += 1
            ready, _, _ = select.select(list(busy), [], [])
            for fd in ready:
                frame = _read_frame(fd)
                if frame is None:
                    self.close()
                    raise RuntimeError("sweep worker died")
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
