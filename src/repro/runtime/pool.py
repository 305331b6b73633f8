"""A one-shot forked child: :class:`ForkedCall`.

:class:`ForkedCall` runs one function in one forked child while the
parent works on — the partitioner's second bisection half (DESIGN.md
§5.10).  The child writes one pickle to a pipe and exits; the parent
reads the pipe to EOF.

Sandboxes routinely forbid forking: the constructor's ``OSError``
propagates so the caller can run the function itself instead of
crashing.
"""

from __future__ import annotations

import os
import pickle
import signal

__all__ = ["ForkedCall", "WorkerDied"]


class WorkerDied(RuntimeError):
    """A forked worker exited without sending its result."""


class _TaskError:
    """Pickled marker carrying a worker-side exception back."""

    def __init__(self, exc: BaseException) -> None:
        self.exc = exc


def _outcome(fn):
    """``fn()``, or its exception wrapped as a :class:`_TaskError`."""
    try:
        return fn()
    except BaseException as exc:                # ship the failure back
        return _TaskError(exc)


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


class ForkedCall:
    """``fn()`` evaluated in one forked child while the parent works on.

    The constructor forks; its ``OSError`` propagates so a caller can call
    ``fn`` itself instead.  :meth:`result` blocks for the child's value,
    re-raises the child's exception with its type, or raises
    :class:`WorkerDied` when the child exits without sending a whole
    pickle — an empty or truncated payload at EOF, never a hang.  The
    child leaves through ``os._exit``; leaving the ``with`` block kills a
    child whose result was never collected, and the parent always reaps
    it.
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
                with os.fdopen(w, "wb") as out:
                    pickle.dump(_outcome(fn), out,
                                protocol=pickle.HIGHEST_PROTOCOL)
            except BaseException:               # pragma: no cover - child
                status = 1
            finally:
                os._exit(status)
        os.close(w)
        self._fd, self._pid = r, pid

    def result(self):
        """Block for ``fn()``'s value and reap the child."""
        payload = _read_all(self._fd)
        try:
            out = pickle.loads(payload)
        except (EOFError, pickle.UnpicklingError):  # empty or truncated
            self._reap(kill=True)
            raise WorkerDied("forked child exited without a result") \
                from None
        self._reap(kill=False)
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
