"""Pluggable kernel backends for the sparse substrate.

Every solver in the package bottoms out in three primitives — CSR
matrix-vector product, sparse lower-triangular solve, and the
Gauss-Seidel sweep built from them.  This module makes those primitives
*dispatchable*: a registry of named backends, each implementing the same
small :class:`KernelBackend` interface, selectable globally via
:func:`set_backend`, per-scope via :func:`use_backend`, or from the
environment with ``REPRO_BACKEND``.

Backends
--------
``reference``
    The original pure-numpy code (``np.bincount`` gather for matvec, a
    python forward-substitution loop for triangular solves).  Kept
    verbatim as ground truth: running with ``REPRO_BACKEND=reference``
    reproduces the seed implementation bit-for-bit.
``scipy``
    Compiled kernels through the ``CSRMatrix.to_scipy()`` cached handle:
    ``csr_matvec``/``csc_matvec`` from ``scipy.sparse._sparsetools``
    (accumulating directly into a caller-supplied output buffer, so
    ``matvec(out=...)`` performs no allocation) and
    ``spsolve_triangular`` for the sweep factors.  The default.
``numba``
    Optional nopython kernels (CSR matvec, forward/backward triangular
    solve, and a *fused* Gauss-Seidel sweep that never forms the
    triangular factor).  Auto-registered only when numba imports; the
    one-time JIT warm-up happens at backend activation.  When numba is
    absent, selection falls back to the default with a warning — it is
    never a hard dependency.

The interface is deliberately small and operates on :class:`CSRMatrix`
duck-typed attributes (``indptr``/``indices``/``data``/``shape`` plus
the cached-factor helpers), so this module never imports the matrix
class and stays import-cycle free.
"""

from __future__ import annotations

import contextlib
import warnings

import numpy as np

from repro import config as _config

__all__ = [
    "KernelBackend",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "set_backend",
    "use_backend",
]

#: environment variable consulted for the initial backend choice
#: (read through :mod:`repro.config`, the central knob module)
ENV_VAR = _config.ENV_BACKEND


# ----------------------------------------------------------------------
# shared reference implementations (also reused by kernels.py)
# ----------------------------------------------------------------------
def reference_lower_solve(L, b: np.ndarray,
                          unit_diagonal: bool = False) -> np.ndarray:
    """Solve ``L y = b`` by forward substitution (pure python, row loop).

    Strictly-upper entries, if present, are an error.  This is the
    ground-truth implementation every compiled path is validated
    against.
    """
    n = L.n_rows
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(n)
    for i in range(n):
        cols, vals = L.row(i)
        if cols.size and cols[-1] > i:
            raise ValueError("matrix has entries above the diagonal")
        diag = 1.0
        acc = b[i]
        for c, v in zip(cols, vals):
            if c == i:
                diag = v
            else:
                acc -= v * y[c]
        if not unit_diagonal:
            if diag == 0.0:
                raise ZeroDivisionError(f"zero diagonal at row {i}")
            acc /= diag
        y[i] = acc
    return y


# ----------------------------------------------------------------------
# interface
# ----------------------------------------------------------------------
class KernelBackend:
    """Interface of one kernel implementation set.

    Subclasses provide ``matvec``/``rmatvec``/``solve_lower``;
    :meth:`gauss_seidel_sweep` has a generic implementation through the
    matrix's cached ``L+D`` factor which fused backends may override.
    Instances are stateless beyond one-time setup, so one instance per
    backend is shared process-wide.
    """

    #: registry key; subclasses set it
    name = "abstract"

    def matvec(self, A, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """``A @ x`` into ``out`` if given (no allocation on that path)."""
        raise NotImplementedError  # pragma: no cover

    def matvec_plan(self, A):
        """Return ``f(x, out)`` computing ``A @ x`` into ``out``.

        The plan binds ``A``'s current storage so the per-call dispatch
        (handle lookups, layout checks) is paid once instead of per
        product — the block methods call it thousands of times per
        parallel step on the frozen coupling blocks.  Bit-identical to
        ``matvec(A, x, out=out)``.  Preconditions the block methods
        guarantee: ``x``/``out`` are contiguous float64 of the right
        shape, and ``A.data`` is never rebound while the plan is live.
        """
        def plan(x, out, _mv=self.matvec, _A=A):
            _mv(_A, x, out=out)
        return plan

    def csr_matvec(self, indptr: np.ndarray, indices: np.ndarray,
                   data: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """``out = A @ x`` over raw CSR arrays whose ``indptr`` may be a
        slice of a larger store's; rows sum in entry order, as matvec."""
        lo, hi = int(indptr[0]), int(indptr[-1])
        rows = np.repeat(np.arange(out.size), np.diff(indptr))
        out[:] = np.bincount(rows, weights=data[lo:hi] * x[indices[lo:hi]],
                             minlength=out.size)

    def rmatvec(self, A, y: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
        """``A.T @ y`` without forming the transpose."""
        raise NotImplementedError  # pragma: no cover

    def solve_lower(self, L, b: np.ndarray,
                    unit_diagonal: bool = False) -> np.ndarray:
        """Solve ``L y = b`` for lower-triangular ``L``."""
        raise NotImplementedError  # pragma: no cover

    def gauss_seidel_sweep(self, A, x: np.ndarray, b: np.ndarray,
                           r: np.ndarray | None = None) -> np.ndarray:
        """One forward GS sweep ``x + (L+D)^{-1} (b - A x)``.

        ``r`` is the current residual if already known (skips a matvec).
        """
        x = np.asarray(x, dtype=np.float64)
        if r is None:
            r = np.asarray(b, dtype=np.float64) - self.matvec(A, x)
        dx = self.solve_lower(A.ld_factor(), r)
        return x + dx

    # ---- partitioner kernels (setup plane, DESIGN.md §5.10) ----------
    #
    # These dispatch the two sequential-greedy hot loops of the
    # multilevel partitioner.  Every implementation must reproduce the
    # seed's decision sequence bit-for-bit (pinned partition digests);
    # the default is the list-based fast path in
    # ``repro.partition._kernels``, imported lazily to stay cycle-free.

    def hem_match(self, graph, perm: np.ndarray) -> np.ndarray:
        """Heavy-edge matching of ``graph`` over the ``perm`` visit order."""
        from repro.partition import _kernels
        return _kernels.hem_match_fast(graph, perm)

    def fm_refine(self, graph, side: np.ndarray, target0: float, lo: float,
                  hi: float, max_passes: int,
                  stall_limit: int) -> np.ndarray:
        """FM boundary refinement of a bisection (in place on ``side``)."""
        from repro.partition import _kernels
        return _kernels.fm_refine_fast(graph, side, target0, lo, hi,
                                       max_passes, stall_limit)

    def warm_up(self) -> None:
        """One-time setup (JIT compilation); called on activation."""


# ----------------------------------------------------------------------
# reference backend — the seed pure-numpy code, kept as ground truth
# ----------------------------------------------------------------------
class ReferenceBackend(KernelBackend):
    """The original vectorised-numpy kernels (bit-identical to seed)."""

    name = "reference"

    def matvec(self, A, x, out=None):
        contrib = A.data * x[A.indices]
        y = np.bincount(A._expanded_row_ids(), weights=contrib,
                        minlength=A.n_rows)
        if out is not None:
            out[:] = y
            return out
        return y

    def rmatvec(self, A, y, out=None):
        contrib = A.data * y[A._expanded_row_ids()]
        x = np.bincount(A.indices, weights=contrib, minlength=A.n_cols)
        if out is not None:
            out[:] = x
            return out
        return x

    def solve_lower(self, L, b, unit_diagonal=False):
        return reference_lower_solve(L, b, unit_diagonal=unit_diagonal)

    def hem_match(self, graph, perm):
        from repro.partition import _kernels
        return _kernels.hem_match_reference(graph, perm)

    def fm_refine(self, graph, side, target0, lo, hi, max_passes,
                  stall_limit):
        from repro.partition import _kernels
        return _kernels.fm_refine_reference(graph, side, target0, lo, hi,
                                            max_passes, stall_limit)


# ----------------------------------------------------------------------
# scipy backend — compiled kernels through the cached scipy handle
# ----------------------------------------------------------------------
class SciPyBackend(KernelBackend):
    """Compiled CSR kernels from scipy (the default backend).

    ``matvec(out=...)``/``rmatvec(out=...)`` call the ``_sparsetools``
    accumulation kernels directly so the caller's buffer is the only
    output array touched; without ``out`` they fall back to the public
    operator product.  Triangular solves go through
    ``spsolve_triangular`` on the factor's cached scipy handle.
    """

    name = "scipy"

    def __init__(self):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        self._sp = sp
        self._spla = spla
        try:
            from scipy.sparse import _sparsetools
            self._csr_matvec = _sparsetools.csr_matvec
            self._csc_matvec = _sparsetools.csc_matvec
        except (ImportError, AttributeError):  # pragma: no cover
            self._csr_matvec = None
            self._csc_matvec = None

    @staticmethod
    def _writable_contig(out) -> bool:
        return out.flags.c_contiguous and out.flags.writeable

    def matvec(self, A, x, out=None):
        S = A.to_scipy()
        if out is None:
            return S @ x
        if self._csr_matvec is None or not self._writable_contig(out):
            out[:] = S @ x          # pragma: no cover - fallback path
            return out
        x = np.ascontiguousarray(x, dtype=np.float64)
        out[:] = 0.0
        m, n = A.shape
        self._csr_matvec(m, n, S.indptr, S.indices, S.data, x, out)
        return out

    def matvec_plan(self, A):
        if self._csr_matvec is None:  # pragma: no cover - scipy too old
            return super().matvec_plan(A)
        m, n = A.shape
        S = A._derived_cache().get("scipy")
        if S is None:
            # no handle yet (the block methods' diagonal and throw-away
            # stacked fan-out blocks): the kernel needs only the three
            # arrays, so bind them under scipy's own index-dtype rule
            # instead of constructing a csr_matrix per block
            idt = (np.int32 if max(m, n, A.nnz) <= np.iinfo(np.int32).max
                   else np.int64)
            indptr = A.indptr.astype(idt, copy=False)
            indices = A.indices.astype(idt, copy=False)
            data = A.data
        else:
            indptr, indices, data = S.indptr, S.indices, S.data

        def plan(x, out, _kernel=self._csr_matvec, _m=m, _n=n,
                 _indptr=indptr, _indices=indices, _data=data):
            out[:] = 0.0
            _kernel(_m, _n, _indptr, _indices, _data, x, out)
        return plan

    def csr_matvec(self, indptr, indices, data, x, out):
        if self._csr_matvec is None:  # pragma: no cover - scipy too old
            return super().csr_matvec(indptr, indices, data, x, out)
        out[:] = 0.0
        self._csr_matvec(out.size, x.size, indptr, indices, data, x, out)

    def rmatvec(self, A, y, out=None):
        S = A.to_scipy()
        if out is None:
            # CSR of A read as CSC of A.T: one compiled pass, no transpose
            return (S.T @ y) if self._csc_matvec is None else self._rmv(A, S, y)
        if self._csc_matvec is None or not self._writable_contig(out):
            out[:] = S.T @ y        # pragma: no cover - fallback path
            return out
        y = np.ascontiguousarray(y, dtype=np.float64)
        out[:] = 0.0
        m, n = A.shape
        self._csc_matvec(n, m, S.indptr, S.indices, S.data, y, out)
        return out

    def _rmv(self, A, S, y):
        out = np.zeros(A.n_cols)
        y = np.ascontiguousarray(y, dtype=np.float64)
        m, n = A.shape
        self._csc_matvec(n, m, S.indptr, S.indices, S.data, y, out)
        return out

    def solve_lower(self, L, b, unit_diagonal=False):
        return self._spla.spsolve_triangular(
            L.to_scipy(), b, lower=True, unit_diagonal=unit_diagonal)


# ----------------------------------------------------------------------
# numba backend — optional nopython kernels with a fused GS sweep
# ----------------------------------------------------------------------
def _build_numba_kernels():
    """Compile the nopython kernels (raises ImportError without numba)."""
    import numba

    jit = numba.njit(cache=True, fastmath=False)

    @jit
    def nb_matvec(indptr, indices, data, x, out):
        for i in range(out.size):
            acc = 0.0
            for j in range(indptr[i], indptr[i + 1]):
                acc += data[j] * x[indices[j]]
            out[i] = acc

    @jit
    def nb_rmatvec(indptr, indices, data, y, n_rows, out):
        out[:] = 0.0
        for i in range(n_rows):
            yi = y[i]
            for j in range(indptr[i], indptr[i + 1]):
                out[indices[j]] += data[j] * yi

    @jit
    def nb_solve_lower(indptr, indices, data, b, unit_diagonal, out):
        # returns the row index of a zero diagonal, or -1 on success;
        # -2 flags an entry above the diagonal (caller raises)
        n = out.size
        for i in range(n):
            acc = b[i]
            diag = 1.0
            for j in range(indptr[i], indptr[i + 1]):
                c = indices[j]
                if c > i:
                    return -2
                if c == i:
                    diag = data[j]
                else:
                    acc -= data[j] * out[c]
            if not unit_diagonal:
                if diag == 0.0:
                    return i
                acc /= diag
            out[i] = acc
        return -1

    @jit
    def nb_gs_sweep(indptr, indices, data, b, x):
        # fused textbook forward sweep, in place on x
        n = x.size
        for i in range(n):
            acc = b[i]
            diag = 0.0
            for j in range(indptr[i], indptr[i + 1]):
                c = indices[j]
                if c == i:
                    diag = data[j]
                else:
                    acc -= data[j] * x[c]
            x[i] = acc / diag
        return x

    return nb_matvec, nb_rmatvec, nb_solve_lower, nb_gs_sweep


class NumbaBackend(KernelBackend):
    """Nopython CSR kernels (optional; requires numba).

    The Gauss-Seidel sweep is *fused*: one pass over the matrix with no
    triangular factor, no residual vector and no intermediate arrays.
    """

    name = "numba"

    def __init__(self):
        from repro.partition import _kernels

        (self._matvec, self._rmatvec,
         self._solve_lower, self._gs) = _build_numba_kernels()
        self._hem_match, self._fm_pass = _kernels.make_numba_kernels()

    def warm_up(self):
        """Trigger JIT compilation once, on tiny inputs."""
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([0, 1], dtype=np.int64)
        data = np.array([1.0, 2.0])
        v = np.array([1.0, 1.0])
        out = np.empty(2)
        self._matvec(indptr, indices, data, v, out)
        self._rmatvec(indptr, indices, data, v, 2, out)
        self._solve_lower(indptr, indices, data, v, False, out)
        self._gs(indptr, indices, data, v, v.copy())
        # partitioner kernels: a 2-vertex path graph
        xadj = np.array([0, 1, 2], dtype=np.int64)
        adjncy = np.array([1, 0], dtype=np.int64)
        adjwgt = np.array([1.0, 1.0])
        perm = np.array([0, 1], dtype=np.int64)
        self._hem_match(xadj, adjncy, adjwgt, perm)
        side = np.array([0, 1], dtype=np.int8)
        self._fm_pass(xadj, adjncy, adjwgt,
                      np.array([1, 1], dtype=np.int64), side,
                      np.array([2.0, 2.0]), np.array([0, 1], dtype=np.int64),
                      1.0, 1.0, 0.9, 1.1, 4)

    def matvec(self, A, x, out=None):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if out is None:
            out = np.empty(A.n_rows)
        self._matvec(A.indptr, A.indices, A.data, x, out)
        return out

    def matvec_plan(self, A):
        def plan(x, out, _kernel=self._matvec, _indptr=A.indptr,
                 _indices=A.indices, _data=A.data):
            _kernel(_indptr, _indices, _data, x, out)
        return plan

    def rmatvec(self, A, y, out=None):
        y = np.ascontiguousarray(y, dtype=np.float64)
        if out is None:
            out = np.empty(A.n_cols)
        self._rmatvec(A.indptr, A.indices, A.data, y, A.n_rows, out)
        return out

    def solve_lower(self, L, b, unit_diagonal=False):
        b = np.ascontiguousarray(b, dtype=np.float64)
        out = np.empty(L.n_rows)
        status = self._solve_lower(L.indptr, L.indices, L.data, b,
                                   unit_diagonal, out)
        if status == -2:
            raise ValueError("matrix has entries above the diagonal")
        if status >= 0:
            raise ZeroDivisionError(f"zero diagonal at row {status}")
        return out

    def gauss_seidel_sweep(self, A, x, b, r=None):
        if r is not None:
            # identity path keeps the precomputed residual useful
            dx = self.solve_lower(A.ld_factor(), r)
            return np.asarray(x, dtype=np.float64) + dx
        x_new = np.array(x, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        self._gs(A.indptr, A.indices, A.data, b, x_new)
        return x_new

    def hem_match(self, graph, perm):
        return self._hem_match(
            np.ascontiguousarray(graph.xadj, dtype=np.int64),
            np.ascontiguousarray(graph.adjncy, dtype=np.int64),
            np.ascontiguousarray(graph.adjwgt, dtype=np.float64),
            np.ascontiguousarray(perm, dtype=np.int64))

    def fm_refine(self, graph, side, target0, lo, hi, max_passes,
                  stall_limit):
        # pass loop and gain init stay in numpy (identical to the seed);
        # only the sequential move loop is compiled
        xadj = np.ascontiguousarray(graph.xadj, dtype=np.int64)
        adjncy = np.ascontiguousarray(graph.adjncy, dtype=np.int64)
        adjwgt = np.ascontiguousarray(graph.adjwgt, dtype=np.float64)
        vwgt = np.ascontiguousarray(graph.vwgt, dtype=np.int64)
        n = xadj.size - 1
        rows = graph.expanded_rows()
        for _ in range(max_passes):
            same = side[rows] == side[adjncy]
            ext = np.bincount(rows, weights=np.where(same, 0.0, adjwgt),
                              minlength=n)
            int_ = np.bincount(rows, weights=np.where(same, adjwgt, 0.0),
                               minlength=n)
            boundary = np.flatnonzero(ext > 0)
            if boundary.size == 0:
                break
            weight0 = float(vwgt[side == 0].sum())
            best_cum = self._fm_pass(xadj, adjncy, adjwgt, vwgt, side,
                                     ext - int_, boundary, weight0,
                                     float(target0), float(lo), float(hi),
                                     int(stall_limit))
            if best_cum <= 1e-12:
                break
        return side


# ----------------------------------------------------------------------
# registry & selection
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[KernelBackend]] = {}
_INSTANCES: dict[str, KernelBackend] = {}
_current: KernelBackend | None = None


def register_backend(name: str, cls: type[KernelBackend]) -> None:
    """Register a backend class under ``name`` (overwrites silently)."""
    _REGISTRY[name] = cls


register_backend("reference", ReferenceBackend)
register_backend("scipy", SciPyBackend)
register_backend("numba", NumbaBackend)


def default_backend_name() -> str:
    """The backend used when nothing is selected: scipy when importable."""
    try:
        import scipy.sparse  # noqa: F401
        return "scipy"
    except ImportError:  # pragma: no cover - scipy is a hard dependency
        return "reference"


def _instantiate(name: str) -> KernelBackend:
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; registered: {sorted(_REGISTRY)}")
    if name not in _INSTANCES:
        backend = _REGISTRY[name]()     # may raise ImportError (numba)
        backend.warm_up()
        _INSTANCES[name] = backend
    return _INSTANCES[name]


def available_backends() -> list[str]:
    """Registered backends whose dependencies actually import."""
    out = []
    for name in _REGISTRY:
        try:
            _instantiate(name)
        except ImportError:
            continue
        out.append(name)
    return sorted(out)


def set_backend(name: str) -> KernelBackend:
    """Select the process-wide backend; returns the instance.

    Raises ``ValueError`` for unknown names and ``ImportError`` when the
    backend's dependency (numba) is missing.
    """
    global _current
    _current = _instantiate(name)
    return _current


def get_backend() -> KernelBackend:
    """The active backend, resolving ``REPRO_BACKEND`` on first use.

    An unavailable (or misspelled) environment selection degrades to the
    default with a warning instead of breaking import of the package.
    """
    global _current
    if _current is None:
        requested = _config.backend() or ""
        name = requested or default_backend_name()
        try:
            _current = _instantiate(name)
        except (ImportError, ValueError) as exc:
            fallback = default_backend_name()
            warnings.warn(
                f"{ENV_VAR}={requested!r} is not usable ({exc}); "
                f"falling back to {fallback!r}", RuntimeWarning,
                stacklevel=2)
            _current = _instantiate(fallback)
    return _current


@contextlib.contextmanager
def use_backend(name: str):
    """Context manager: run a scope under another backend."""
    global _current
    previous = get_backend()
    _current = _instantiate(name)
    try:
        yield _current
    finally:
        _current = previous
