"""Scalar (one row per process) forms of the Southwell family.

These are the methods of the paper's Figures 2 and 5, and the multigrid
smoother of Figure 6 (all "in scalar form, i.e., subdomain size of 1"):

- :func:`sequential_southwell` — the classic greedy method: relax the row
  with the largest ``|r_i|`` (≡ Gauss-Southwell under the paper's unit-
  diagonal scaling), one row per step;
- :class:`ScalarParallelSouthwell` — relax row ``i`` when ``|r_i|`` is
  maximal in its neighborhood (exact neighbor residuals);
- :class:`ScalarDistributedSouthwell` — the same decision made on *ghost
  estimates*: each directed edge ``i→j`` carries ``z[i→j]``, row ``i``'s
  running copy of ``r_j``, updated locally when ``i`` relaxes and
  overwritten when ``j``'s messages arrive; deadlock is broken with
  explicit residual messages exactly as in the block Algorithm 3.

Everything is vectorised over edges, so a 65k-row grid (Figure 6's 255²)
steps in milliseconds.  Message counting matches the block methods'
categories (solve vs explicit-residual).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.history import ConvergenceHistory
from repro.sparsela import CSRMatrix
from repro.sparsela.csr import _mirror_slots
from repro.sparsela.kernels import residual

__all__ = [
    "EdgeStructure",
    "ScalarDistributedSouthwell",
    "ScalarParallelSouthwell",
    "sequential_southwell",
]


@dataclass
class EdgeStructure:
    """Directed off-diagonal edge layout shared by the scalar methods.

    Edge ``e`` runs ``src[e] → dst[e]`` and carries
    ``coupling[e] = A[dst, src]`` — the coefficient with which a relaxation
    of ``src`` perturbs ``dst``'s residual.  ``rev[e]`` is the index of the
    opposite edge (requires structural symmetry, which the paper's
    symmetrically scaled SPD matrices always have).
    """

    n: int
    src: np.ndarray
    dst: np.ndarray
    coupling: np.ndarray
    rev: np.ndarray
    indptr: np.ndarray          # CSR-style: edges from i are indptr[i]:indptr[i+1]
    diag: np.ndarray

    @classmethod
    def from_matrix(cls, A: CSRMatrix) -> "EdgeStructure":
        if A.n_rows != A.n_cols:
            raise ValueError("scalar methods need a square matrix")
        n = A.n_rows
        At = A.transpose()
        rows = At._expanded_row_ids()
        off = rows != At.indices
        src = rows[off]
        dst = At.indices[off]
        coupling = At.data[off]
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rev = _mirror_slots(src, dst, n)
        if np.any(rev < 0):
            raise ValueError("matrix pattern is not structurally symmetric")
        diag = A.diagonal()
        if np.any(diag == 0.0):
            raise ValueError("zero diagonal entry")
        return cls(n=n, src=src, dst=dst, coupling=coupling, rev=rev,
                   indptr=indptr, diag=diag)

    @property
    def n_edges(self) -> int:
        return int(self.src.size)

    def row_max(self, edge_vals: np.ndarray) -> np.ndarray:
        """Per-source maximum of an edge array (−inf for isolated rows)."""
        out = np.full(self.n, -np.inf)
        np.maximum.at(out, self.src, edge_vals)
        return out

    def row_min_dst_attaining(self, edge_vals: np.ndarray,
                              row_maxes: np.ndarray) -> np.ndarray:
        """Per-source minimum destination index among max-attaining edges."""
        out = np.full(self.n, self.n, dtype=np.int64)
        attain = edge_vals == row_maxes[self.src]
        np.minimum.at(out, self.src[attain], self.dst[attain])
        return out


def _southwell_winners(edges: EdgeStructure, absr: np.ndarray,
                       est: np.ndarray) -> np.ndarray:
    """Rows winning the (Parallel) Southwell criterion on estimates ``est``.

    ``est[e]`` is ``src[e]``'s belief about ``|r_dst|``.  Ties break to the
    lower row index, so two coupled rows never tie-win together.
    """
    row_max = edges.row_max(est)
    win = absr > row_max
    tie = (absr == row_max) & ~win & (absr > 0.0)
    if np.any(tie):
        min_dst = edges.row_min_dst_attaining(est, row_max)
        tie &= np.arange(edges.n) < min_dst
        win |= tie
    # isolated rows (no neighbors): relax whenever nonzero
    win &= absr > 0.0
    return win


def sequential_southwell(A: CSRMatrix, x0: np.ndarray, b: np.ndarray,
                         n_relaxations: int) -> ConvergenceHistory:
    """Sequential (Gauss-)Southwell with a per-relaxation residual trace.

    Each step relaxes the row with the largest ``|r_i|`` (the paper's
    convention under unit-diagonal scaling) and updates only the coupled
    residuals; the norm is maintained incrementally so the trace is
    ``O(nnz/n)`` per relaxation.
    """
    x = np.array(x0, dtype=np.float64)
    r = residual(A, x, b)
    At = A.transpose()
    diag = A.diagonal()
    if np.any(diag == 0.0):
        raise ValueError("zero diagonal entry")
    hist = ConvergenceHistory()
    norm_sq = float(r @ r)
    hist.append(norm=np.sqrt(max(norm_sq, 0.0)), relaxations=0,
                parallel_steps=0)
    for k in range(n_relaxations):
        i = int(np.argmax(np.abs(r)))
        if r[i] == 0.0:
            break
        dx = r[i] / diag[i]
        x[i] += dx
        cols, vals = At.row(i)      # column i of A
        old = r[cols]
        new = old - vals * dx
        norm_sq += float(new @ new - old @ old)
        r[cols] = new
        hist.append(norm=np.sqrt(max(norm_sq, 0.0)), relaxations=k + 1,
                    parallel_steps=k + 1)
    return hist


@dataclass
class ScalarStepInfo:
    """What one scalar parallel step did."""

    n_relaxed: int
    solve_messages: int
    residual_messages: int


class ScalarParallelSouthwell:
    """Scalar Parallel Southwell with exact neighbor residuals.

    Mathematically the shared-memory method of Section 2.3; message counts
    (if wanted) follow the block Algorithm 2 accounting: a relaxing row
    sends one solve message per neighbor, and a row whose residual changed
    without relaxing sends one explicit residual message per neighbor.
    """

    name = "parallel-southwell-scalar"

    def __init__(self, A: CSRMatrix):
        self.A = A
        self.edges = EdgeStructure.from_matrix(A)
        self.x: np.ndarray | None = None
        self.r: np.ndarray | None = None
        self.solve_messages = 0
        self.residual_messages = 0
        self.total_relaxations = 0

    def setup(self, x0: np.ndarray, b: np.ndarray) -> None:
        """Initialise iterate, residual and message counters."""
        self.x = np.array(x0, dtype=np.float64)
        self.r = residual(self.A, self.x, b)
        self.solve_messages = 0
        self.residual_messages = 0
        self.total_relaxations = 0

    def winners(self) -> np.ndarray:
        """Rows that will relax next step (boolean mask)."""
        absr = np.abs(self.r)
        est = absr[self.edges.dst]      # exact neighbor residuals
        return _southwell_winners(self.edges, absr, est)

    def step(self, relax_mask: np.ndarray | None = None) -> ScalarStepInfo:
        """One parallel step; optionally restrict the relax set (multigrid
        budget truncation passes a sub-mask of ``winners()``)."""
        edges = self.edges
        win = self.winners() if relax_mask is None else relax_mask
        n_relaxed = int(win.sum())
        if n_relaxed == 0:
            return ScalarStepInfo(0, 0, 0)
        dx = np.where(win, self.r / edges.diag, 0.0)
        r_old = self.r
        self.r = r_old - self.A.matvec(dx)
        self.x += dx
        self.total_relaxations += n_relaxed
        solve_msgs = int(np.count_nonzero(win[edges.src]))
        # rows whose residual changed without relaxing broadcast their new
        # residual to every neighbor (Alg 2 lines 19-21)
        changed = (self.r != r_old) & ~win
        res_msgs = int(np.count_nonzero(changed[edges.src]))
        self.solve_messages += solve_msgs
        self.residual_messages += res_msgs
        return ScalarStepInfo(n_relaxed, solve_msgs, res_msgs)

    def run(self, x0: np.ndarray, b: np.ndarray,
            max_relaxations: int | None = None,
            max_steps: int | None = None,
            exact_relaxations: bool = False,
            seed: int = 0) -> ConvergenceHistory:
        """Run until a relaxation budget or step count is exhausted.

        With ``exact_relaxations`` the final step relaxes a random subset
        of the selected rows so the total hits ``max_relaxations`` exactly
        (the paper's Figure 6 protocol).
        """
        if max_relaxations is None and max_steps is None:
            raise ValueError("need max_relaxations and/or max_steps")
        self.setup(x0, b)
        hist = ConvergenceHistory()
        hist.append(norm=float(np.linalg.norm(self.r)), relaxations=0,
                    parallel_steps=0)
        rng = np.random.default_rng(seed)
        steps = 0
        while True:
            if max_steps is not None and steps >= max_steps:
                break
            if (max_relaxations is not None
                    and self.total_relaxations >= max_relaxations):
                break
            mask = self.winners()
            remaining = (np.inf if max_relaxations is None
                         else max_relaxations - self.total_relaxations)
            if exact_relaxations and mask.sum() > remaining:
                chosen = rng.choice(np.flatnonzero(mask),
                                    size=int(remaining), replace=False)
                mask = np.zeros_like(mask)
                mask[chosen] = True
            info = self.step(mask)
            if info.n_relaxed == 0:
                break
            steps += 1
            hist.append(norm=float(np.linalg.norm(self.r)),
                        relaxations=self.total_relaxations,
                        parallel_steps=steps,
                        comm_cost=(self.solve_messages
                                   + self.residual_messages) / self.edges.n,
                        active_fraction=info.n_relaxed / self.edges.n)
        return hist


class ScalarDistributedSouthwell:
    """Scalar Distributed Southwell (Algorithm 3 with subdomain size 1).

    State per directed edge ``i→j``: ``z[i→j]``, row ``i``'s running copy
    of ``r_j``.  In scalar form the ghost layer covers the neighbor's whole
    residual, so the norm estimate is exactly ``|z|``.  The Γ̃ mirror is
    read off the reverse edge (its exact-tracking invariant makes the two
    identical at step boundaries; the block implementation maintains the
    mirror explicitly and tests assert the invariant).
    """

    name = "distributed-southwell-scalar"

    def __init__(self, A: CSRMatrix):
        self.A = A
        self.edges = EdgeStructure.from_matrix(A)
        self.x: np.ndarray | None = None
        self.r: np.ndarray | None = None
        self.z: np.ndarray | None = None
        self.solve_messages = 0
        self.residual_messages = 0
        self.total_relaxations = 0

    def setup(self, x0: np.ndarray, b: np.ndarray) -> None:
        """Initialise iterate, residual, ghosts and counters."""
        self.x = np.array(x0, dtype=np.float64)
        self.r = residual(self.A, self.x, b)
        # ghost starts exact (Alg 3 lines 7-9)
        self.z = self.r[self.edges.dst].copy()
        self.solve_messages = 0
        self.residual_messages = 0
        self.total_relaxations = 0

    def winners(self) -> np.ndarray:
        """Rows whose |r| beats every *estimated* neighbor residual."""
        absr = np.abs(self.r)
        return _southwell_winners(self.edges, absr, np.abs(self.z))

    def step(self, relax_mask: np.ndarray | None = None) -> ScalarStepInfo:
        """One parallel step (optionally with a restricted relax set)."""
        edges = self.edges
        win = self.winners() if relax_mask is None else relax_mask
        n_relaxed = int(win.sum())
        dx = np.where(win, self.r / edges.diag, 0.0) if n_relaxed else None

        if n_relaxed:
            # phase 1 — relaxers update their ghosts locally (line 15):
            # z[i→j] += -A[j,i] dx_i for relaxing i
            from_win = win[edges.src]
            self.z[from_win] -= (edges.coupling[from_win]
                                 * dx[edges.src[from_win]])
            # apply all updates (every delta is delivered this step)
            self.r = self.r - self.A.matvec(dx)
            self.x += dx
            self.total_relaxations += n_relaxed
            # phase 2 — receivers overwrite their ghost of each relaxed
            # sender with the residual its message carries, which at send
            # time was exactly 0 (a scalar relaxation zeroes its residual)
            to_win = win[edges.dst]
            self.z[to_win] = 0.0
            self.solve_messages += int(from_win.sum())

        # phase 2 deadlock avoidance (lines 27-30): row i = dst[e] checks
        # the estimate its neighbor src... every directed edge j→i carries
        # j's belief about i; if it exceeds |r_i|, i refreshes it
        over = np.abs(self.z) > np.abs(self.r)[edges.dst]
        n_res = int(np.count_nonzero(over))
        if n_res:
            self.z[over] = self.r[edges.dst[over]]
            self.residual_messages += n_res
        return ScalarStepInfo(n_relaxed, 0 if not n_relaxed else
                              int(win[edges.src].sum()), n_res)

    def run(self, x0: np.ndarray, b: np.ndarray,
            max_relaxations: int | None = None,
            max_steps: int | None = None,
            exact_relaxations: bool = False,
            seed: int = 0) -> ConvergenceHistory:
        """Same driver contract as :class:`ScalarParallelSouthwell`."""
        if max_relaxations is None and max_steps is None:
            raise ValueError("need max_relaxations and/or max_steps")
        self.setup(x0, b)
        hist = ConvergenceHistory()
        hist.append(norm=float(np.linalg.norm(self.r)), relaxations=0,
                    parallel_steps=0)
        rng = np.random.default_rng(seed)
        steps = 0
        stalled = 0
        while True:
            if max_steps is not None and steps >= max_steps:
                break
            if (max_relaxations is not None
                    and self.total_relaxations >= max_relaxations):
                break
            mask = self.winners()
            remaining = (np.inf if max_relaxations is None
                         else max_relaxations - self.total_relaxations)
            if exact_relaxations and mask.sum() > remaining:
                chosen = rng.choice(np.flatnonzero(mask),
                                    size=int(remaining), replace=False)
                mask = np.zeros_like(mask)
                mask[chosen] = True
            info = self.step(mask)
            steps += 1
            if info.n_relaxed == 0:
                # a pure deadlock-repair step; estimates were refreshed, so
                # winners can appear next step — but give up if even that
                # produces nothing (converged or truly stuck)
                stalled += 1
                if info.residual_messages == 0 or stalled > 2:
                    break
                continue
            stalled = 0
            hist.append(norm=float(np.linalg.norm(self.r)),
                        relaxations=self.total_relaxations,
                        parallel_steps=steps,
                        comm_cost=(self.solve_messages
                                   + self.residual_messages) / self.edges.n,
                        active_fraction=info.n_relaxed / self.edges.n)
        return hist
