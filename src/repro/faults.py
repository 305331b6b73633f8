"""Deterministic, seeded fault injection for the simulated runtime.

The paper's central robustness claim is that Distributed Southwell
tolerates *inexact* neighbor information — stale ``‖r_q‖`` estimates and
the Γ̃ repair mechanism exist precisely so the method survives imperfect
communication, whereas Parallel Southwell needs exact explicit updates
(PAPER.md, Algorithms 2–3).  This module turns that claim into a testable
fault model: a frozen :class:`FaultPlan` describes per-category message
**drop**, **duplication** and **reordering** rates, optional
**ghost-payload staleness**, and per-process **stall/slowdown**
schedules; a :class:`FaultRuntime` compiles the plan into per-edge
counter-based random streams and is consulted by the lockstep plane
(:mod:`repro.runtime.flatplane`) and the async plane
(:mod:`repro.runtime.asyncplane`).

Determinism contract
--------------------
Every fault decision is a pure function of
``(plan.seed, src, dst, kind, sequence-number, salt)`` via a splitmix64-
style hash — there is *no* stateful RNG.  The plane keeps one
send-sequence counter per ``(edge, kind)`` slot, so two runs with the
same plan are bit-identical to each other.  A plan
whose message-fault rates are all zero (:attr:`FaultPlan.is_null`)
compiles to *disabled* machinery: such runs are bit-identical to runs
with no plan at all (the CI zero-behavior-change guard).

Fate semantics
--------------
dropped
    The send is charged (the origin paid for the put) but the message is
    never delivered and therefore never charged as a receive.
duplicated
    Delivered twice, back to back (two receives).
reordered
    Moved, stably, to the back of its destination's delivery batch for
    the epoch.
ghost-stale
    The ghost payload (``z``) of the message is not applied by the
    receiver; headers (norms) still land.  Models a torn one-sided read.

Late delivery is not a fault kind here: one slot per ``(edge, kind)``
per epoch has no storage for a message that outlives its epoch.  Message
latency is an :class:`~repro.api.AsyncConfig` field of the async plane,
where every delivery is late by construction.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "FATE_DROP",
    "FATE_DUP",
    "FATE_REORDER",
    "FATE_STALE",
    "DegradedRunError",
    "EdgeFaults",
    "FaultPlan",
    "FaultRuntime",
    "SlowdownWindow",
    "StallWindow",
]

#: fate bit flags carried in the planes' per-delivery fate arrays
FATE_DROP = 1
FATE_DUP = 2
FATE_REORDER = 4
FATE_STALE = 8

_FATE_NAMES = ((FATE_DROP, "drop"), (FATE_DUP, "duplicate"),
               (FATE_REORDER, "reorder"), (FATE_STALE, "ghost_stale"))

#: message-kind integers hashed into the fate stream (solve / residual)
KIND_SOLVE = 0
KIND_RESIDUAL = 1
_CAT_OF = {KIND_SOLVE: "solve", KIND_RESIDUAL: "residual"}

# hash salts: one independent substream per fault decision
_SALT_DROP = 1
_SALT_DUP = 2
_SALT_REORDER = 3
_SALT_STALE = 6


class DegradedRunError(RuntimeError):
    """Raised by the strict failure policy when a faulted run degrades
    (detects an unrecoverable deadlock) instead of converging."""


# ----------------------------------------------------------------------
# plan dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeFaults:
    """Per-message fault rates for one message category.

    ``delay`` / ``max_delay`` are accepted only at their neutral values
    (0 and 1, as plan files written before epoch delays were removed
    carry them) and are not stored; anything else raises a
    :class:`ValueError` naming the field.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    ghost_stale: float = 0.0
    delay: InitVar[float] = 0.0
    max_delay: InitVar[int] = 1

    def __post_init__(self, delay, max_delay):
        for name in ("drop", "duplicate", "reorder", "ghost_stale"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v!r}")
        for name, value, neutral in (("delay", delay, 0),
                                     ("max_delay", max_delay, 1)):
            if value != neutral:
                raise ValueError(
                    f"{name} must be {neutral}, got {value!r}: epoch "
                    "delays are gone; model message latency with "
                    "AsyncConfig.latency under runtime='async'")

    @property
    def any_fault(self) -> bool:
        return (self.drop > 0 or self.duplicate > 0 or self.reorder > 0
                or self.ghost_stale > 0)


@dataclass(frozen=True)
class StallWindow:
    """Rank ``rank`` performs no relaxations during steps
    ``start <= step < stop`` (1-based parallel steps).  It still drains
    its window — one-sided progress does not need the target's CPU."""

    rank: int
    start: int
    stop: int


@dataclass(frozen=True)
class SlowdownWindow:
    """Rank ``rank`` computes at ``factor`` of full speed during steps
    ``start <= step < stop`` (cost model only; numerics unchanged)."""

    rank: int
    start: int
    stop: int
    factor: float


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seeded description of every fault a run will suffer.

    ``resend_after`` / ``retry_budget`` parameterize the Distributed
    Southwell loss-hardening (heartbeat re-send of the residual-norm
    repair message when an edge has been silent that many steps, at most
    ``retry_budget`` consecutive times per edge); ``deadlock_patience``
    is how many fully quiet steps (no active process, no sends, nothing
    in flight, residual above target) the run tolerates before declaring
    graceful degradation.
    """

    seed: int = 0
    solve: EdgeFaults = field(default_factory=EdgeFaults)
    residual: EdgeFaults = field(default_factory=EdgeFaults)
    stalls: tuple[StallWindow, ...] = ()
    slowdowns: tuple[SlowdownWindow, ...] = ()
    resend_after: int = 4
    retry_budget: int = 25
    deadlock_patience: int = 8

    def __post_init__(self):
        # JSON round-trips hand us lists/dicts; freeze them into the
        # declared types so equality and hashing behave
        if not isinstance(self.solve, EdgeFaults):
            object.__setattr__(self, "solve", EdgeFaults(**dict(self.solve)))
        if not isinstance(self.residual, EdgeFaults):
            object.__setattr__(self, "residual",
                               EdgeFaults(**dict(self.residual)))
        if self.stalls and not isinstance(self.stalls[0], StallWindow):
            object.__setattr__(self, "stalls", tuple(
                StallWindow(**dict(s)) for s in self.stalls))
        else:
            object.__setattr__(self, "stalls", tuple(self.stalls))
        if self.slowdowns and not isinstance(self.slowdowns[0],
                                             SlowdownWindow):
            object.__setattr__(self, "slowdowns", tuple(
                SlowdownWindow(**dict(s)) for s in self.slowdowns))
        else:
            object.__setattr__(self, "slowdowns", tuple(self.slowdowns))
        if self.resend_after < 1:
            raise ValueError("resend_after must be >= 1")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be >= 0")
        if self.deadlock_patience < 1:
            raise ValueError("deadlock_patience must be >= 1")

    # -- derived properties -------------------------------------------
    @property
    def message_faults(self) -> bool:
        """Any per-message fault rate nonzero?"""
        return self.solve.any_fault or self.residual.any_fault

    @property
    def is_null(self) -> bool:
        """Compiles to disabled machinery: a run under a null plan is
        bit-identical to a run with no plan at all."""
        return (not self.message_faults and not self.stalls
                and not self.slowdowns)

    @property
    def lossy(self) -> bool:
        """Can messages be lost or double-applied?  Gates the cumulative
        self-healing solve payloads and the DS heartbeat hardening."""
        return (self.solve.drop > 0 or self.solve.duplicate > 0
                or self.residual.drop > 0 or self.residual.duplicate > 0)

    # -- constructors / serialization ---------------------------------
    @classmethod
    def uniform(cls, drop: float = 0.0, duplicate: float = 0.0,
                reorder: float = 0.0, ghost_stale: float = 0.0,
                **plan_fields) -> "FaultPlan":
        """Same fault rates for both message categories."""
        ef = EdgeFaults(drop=drop, duplicate=duplicate, reorder=reorder,
                        ghost_stale=ghost_stale)
        return cls(solve=ef, residual=ef, **plan_fields)

    def to_json(self) -> str:
        """Round-trippable JSON document (see :meth:`from_json`)."""
        doc = dataclasses.asdict(self)
        doc["schema"] = "repro.faultplan/v1"
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        doc = json.loads(text)
        doc.pop("schema", None)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str | Path) -> "FaultPlan":
        return cls.from_json(Path(path).read_text())


# ----------------------------------------------------------------------
# counter-based hashing (stateless)
# ----------------------------------------------------------------------
_GOLD = np.uint64(0x9E3779B97F4A7C15)
_C1 = np.uint64(0xFF51AFD7ED558CCD)
_C2 = np.uint64(0xC4CEB9FE1A85EC53)
_INV53 = 2.0 ** -53


def _mix64(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 arrays (wrapping arithmetic)."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _u01(seed: np.uint64, src, dst, kind: int, seq, salt: int) -> np.ndarray:
    """Uniforms in [0, 1) from the (seed, src, dst, kind, seq, salt) key.

    ``src``/``dst``/``seq`` may be uint64 arrays (broadcast) or scalars;
    the result has the broadcast shape.  Pure function — the whole fault
    stream is replayable from the plan alone.
    """
    with np.errstate(over="ignore"):    # uint64 wraparound is the point
        h = _mix64(seed + _GOLD)
        h = _mix64(h ^ (np.asarray(src, dtype=np.uint64) * _C1))
        h = _mix64(h ^ (np.asarray(dst, dtype=np.uint64) * _C2))
        h = _mix64(h ^ (np.uint64(kind) * _GOLD))
        h = _mix64(h ^ (np.asarray(seq, dtype=np.uint64) * _C1))
        h = _mix64(h ^ (np.uint64(salt) * _C2))
    return (h >> np.uint64(11)).astype(np.float64) * _INV53


# ----------------------------------------------------------------------
# the compiled runtime
# ----------------------------------------------------------------------
class FaultRuntime:
    """A :class:`FaultPlan` compiled for one run: per-slot sequence
    counters, injected-fault accounting, and per-step stall/slowdown
    lookups.  One instance per run, bound to the run's plane."""

    def __init__(self, plan: FaultPlan, n_procs: int, tracer=None):
        from repro.trace import NULL_TRACER

        self.plan = plan
        self.n_procs = n_procs
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._seed = np.uint64(plan.seed & 0xFFFFFFFFFFFFFFFF)
        self.message_faults = plan.message_faults
        #: sequence counters, one per slot id (2E)
        self._sid_seq: np.ndarray | None = None
        self._sid_src: np.ndarray | None = None
        self._sid_dst: np.ndarray | None = None
        #: injected-fault totals, e.g. {"drop:solve": 3, "stall": 2}
        self.injected: dict[str, int] = {}
        self.retries = 0
        self._stall_by_rank: dict[int, list[tuple[int, int]]] = {}
        for s in plan.stalls:
            self._stall_by_rank.setdefault(s.rank, []).append(
                (s.start, s.stop))
        self._slow_by_rank: dict[int, list[tuple[int, int, float]]] = {}
        for s in plan.slowdowns:
            self._slow_by_rank.setdefault(s.rank, []).append(
                (s.start, s.stop, s.factor))
        self._stall_memo: tuple[int, np.ndarray | None] = (-1, None)

    # -- accounting ----------------------------------------------------
    def _count(self, key: str, n: int = 1) -> None:
        if n:
            self.injected[key] = self.injected.get(key, 0) + int(n)

    def count_retries(self, n: int) -> None:
        """DS loss-hardening reports its timeout re-sends here so trace
        reconciliation stays an equality check."""
        if n:
            self.retries += int(n)
            self.injected["retry"] = self.injected.get("retry", 0) + int(n)

    def summary(self) -> dict[str, int]:
        """Injected totals (faults + stalls + DS retries), nonzero only."""
        return dict(self.injected)

    # -- fate streams --------------------------------------------------
    def _edge_fates(self, ef: EdgeFaults, src, dst, kind: int, seq):
        """Vectorized fate bits for one category."""
        n = np.broadcast(np.asarray(seq)).size
        fate = np.zeros(n, dtype=np.int64)
        if ef.drop > 0:
            fate |= np.where(
                _u01(self._seed, src, dst, kind, seq, _SALT_DROP) < ef.drop,
                FATE_DROP, 0)
        alive = (fate & FATE_DROP) == 0
        if ef.duplicate > 0:
            hit = _u01(self._seed, src, dst, kind, seq,
                       _SALT_DUP) < ef.duplicate
            fate |= np.where(hit & alive, FATE_DUP, 0)
        if ef.reorder > 0:
            hit = _u01(self._seed, src, dst, kind, seq,
                       _SALT_REORDER) < ef.reorder
            fate |= np.where(hit & alive, FATE_REORDER, 0)
        if ef.ghost_stale > 0:
            hit = _u01(self._seed, src, dst, kind, seq,
                       _SALT_STALE) < ef.ghost_stale
            fate |= np.where(hit & alive, FATE_STALE, 0)
        return fate

    # -- flat plane ----------------------------------------------------
    def attach_flat(self, plane) -> None:
        """Bind to a :class:`~repro.runtime.flatplane.FlatEdgePlane`:
        per-slot sequence counters plus cached src/dst/kind keys."""
        n_slots = 2 * len(plane.edge_src)
        self._sid_seq = np.zeros(n_slots, dtype=np.int64)
        eids = np.arange(n_slots, dtype=np.int64) >> 1
        self._sid_src = plane.edge_src[eids].astype(np.uint64)
        self._sid_dst = plane.edge_dst[eids].astype(np.uint64)

    def fates_flat(self, sids: np.ndarray) -> np.ndarray:
        """Fates for a batch of slot puts (one message per sid), each
        hashed from its ``(src, dst, kind, seq)`` key; advances the
        slots' sequence counters and records/traces every injected
        fault."""
        seqs = self._sid_seq[sids]
        self._sid_seq[sids] += 1
        fates = np.zeros(sids.size, dtype=np.int64)
        srcs = self._sid_src[sids]
        dsts = self._sid_dst[sids]
        for kind, ef in ((KIND_SOLVE, self.plan.solve),
                         (KIND_RESIDUAL, self.plan.residual)):
            sel = np.flatnonzero((sids & 1) == kind)
            if sel.size == 0 or not ef.any_fault:
                continue
            f = self._edge_fates(ef, srcs[sel], dsts[sel], kind,
                                 seqs[sel])
            fates[sel] = f
            cat = _CAT_OF[kind]
            trc = self.tracer
            for bit, name in _FATE_NAMES:
                hit = np.flatnonzero(f & bit)
                if hit.size:
                    self._count(f"{name}:{cat}", hit.size)
                    if trc.enabled:
                        trc.faults_flat(name, srcs[sel[hit]].astype(np.int64),
                                        dsts[sel[hit]].astype(np.int64), cat)
        return fates

    # -- stalls / slowdowns -------------------------------------------
    def stall_mask(self, step: int) -> np.ndarray | None:
        """Boolean mask of stalled ranks at 1-based ``step`` (or None).

        Memoized per step: counting and tracing happen once per step no
        matter how many phases consult the mask."""
        if not self._stall_by_rank:
            return None
        if self._stall_memo[0] == step:
            return self._stall_memo[1]
        mask = np.zeros(self.n_procs, dtype=bool)
        for rank, wins in self._stall_by_rank.items():
            if 0 <= rank < self.n_procs and any(
                    lo <= step < hi for lo, hi in wins):
                mask[rank] = True
        out = mask if mask.any() else None
        if out is not None:
            stalled = np.flatnonzero(out)
            self._count("stall", stalled.size)
            if self.tracer.enabled:
                for p in stalled:
                    self.tracer.fault("stall", int(p), -1, "")
        self._stall_memo = (step, out)
        return out

    def speed_factors(self, step: int,
                      base: np.ndarray | None) -> np.ndarray | None:
        """Per-process compute-speed factors at 1-based ``step``,
        combining the run's base factors with active slowdown windows."""
        if not self._slow_by_rank:
            return base
        factors = None
        for rank, wins in self._slow_by_rank.items():
            for lo, hi, f in wins:
                if lo <= step < hi and 0 <= rank < self.n_procs:
                    if factors is None:
                        factors = (np.ones(self.n_procs)
                                   if base is None
                                   else np.asarray(base,
                                                   dtype=np.float64).copy())
                    factors[rank] *= f
        return base if factors is None else factors

    def rank_stalled(self, p: int, turn: int) -> bool:
        """Per-rank stall check at 1-based ``turn``.

        The async executor's ranks advance through turns independently,
        so the per-step memo of :meth:`stall_mask` does not apply; each
        (rank, turn) pair is consulted exactly once, so counting and
        tracing here stays deterministic."""
        wins = self._stall_by_rank.get(p)
        if not wins or not any(lo <= turn < hi for lo, hi in wins):
            return False
        self._count("stall", 1)
        if self.tracer.enabled:
            self.tracer.fault("stall", int(p), -1, "")
        return True

    def rank_slowdown(self, p: int, turn: int) -> float:
        """Combined slowdown multiplier for rank ``p`` at 1-based
        ``turn`` (1.0 = full speed); the async-executor counterpart of
        :meth:`speed_factors`."""
        wins = self._slow_by_rank.get(p)
        if not wins:
            return 1.0
        f = 1.0
        for lo, hi, factor in wins:
            if lo <= turn < hi:
                f *= factor
        return f
