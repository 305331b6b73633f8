"""Run-trace observability: typed event tracing and per-phase profiling.

The paper's whole argument is about *where the communication goes*
(Tables 3-4, Figures 7-9), but :class:`~repro.runtime.stats.MessageStats`
only reports end-of-run aggregates.  This module records the timeline
behind those aggregates: per parallel step, which processes relaxed,
which directed edges carried solve / residual messages (and how many
bytes), where ghost-layer estimate updates and deadlock repairs
happened, and how much wall-clock each phase of a step cost
(``time.perf_counter`` spans).

Design constraints, in order:

1. **Zero behavior change.**  Tracing is pure observation — a traced run
   produces bit-identical convergence histories and byte-identical
   :class:`MessageStats` on both message planes (pinned by digest tests).
   Event hooks fire at exactly the sites that charge the stats, so trace
   aggregates reconcile *exactly* with the stats totals.
2. **Zero cost when off.**  Every hot-path hook is gated on
   ``tracer.enabled`` (a plain attribute read); the default
   :data:`NULL_TRACER` never allocates, and the flat-plane batched hooks
   fire once per epoch, not once per message.
3. **Cheap when on.**  Events are stored as tuples (batched hooks keep
   their numpy arrays) and only expanded to JSON at save time.

Sinks: :meth:`RunTracer.save_jsonl` writes one JSON object per event
(the format :mod:`repro.analysis.traceagg` and the ``repro trace`` CLI
summarize); :meth:`RunTracer.save_chrome` writes the Chrome
``trace_event`` JSON that ``chrome://tracing`` / Perfetto load, with
phases as complete ("X") spans and the per-step active-process count as
a counter track.  See DESIGN.md §5.9 for the event schema.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "RunTracer",
    "TRACE_SCHEMA",
    "Tracer",
]

#: schema tag stamped into every trace file's meta event
TRACE_SCHEMA = "repro.trace/v1"

#: flat-plane slot kind -> message category (slot encoding 2*edge + kind)
_KIND_CATEGORY = ("solve", "residual")


class Tracer:
    """The tracing protocol every run-time hook calls.

    The base class *is* the disabled implementation: ``enabled`` is
    False and every hook is a no-op, so passing any :class:`Tracer` is
    always safe and the hot paths only ever pay one attribute check.
    Recording implementations (:class:`RunTracer`) set ``enabled`` and
    override the hooks they care about.

    Hook vocabulary (``*`` marks batched flat-plane variants that take
    numpy arrays and fire once per epoch):

    - lifecycle: :meth:`begin_run`, :meth:`end_run`, :meth:`step_begin`,
      :meth:`step_end`
    - profiling: :meth:`phase_begin` / :meth:`phase_end` (perf-counter
      spans)
    - solver events: :meth:`relax`, :meth:`ghosts`*, :meth:`repairs`*,
      :meth:`retries`*
    - message plane: :meth:`sends_flat`*, :meth:`recvs_flat`*
    - fault plane: :meth:`faults_flat`* (every injected drop /
      duplicate / reorder / ghost-stale / stall)
    """

    enabled = False
    __slots__ = ()

    # lifecycle ---------------------------------------------------------
    def begin_run(self, method: str, n_procs: int) -> None:
        """A run loop is starting (records the trace meta event)."""

    def end_run(self, stats, faults=None) -> None:
        """The run loop finished; ``stats`` is the run's MessageStats
        (recorded as the reconciliation footer).  ``faults`` is the
        injected-fault totals dict of the run's
        :class:`~repro.faults.FaultRuntime`, when one was active."""

    def step_begin(self, step: int) -> None:
        """Parallel step ``step`` (1-based) is opening."""

    def step_end(self, active: int) -> None:
        """The open step closed with ``active`` relaxing processes."""

    # profiling ---------------------------------------------------------
    def phase_begin(self, name: str) -> None:
        """A named phase of the open step started (perf-counter stamp)."""

    def phase_end(self, name: str) -> None:
        """The named phase ended."""

    # setup plane -------------------------------------------------------
    def setup_cache(self, key: str, hit: bool) -> None:
        """The persistent setup cache was consulted for ``key``
        (DESIGN.md §5.10): ``hit`` is whether the partition + block
        system were loaded from disk instead of being rebuilt."""

    # multigrid plane ---------------------------------------------------
    def mg_level(self, level: int, n: int, n_parts: int, msgs: int,
                 nbytes: int, recvs: int, relaxations: int,
                 nnz_dropped: int) -> None:
        """One multigrid level's accumulated smoothing totals
        (DESIGN.md §5.16): grid side ``n``, smoothing partition size
        ``n_parts``, messages / bytes / receives / relaxations summed
        over every visit to the level, and the coarse-operator entries
        dropped by sparsification.  Emitted once per level right before
        :meth:`end_run`; the per-level rows sum to the footer totals by
        equality (``repro trace`` verifies it)."""

    # solver events -----------------------------------------------------
    def relax(self, p: int) -> None:
        """Process ``p`` relaxed its subdomain this step."""

    def ghosts(self, p: int, neighbors) -> None:
        """``p`` updated its ghost layer / norm estimate of every listed
        neighbor locally (DS line 15 — the zero-communication update)."""

    def repairs(self, srcs, dsts) -> None:
        """Each ``srcs[k]`` sent ``dsts[k]`` a deadlock-repair residual
        message (DS lines 27-30; parallel arrays)."""

    def retries(self, srcs, dsts) -> None:
        """Each ``srcs[k]`` re-sent its residual-norm repair to
        ``dsts[k]`` because the edge timed out (loss-hardening heartbeat,
        not a genuine Γ̃ > Γ repair; parallel arrays)."""

    # fault plane -------------------------------------------------------
    def faults_flat(self, kind: str, srcs, dsts, category: str) -> None:
        """Faults were injected on the parallel arrays ``srcs``/``dsts``:
        ``kind`` is ``drop`` / ``duplicate`` / ``reorder`` /
        ``ghost_stale`` / ``stall`` (stalls carry the stalled rank as
        the source and ``-1`` as the destination)."""

    # message plane -----------------------------------------------------
    def sends_flat(self, plane, sids, category: str) -> None:
        """A flat-plane put of the slot-ids ``sids`` (charged at the same
        site as the stats)."""

    def recvs_flat(self, plane, dst: int, sids) -> None:
        """``dst`` drained the flat-plane slot-ids ``sids``."""


class NullTracer(Tracer):
    """The zero-cost default: disabled, records nothing."""

    __slots__ = ()


#: the shared do-nothing tracer every run defaults to
NULL_TRACER = NullTracer()


class RunTracer(Tracer):
    """In-memory event recorder with JSONL / Chrome ``trace_event`` sinks.

    Events are tuples ``(tag, step, ...)`` appended to one list; batched
    flat-plane hooks keep their numpy arrays and are expanded to
    per-message JSON objects only at save time.  One tracer may record
    several runs back to back (each gets its own meta event).
    """

    enabled = True

    def __init__(self) -> None:
        self._events: list[tuple] = []
        self._step = 0
        self._phase_t0: dict[str, float] = {}

    # lifecycle ---------------------------------------------------------
    def begin_run(self, method: str, n_procs: int) -> None:
        self._step = 0
        self._events.append(("meta", method, int(n_procs)))

    def end_run(self, stats, faults=None) -> None:
        footer = {
            "total_msgs": int(stats.total_messages),
            "total_bytes": int(stats.total_bytes),
            "total_recvs": int(stats.total_receives),
            "cat_msgs": {k: int(v) for k, v in stats.category_msgs.items()},
            "cat_bytes": {k: int(v) for k, v in stats.category_bytes.items()},
            "simulated_time": float(stats.elapsed_time()),
            "steps": len(stats.steps),
        }
        if faults is not None:
            footer["faults"] = {k: int(v) for k, v in faults.items()}
        self._events.append(("stats", footer))

    def step_begin(self, step: int) -> None:
        self._step = int(step)

    def step_end(self, active: int) -> None:
        self._events.append(("step", self._step, int(active),
                             time.perf_counter()))

    # profiling ---------------------------------------------------------
    def phase_begin(self, name: str) -> None:
        self._phase_t0[name] = time.perf_counter()

    def phase_end(self, name: str) -> None:
        t1 = time.perf_counter()
        t0 = self._phase_t0.pop(name, t1)
        self._events.append(("phase", self._step, name, t0, t1))

    # setup plane -------------------------------------------------------
    def setup_cache(self, key: str, hit: bool) -> None:
        self._events.append(("setupc", key, bool(hit)))

    # multigrid plane ---------------------------------------------------
    def mg_level(self, level: int, n: int, n_parts: int, msgs: int,
                 nbytes: int, recvs: int, relaxations: int,
                 nnz_dropped: int) -> None:
        self._events.append(("mglvl", int(level), int(n), int(n_parts),
                             int(msgs), int(nbytes), int(recvs),
                             int(relaxations), int(nnz_dropped)))

    # solver events -----------------------------------------------------
    def relax(self, p: int) -> None:
        self._events.append(("relax", self._step, int(p)))

    def ghosts(self, p: int, neighbors) -> None:
        self._events.append(("ghostv", self._step, int(p),
                             np.asarray(neighbors, dtype=np.int64)))

    def repairs(self, srcs, dsts) -> None:
        self._events.append(("repairv", self._step,
                             np.asarray(srcs, dtype=np.int64),
                             np.asarray(dsts, dtype=np.int64)))

    def retries(self, srcs, dsts) -> None:
        self._events.append(("retryv", self._step,
                             np.asarray(srcs, dtype=np.int64),
                             np.asarray(dsts, dtype=np.int64)))

    # fault plane -------------------------------------------------------
    def faults_flat(self, kind: str, srcs, dsts, category: str) -> None:
        self._events.append(("faultv", self._step, kind,
                             np.asarray(srcs, dtype=np.int64),
                             np.asarray(dsts, dtype=np.int64), category))

    # message plane -----------------------------------------------------
    def sends_flat(self, plane, sids, category: str) -> None:
        eids = sids >> 1
        self._events.append(("sendv", self._step, plane.edge_src[eids],
                             plane.edge_dst[eids], category,
                             plane.sid_nbytes[sids]))

    def recvs_flat(self, plane, dst: int, sids) -> None:
        self._events.append(("recvv", self._step, plane.edge_src[sids >> 1],
                             int(dst), sids & 1))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def iter_events(self):
        """Yield every event as a JSON-able dict, expanding batches.

        The per-message expansion order inside one batch is the batch's
        array order — ascending destination per sender for puts.
        """
        for ev in self._events:
            tag = ev[0]
            if tag == "meta":
                yield {"ev": "meta", "schema": TRACE_SCHEMA,
                       "method": ev[1], "n_procs": ev[2]}
            elif tag == "stats":
                yield {"ev": "stats", **ev[1]}
            elif tag == "step":
                yield {"ev": "step", "step": ev[1], "active": ev[2],
                       "t": ev[3]}
            elif tag == "phase":
                yield {"ev": "phase", "step": ev[1], "name": ev[2],
                       "t0": ev[3], "t1": ev[4]}
            elif tag == "setupc":
                yield {"ev": "setup_cache", "key": ev[1], "hit": ev[2]}
            elif tag == "mglvl":
                yield {"ev": "mg_level", "level": ev[1], "n": ev[2],
                       "n_parts": ev[3], "msgs": ev[4], "bytes": ev[5],
                       "recvs": ev[6], "relaxations": ev[7],
                       "nnz_dropped": ev[8]}
            elif tag == "relax":
                yield {"ev": "relax", "step": ev[1], "p": ev[2]}
            elif tag == "ghostv":
                _, step, p, qs = ev
                for q in qs.tolist():
                    yield {"ev": "ghost", "step": step, "p": p, "q": q}
            elif tag == "repairv":
                _, step, srcs, dsts = ev
                for s, d in zip(srcs.tolist(), dsts.tolist()):
                    yield {"ev": "repair", "step": step, "src": s, "dst": d}
            elif tag == "retryv":
                _, step, srcs, dsts = ev
                for s, d in zip(srcs.tolist(), dsts.tolist()):
                    yield {"ev": "retry", "step": step, "src": s, "dst": d}
            elif tag == "faultv":
                _, step, kind, srcs, dsts, cat = ev
                for s, d in zip(srcs.tolist(), dsts.tolist()):
                    yield {"ev": "fault", "step": step, "kind": kind,
                           "src": s, "dst": d, "cat": cat}
            elif tag == "sendv":
                _, step, srcs, dsts, cat, nbs = ev
                for s, d, nb in zip(srcs.tolist(), dsts.tolist(),
                                    nbs.tolist()):
                    yield {"ev": "send", "step": step, "src": s, "dst": d,
                           "cat": cat, "nb": nb}
            elif tag == "recvv":
                _, step, srcs, dst, kinds = ev
                for s, k in zip(srcs.tolist(), kinds.tolist()):
                    yield {"ev": "recv", "step": step, "src": s, "dst": dst,
                           "cat": _KIND_CATEGORY[k]}
            else:  # pragma: no cover - exhaustive over recorded tags
                raise ValueError(f"unknown trace event tag {tag!r}")

    def save_jsonl(self, path) -> Path:
        """Write the JSONL sink: one JSON object per line, per event."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for obj in self.iter_events():
                fh.write(json.dumps(obj, separators=(",", ":")))
                fh.write("\n")
        return path

    def save_chrome(self, path) -> Path:
        """Write the Chrome ``trace_event`` sink (load in Perfetto /
        ``chrome://tracing``): phase spans as "X" complete events, the
        per-step active count as a "C" counter track."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        stamps = [ev[3] for ev in self._events if ev[0] == "phase"]
        stamps += [ev[3] for ev in self._events if ev[0] == "step"]
        base = min(stamps) if stamps else 0.0
        out = [{"name": "process_name", "ph": "M", "pid": 0,
                "args": {"name": ev[1]}}
               for ev in self._events if ev[0] == "meta"][:1]
        for ev in self._events:
            if ev[0] == "phase":
                _, step, name, t0, t1 = ev
                out.append({"name": name, "cat": "phase", "ph": "X",
                            "ts": (t0 - base) * 1e6,
                            "dur": (t1 - t0) * 1e6,
                            "pid": 0, "tid": 0, "args": {"step": step}})
            elif ev[0] == "step":
                _, step, active, t = ev
                out.append({"name": "active processes", "ph": "C",
                            "ts": (t - base) * 1e6, "pid": 0,
                            "args": {"active": active}})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": out, "displayTimeUnit": "ms"}, fh)
        return path

    def save(self, path) -> Path:
        """Write ``path`` in the format its suffix names: ``.json`` /
        ``.chrome`` → Chrome ``trace_event``, anything else → JSONL."""
        suffix = Path(path).suffix.lower()
        if suffix in (".json", ".chrome"):
            return self.save_chrome(path)
        return self.save_jsonl(path)
