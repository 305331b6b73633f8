"""Central run configuration: every ``REPRO_*`` knob in one place.

The package has one environment variable per subsystem — the
message-plane mode (``REPRO_RUNTIME``), the sweep pool size
(``REPRO_WORKERS``), the sweep cache directory (``REPRO_SWEEP_CACHE``),
run tracing (``REPRO_TRACE``), the setup cache (``REPRO_SETUP_CACHE``)
and fault injection (``REPRO_FAULTS``).  This module is the single
read-through point for all of them, with one documented precedence
rule:

    explicit argument  >  programmatic override  >  environment  >  default

*Explicit argument* is a value passed to a getter here (ultimately a
:class:`~repro.api.RunConfig` field or a function kwarg); *programmatic
override* is :func:`repro.runtime.flatplane.set_runtime_mode` state,
which the runtime keeps (this module never mutates it); unset or junk
environment values fall back to the default rather than breaking a run.
Run parameters that have a config field (``MultigridConfig`` /
``AsyncConfig`` in :mod:`repro.api`) have no environment knob: the
field, or its CLI flag, is the only way to set them.

``repro config`` on the command line prints :func:`describe` — every
knob with its environment variable, effective value, and where that
value came from.

This module imports nothing from the rest of the package so every
subsystem (including ``repro.runtime``, which is imported during package
init) can read through it without cycles.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "ENV_FAULTS",
    "ENV_RUNTIME",
    "ENV_SETUP_CACHE",
    "ENV_SWEEP_CACHE",
    "ENV_TRACE",
    "ENV_WORKERS",
    "KNOBS",
    "Knob",
    "VALID_MG_SMOOTHERS",
    "VALID_RUNTIME_MODES",
    "parse_speed_factors",
    "require_finite",
    "require_int",
    "describe",
    "faults_spec",
    "runtime",
    "setup_cache_dir",
    "setup_cache_spec",
    "sweep_cache",
    "trace_active",
    "trace_dir",
    "trace_spec",
    "workers",
]

ENV_RUNTIME = "REPRO_RUNTIME"
ENV_WORKERS = "REPRO_WORKERS"
ENV_SWEEP_CACHE = "REPRO_SWEEP_CACHE"
ENV_TRACE = "REPRO_TRACE"
ENV_SETUP_CACHE = "REPRO_SETUP_CACHE"
ENV_FAULTS = "REPRO_FAULTS"

#: message-plane modes accepted by ``REPRO_RUNTIME`` / ``set_runtime_mode``;
#: ``async`` is the flat plane driven by the discrete-event executor instead
#: of lockstep epochs (DESIGN.md §5.14); ``shm`` names a deleted plane and
#: runs the flat plane, reported as ``degraded_reason = "shm-unavailable"``
#: (DESIGN.md §5.12)
VALID_RUNTIME_MODES = ("auto", "flat", "shm", "async", "object")

#: simulated one-way network latency (seconds) for the async runtime
DEFAULT_ASYNC_LATENCY = 5e-6

#: multigrid smoother names accepted by ``MultigridConfig.smoother`` /
#: ``--mg-smoother``: the block methods run the real
#: distributed runtime inside the V-cycle; the ``scalar-*`` forms are
#: the paper's published Figure 6 smoothers; ``gs`` is the baseline
VALID_MG_SMOOTHERS = ("ds", "ps", "bj", "gs", "scalar-ds", "scalar-ps")
DEFAULT_MG_SMOOTHER = "ds"
DEFAULT_MG_BUDGET = 1.0
DEFAULT_MG_DROP_TOL = 0.0
DEFAULT_MG_CYCLES = 9

#: ``REPRO_TRACE`` spellings meaning "off" (same set as unset)
_TRACE_OFF = ("", "0", "off", "false", "no")
#: ``REPRO_TRACE`` spellings meaning "on, in memory" (events recorded and
#: discarded — the CI zero-behavior-change guard); any other value is a
#: directory that per-run trace files are written into
_TRACE_ON = ("1", "on", "true", "yes")

#: ``REPRO_SETUP_CACHE`` spellings meaning "on, in the default directory";
#: the off set is shared with ``REPRO_TRACE``, any other value is a
#: directory path
_SETUP_ON = ("1", "on", "true", "yes")


@dataclass(frozen=True)
class Knob:
    """One documented configuration knob."""

    env: str
    default: str
    doc: str


KNOBS: tuple[Knob, ...] = (
    Knob(ENV_RUNTIME, "auto",
         "message plane: auto | flat | async | object "
         "(shm runs flat, reported as degraded)"),
    Knob(ENV_WORKERS, "0",
         "sweep worker-pool size (< 2 runs the sweep inline)"),
    Knob(ENV_SWEEP_CACHE, "~/.cache/repro-southwell",
         "on-disk sweep result cache directory"),
    Knob(ENV_TRACE, "off",
         "run tracing: off | 1 (in-memory) | <dir> (one file per run)"),
    Knob(ENV_SETUP_CACHE, "off",
         "persistent setup cache (partitions + block systems): "
         "off | 1 (default dir) | <dir>"),
    Knob(ENV_FAULTS, "off",
         "fault injection: off | <path to a FaultPlan JSON file>"),
)


def _env(var: str) -> str | None:
    """The stripped environment value, or ``None`` when unset/empty."""
    val = os.environ.get(var, "").strip()
    return val or None


# ----------------------------------------------------------------------
# typed getters (explicit argument > environment > default)
# ----------------------------------------------------------------------
def runtime(explicit: str | None = None) -> str:
    """The message-plane mode; junk values degrade to ``auto``."""
    mode = (explicit if explicit else _env(ENV_RUNTIME)) or "auto"
    mode = mode.strip().lower()
    return mode if mode in VALID_RUNTIME_MODES else "auto"


def workers(explicit: int | None = None) -> int:
    """Sweep pool size; non-integers degrade to 0 (serial)."""
    if explicit is not None:
        return int(explicit)
    try:
        return int(_env(ENV_WORKERS) or 0)
    except ValueError:
        return 0


def sweep_cache(explicit: Path | str | None = None) -> Path:
    """The on-disk sweep cache directory."""
    if explicit is not None:
        return Path(explicit)
    env = _env(ENV_SWEEP_CACHE)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-southwell"


def trace_spec(explicit: str | None = None) -> str | None:
    """Normalised ``REPRO_TRACE`` value: ``None`` (off), ``"1"``
    (in-memory), or a directory path (one trace file per run)."""
    raw = explicit if explicit is not None else _env(ENV_TRACE)
    if raw is None or raw.strip().lower() in _TRACE_OFF:
        return None
    if raw.strip().lower() in _TRACE_ON:
        return "1"
    return raw


def trace_active(explicit: str | None = None) -> bool:
    """Should runs construct a recording tracer by default?"""
    return trace_spec(explicit) is not None


def trace_dir(explicit: str | None = None) -> Path | None:
    """Directory per-run trace files go to, or ``None`` (off/in-memory)."""
    spec = trace_spec(explicit)
    if spec is None or spec == "1":
        return None
    return Path(spec)


def faults_spec(explicit: str | None = None) -> str | None:
    """Normalised ``REPRO_FAULTS`` value: ``None`` (off) or the path of
    a :meth:`repro.faults.FaultPlan.to_json` plan file.

    Loading/validating the plan stays in :mod:`repro.faults`; this only
    answers "which plan file was asked for".  Callers also use the
    returned string as a cache-key component so cached run results are
    never shared across different fault plans.
    """
    raw = explicit if explicit is not None else _env(ENV_FAULTS)
    if raw is None or raw.strip().lower() in _TRACE_OFF:
        return None
    return raw


def setup_cache_spec(explicit: str | Path | None = None) -> str | None:
    """Normalised ``REPRO_SETUP_CACHE`` value: ``None`` (off), ``"1"``
    (on, default directory), or a directory path."""
    raw = str(explicit) if explicit is not None else _env(ENV_SETUP_CACHE)
    if raw is None or raw.strip().lower() in _TRACE_OFF:
        return None
    if raw.strip().lower() in _SETUP_ON:
        return "1"
    return raw


def setup_cache_dir(explicit: str | Path | None = None) -> Path | None:
    """The setup-cache directory, or ``None`` when the cache is off.

    The default directory lives beside the sweep cache so one
    ``rm -rf ~/.cache/repro-southwell`` clears both.
    """
    spec = setup_cache_spec(explicit)
    if spec is None:
        return None
    if spec == "1":
        return Path.home() / ".cache" / "repro-southwell" / "setup"
    return Path(spec)


def parse_speed_factors(spec: str) -> tuple[tuple[int, float], ...]:
    """Parse a ``"rank:factor,rank:factor"`` straggler spec.

    Raises :class:`ValueError` on malformed entries or non-finite or
    non-positive factors — the CLI's ``--async-speed-factors`` and
    :class:`~repro.core.async_exec.AsyncExecutor`'s string specs share
    this.
    """
    out: list[tuple[int, float]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        rank_s, sep, factor_s = part.partition(":")
        if not sep:
            raise ValueError(
                f"speed-factor entry {part!r} is not 'rank:factor'")
        rank = int(rank_s)
        factor = require_finite("speed factor", factor_s, positive=True)
        if rank < 0:
            raise ValueError(f"speed-factor rank {rank} is negative")
        out.append((rank, factor))
    return tuple(out)


def require_finite(name: str, value, *, positive: bool) -> float:
    """``value`` as a float: finite and ``> 0`` (``positive``) or
    ``>= 0``, else a :class:`ValueError` naming ``name`` (NaN fails
    every comparison, so a bare ``< 0`` check would let it through)."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number, got {value!r}") from None
    if not (math.isfinite(v) and (v > 0.0 if positive else v >= 0.0)):
        raise ValueError(f"{name} must be finite and "
                         f"{'positive' if positive else 'non-negative'}, "
                         f"got {value!r}")
    return v


def require_int(name: str, value, low: int) -> int:
    """``value`` as an ``int`` ``>= low``: a Python or numpy integer,
    never a ``bool``, a float or a string — else a :class:`ValueError`
    naming ``name``."""
    if (isinstance(value, bool)
            or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(
            f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def _effective(knob: Knob) -> tuple[str, str]:
    """``(value, source)`` for one knob, seeing programmatic overrides."""
    if knob.env == ENV_RUNTIME:
        from repro.runtime import flatplane

        if flatplane._mode_override is not None:
            return flatplane._mode_override, "set_runtime_mode()"
        return runtime(), "environment" if _env(ENV_RUNTIME) else "default"
    if knob.env == ENV_WORKERS:
        return str(workers()), "environment" if _env(ENV_WORKERS) else "default"
    if knob.env == ENV_SWEEP_CACHE:
        return (str(sweep_cache()),
                "environment" if _env(ENV_SWEEP_CACHE) else "default")
    if knob.env == ENV_TRACE:
        spec = trace_spec()
        if spec is None:
            return "off", "environment" if _env(ENV_TRACE) else "default"
        return ("in-memory" if spec == "1" else spec), "environment"
    if knob.env == ENV_SETUP_CACHE:
        cdir = setup_cache_dir()
        if cdir is None:
            return ("off",
                    "environment" if _env(ENV_SETUP_CACHE) else "default")
        return str(cdir), "environment"
    if knob.env == ENV_FAULTS:
        spec = faults_spec()
        if spec is None:
            return "off", "environment" if _env(ENV_FAULTS) else "default"
        return spec, "environment"
    raise ValueError(f"unknown knob {knob.env}")  # pragma: no cover


def describe() -> str:
    """Human-readable table of every knob: value, source, meaning.

    Printed by the ``repro config`` CLI subcommand; the precedence rule
    in the header is the module's contract.
    """
    lines = ["configuration (precedence: explicit arg > programmatic "
             "override > env > default)", ""]
    rows = []
    for knob in KNOBS:
        value, source = _effective(knob)
        rows.append((knob.env, value, source, knob.doc))
    w0 = max(len(r[0]) for r in rows)
    w1 = max(len(r[1]) for r in rows)
    w2 = max(len(r[2]) for r in rows)
    for env, value, source, doc in rows:
        lines.append(f"  {env:<{w0}}  {value:<{w1}}  [{source:<{w2}}]  {doc}")
    return "\n".join(lines)
