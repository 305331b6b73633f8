"""Central run configuration: the one ``REPRO_*`` knob and the field checks.

A run is configured by its own arguments — :class:`~repro.api.RunConfig`
fields, method constructor keywords, CLI flags — and by no ambient
state: the message plane, the tracer and the fault plan are explicit
fields (``runtime``, ``trace``, ``faults``) with no environment
fallback.  The one environment variable left is the setup cache's
directory (``REPRO_SETUP_CACHE``), a deployment setting rather than a
run parameter; it reads through this module with the precedence

    explicit argument  >  environment  >  default

and unset or junk values fall back to the default rather than breaking
a run.

``repro config`` on the command line prints :func:`describe` — the knob
with its environment variable, effective value, and where that value
came from.

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

import numpy as np

__all__ = [
    "ENV_SETUP_CACHE",
    "KNOBS",
    "Knob",
    "VALID_MG_SMOOTHERS",
    "VALID_RUNTIME_MODES",
    "parse_speed_factors",
    "require_bool",
    "require_finite",
    "require_int",
    "require_runtime",
    "describe",
    "setup_cache_dir",
    "setup_cache_spec",
]

ENV_SETUP_CACHE = "REPRO_SETUP_CACHE"

#: message-plane modes accepted by ``RunConfig.runtime`` / ``--runtime`` /
#: ``set_runtime_mode``; ``auto`` and ``flat`` both name the lockstep
#: epoch loop over the flat plane; ``async`` is the same plane driven by
#: the discrete-event executor instead of lockstep epochs (DESIGN.md
#: §5.14); ``shm`` names a deleted plane and runs the flat plane,
#: reported as ``degraded_reason = "shm-unavailable"`` (DESIGN.md §5.12)
VALID_RUNTIME_MODES = ("auto", "flat", "shm", "async")

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

#: ``REPRO_SETUP_CACHE`` spellings meaning "off" (same set as unset) and
#: "on, in the default directory"; any other value is a directory path
_SETUP_OFF = ("", "0", "off", "false", "no")
_SETUP_ON = ("1", "on", "true", "yes")


@dataclass(frozen=True)
class Knob:
    """One documented configuration knob."""

    env: str
    default: str
    doc: str


KNOBS: tuple[Knob, ...] = (
    Knob(ENV_SETUP_CACHE, "off",
         "persistent setup cache (partitions + block systems): "
         "off | 1 (default dir) | <dir>"),
)


def _env(var: str) -> str | None:
    """The stripped environment value, or ``None`` when unset/empty."""
    val = os.environ.get(var, "").strip()
    return val or None


# ----------------------------------------------------------------------
# typed getters (explicit argument > environment > default)
# ----------------------------------------------------------------------
def setup_cache_spec(explicit: str | Path | None = None) -> str | None:
    """Normalised ``REPRO_SETUP_CACHE`` value: ``None`` (off), ``"1"``
    (on, default directory), or a directory path."""
    raw = str(explicit) if explicit is not None else _env(ENV_SETUP_CACHE)
    if raw is None or raw.strip().lower() in _SETUP_OFF:
        return None
    if raw.strip().lower() in _SETUP_ON:
        return "1"
    return raw


def setup_cache_dir(explicit: str | Path | None = None) -> Path | None:
    """The setup-cache directory, or ``None`` when the cache is off."""
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


def require_runtime(mode) -> str:
    """``mode`` itself when it is one of :data:`VALID_RUNTIME_MODES`;
    otherwise a :class:`ValueError` listing them."""
    if mode not in VALID_RUNTIME_MODES:
        raise ValueError(f"runtime must be one of {VALID_RUNTIME_MODES}, "
                         f"got {mode!r}")
    return mode


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


def require_bool(name: str, value) -> bool:
    """``value`` as a ``bool``: a Python or numpy bool only — never an
    int, a string or another truthy object — else a :class:`ValueError`
    naming ``name`` (the mirror of :func:`require_int`'s rule)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")
    return bool(value)


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
    """``(value, source)`` for one knob."""
    if knob.env == ENV_SETUP_CACHE:
        cdir = setup_cache_dir()
        if cdir is None:
            return ("off",
                    "environment" if _env(ENV_SETUP_CACHE) else "default")
        return str(cdir), "environment"
    raise ValueError(f"unknown knob {knob.env}")  # pragma: no cover


def describe() -> str:
    """Human-readable table of every knob: value, source, meaning.

    Printed by the ``repro config`` CLI subcommand; the precedence rule
    in the header is the module's contract.
    """
    lines = ["configuration (precedence: explicit arg > env > default)",
             ""]
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
