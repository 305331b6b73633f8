"""The central ``repro.config`` knob layer.

Contract: one read-through point for every ``REPRO_*`` environment
variable, with precedence ``explicit arg > programmatic override > env >
default`` and graceful degradation on junk values (a bad knob must never
break a run).  Run parameters that have a config field
(``MultigridConfig`` / ``AsyncConfig``) have no environment knob: a
stray ``REPRO_MG_*`` / ``REPRO_ASYNC_LATENCY`` variable changes nothing.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import config


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    """Every test starts with no REPRO_* knobs set."""
    for knob in config.KNOBS:
        monkeypatch.delenv(knob.env, raising=False)


# ----------------------------------------------------------------------
# precedence: explicit > env > default, per getter
# ----------------------------------------------------------------------
def test_runtime_precedence(monkeypatch):
    assert config.runtime() == "auto"
    monkeypatch.setenv(config.ENV_RUNTIME, "object")
    assert config.runtime() == "object"
    assert config.runtime("flat") == "flat"


def test_runtime_junk_degrades_to_auto(monkeypatch):
    monkeypatch.setenv(config.ENV_RUNTIME, "warp-drive")
    assert config.runtime() == "auto"
    assert config.runtime("  FLAT ") == "flat"       # normalised
    assert config.runtime("bogus") == "auto"


# ----------------------------------------------------------------------
# run parameters with a config field have no environment knob
# ----------------------------------------------------------------------
def _executor(**kwargs):
    from repro.core.async_exec import AsyncExecutor

    return AsyncExecutor(None, **kwargs)


def test_async_latency_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_ASYNC_LATENCY", "1e-4")         # ignored
    assert _executor().latency == config.DEFAULT_ASYNC_LATENCY
    assert _executor(latency=2.5e-6).latency == 2.5e-6        # explicit


def test_async_latency_junk_degrades_to_default(monkeypatch):
    from repro.api import AsyncConfig

    monkeypatch.setenv("REPRO_ASYNC_LATENCY", "not-a-number")
    assert _executor().latency == config.DEFAULT_ASYNC_LATENCY
    with pytest.raises(ValueError):
        _executor(latency=-3.0)                               # explicit junk
    with pytest.raises(ValueError):
        AsyncConfig(latency=-3.0)


def test_async_speed_factors_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_ASYNC_SPEED_FACTORS", "0:0.5,3:2")  # ignored
    assert _executor()._base_speed(4) is None                 # default
    # explicit: a spec string, pre-parsed pairs, or a per-rank array
    assert _executor(speed_factors="1:4")._base_speed(2).tolist() == \
        [1.0, 4.0]
    assert _executor(speed_factors=((0, 0.25),))._base_speed(2).tolist() \
        == [0.25, 1.0]
    assert _executor(speed_factors=np.array([0.5, 1.0]))._base_speed(
        2).tolist() == [0.5, 1.0]


def test_async_speed_factors_junk_degrades_to_none(monkeypatch):
    monkeypatch.setenv("REPRO_ASYNC_SPEED_FACTORS", "garbage")
    assert _executor()._base_speed(4) is None
    with pytest.raises(ValueError):
        _executor(speed_factors="garbage")._base_speed(4)     # explicit junk
    with pytest.raises(ValueError):
        _executor(speed_factors=((9, 2.0),))._base_speed(4)   # rank range


def test_parse_speed_factors_validation():
    with pytest.raises(ValueError):
        config.parse_speed_factors("0=2.0")
    with pytest.raises(ValueError):
        config.parse_speed_factors("-1:2.0")
    with pytest.raises(ValueError):
        config.parse_speed_factors("0:0")
    assert config.parse_speed_factors(" 0:1.5 , 2:0.5 ") == \
        ((0, 1.5), (2, 0.5))


def test_workers_precedence(monkeypatch):
    assert config.workers() == 0
    monkeypatch.setenv(config.ENV_WORKERS, "4")
    assert config.workers() == 4
    assert config.workers(2) == 2


def test_workers_junk_degrades_to_serial(monkeypatch):
    monkeypatch.setenv(config.ENV_WORKERS, "many")
    assert config.workers() == 0


def test_sweep_cache_precedence(monkeypatch, tmp_path):
    assert config.sweep_cache() == Path.home() / ".cache" / "repro-southwell"
    monkeypatch.setenv(config.ENV_SWEEP_CACHE, str(tmp_path / "env"))
    assert config.sweep_cache() == tmp_path / "env"
    assert config.sweep_cache(tmp_path / "arg") == tmp_path / "arg"


# ----------------------------------------------------------------------
# REPRO_SETUP_CACHE spellings
# ----------------------------------------------------------------------
def test_setup_cache_default_is_off():
    assert config.setup_cache_spec() is None
    assert config.setup_cache_dir() is None


@pytest.mark.parametrize("raw", ["", "0", "off", "OFF", "false", "no"])
def test_setup_cache_off_spellings(monkeypatch, raw):
    monkeypatch.setenv(config.ENV_SETUP_CACHE, raw)
    assert config.setup_cache_spec() is None
    assert config.setup_cache_dir() is None


@pytest.mark.parametrize("raw", ["1", "on", "true", "YES"])
def test_setup_cache_on_spellings_mean_default_dir(monkeypatch, raw):
    monkeypatch.setenv(config.ENV_SETUP_CACHE, raw)
    assert config.setup_cache_spec() == "1"
    assert config.setup_cache_dir() == \
        Path.home() / ".cache" / "repro-southwell" / "setup"


def test_setup_cache_other_value_is_a_directory(monkeypatch, tmp_path):
    monkeypatch.setenv(config.ENV_SETUP_CACHE, str(tmp_path))
    assert config.setup_cache_spec() == str(tmp_path)
    assert config.setup_cache_dir() == tmp_path


def test_setup_cache_explicit_beats_env(monkeypatch, tmp_path):
    monkeypatch.setenv(config.ENV_SETUP_CACHE, "1")
    assert config.setup_cache_spec("off") is None
    assert config.setup_cache_dir(tmp_path / "arg") == tmp_path / "arg"


# ----------------------------------------------------------------------
# REPRO_TRACE spellings
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw", ["", "0", "off", "OFF", "false", "no"])
def test_trace_off_spellings(monkeypatch, raw):
    monkeypatch.setenv(config.ENV_TRACE, raw)
    assert config.trace_spec() is None
    assert config.trace_active() is False
    assert config.trace_dir() is None


@pytest.mark.parametrize("raw", ["1", "on", "true", "YES"])
def test_trace_on_spellings_mean_in_memory(monkeypatch, raw):
    monkeypatch.setenv(config.ENV_TRACE, raw)
    assert config.trace_spec() == "1"
    assert config.trace_active() is True
    assert config.trace_dir() is None                # in-memory, no files


def test_trace_other_value_is_a_directory(monkeypatch, tmp_path):
    monkeypatch.setenv(config.ENV_TRACE, str(tmp_path))
    assert config.trace_spec() == str(tmp_path)
    assert config.trace_active() is True
    assert config.trace_dir() == tmp_path


def test_trace_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(config.ENV_TRACE, "1")
    assert config.trace_spec("off") is None
    assert config.trace_spec("traces") == "traces"


def test_trace_default_is_off():
    assert config.trace_spec() is None
    assert config.trace_active() is False


# ----------------------------------------------------------------------
# describe(): the `repro config` report
# ----------------------------------------------------------------------
def test_describe_lists_every_knob():
    out = config.describe()
    for knob in config.KNOBS:
        assert knob.env in out
    assert "precedence" in out
    # one row per knob, and the knob set is pinned: adding one is a
    # decision, not a side effect
    rows = [ln for ln in out.splitlines() if ln.lstrip().startswith("REPRO_")]
    assert len(rows) == len(config.KNOBS) == 6


def test_describe_shows_env_sources(monkeypatch, tmp_path):
    monkeypatch.setenv(config.ENV_WORKERS, "8")
    monkeypatch.setenv(config.ENV_TRACE, str(tmp_path / "tr"))
    out = config.describe()
    assert "8" in out
    assert str(tmp_path / "tr") in out
    assert "[environment" in out


def test_describe_sees_programmatic_runtime_override():
    from repro.runtime import flatplane

    with flatplane.use_runtime("object"):
        assert "set_runtime_mode()" in config.describe()
    assert "set_runtime_mode()" not in config.describe()


def test_runtime_mode_override_beats_env(monkeypatch):
    from repro.runtime import flatplane

    monkeypatch.setenv(config.ENV_RUNTIME, "flat")
    assert flatplane.runtime_mode() == "flat"
    with flatplane.use_runtime("object"):
        assert flatplane.runtime_mode() == "object"  # override wins
    assert flatplane.runtime_mode() == "flat"        # restored


def test_knobs_are_frozen_and_documented():
    for knob in config.KNOBS:
        assert knob.env.startswith("REPRO_")
        assert knob.doc
        with pytest.raises(Exception):
            knob.env = "X"


# ----------------------------------------------------------------------
# multigrid parameters: MultigridConfig fields only, no REPRO_MG_* knobs
# ----------------------------------------------------------------------
def _mg(dim=7, n_parts=None, **fields):
    """``solve(method="mg")`` on the scaled ``dim``² Laplacian."""
    from repro.api import MultigridConfig, RunConfig, solve
    from repro.matrices.poisson import poisson_2d

    A = poisson_2d(dim).scale(float(dim + 1) ** 2)
    return solve(A, method="mg", config=RunConfig(
        n_parts=n_parts, mg=MultigridConfig(**fields)))


def test_mg_smoother_precedence(monkeypatch):
    monkeypatch.setenv("REPRO_MG_SMOOTHER", "gs")        # ignored:
    with pytest.raises(ValueError, match="n_parts"):     # default "ds"
        _mg()                                            # needs n_parts
    assert _mg(smoother="gs", cycles=1).method == "mg-gauss-seidel"


def test_mg_smoother_junk_env_degrades_but_explicit_raises(monkeypatch):
    from repro.api import MultigridConfig

    monkeypatch.setenv("REPRO_MG_SMOOTHER", "sor")
    assert _mg(n_parts=2, cycles=1).method == "mg-block-ds"
    with pytest.raises(ValueError):
        MultigridConfig(smoother="sor")
    assert MultigridConfig(smoother=" GS ").smoother == "gs"   # normalised


def test_mg_budget_precedence(monkeypatch):
    from repro.api import MultigridConfig

    monkeypatch.setenv("REPRO_MG_BUDGET", "0.5")         # ignored
    # 7x7 grid, one cycle: the 49-row level is smoothed twice
    assert _mg(smoother="scalar-ds", cycles=1).relaxations == 2 * 49
    assert _mg(smoother="scalar-ds", cycles=1,
               budget=0.5).relaxations == 2 * 24
    with pytest.raises(ValueError):
        MultigridConfig(budget=0.0)                      # explicit junk


def test_mg_drop_tol_precedence(monkeypatch):
    from repro.api import MultigridConfig

    monkeypatch.setenv("REPRO_MG_DROP_TOL", "0.1")       # ignored
    res = _mg(15, smoother="gs", cycles=1)
    assert sum(r.nnz_dropped for r in res.levels) == 0
    res = _mg(15, smoother="gs", cycles=1, drop_tol=0.1)
    assert sum(r.nnz_dropped for r in res.levels) > 0
    with pytest.raises(ValueError):
        MultigridConfig(drop_tol=-1.0)


def test_mg_cycles_precedence(monkeypatch):
    from repro.api import MultigridConfig

    monkeypatch.setenv("REPRO_MG_CYCLES", "4")           # ignored
    assert _mg(smoother="gs").cycles == 9
    assert _mg(smoother="gs", cycles=2).cycles == 2
    with pytest.raises(ValueError):
        MultigridConfig(cycles=0)


def test_mg_levels_precedence(monkeypatch):
    from repro.api import MultigridConfig

    monkeypatch.setenv("REPRO_MG_LEVELS", "2")           # ignored
    assert len(_mg(15, smoother="gs", cycles=1).levels) == 3   # 15, 7, 3
    assert len(_mg(15, smoother="gs", cycles=1, levels=2).levels) == 2
    with pytest.raises(ValueError):
        MultigridConfig(levels=1)
