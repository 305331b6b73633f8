"""Tests for the top-level API and the DMEM_Southwell-style CLI."""

import json
import numpy as np
import pytest

from repro.api import MultigridConfig, RunConfig, solve
from repro.cli import main
from repro.core import DistributedSouthwell
from repro.core.blockdata import build_block_system
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.sparsela import write_matrix_market


def test_solve_returns_consistent_result(fem_300):
    res = solve(fem_300, method="distributed-southwell", n_parts=6,
                max_steps=10, seed=0, runtime="flat")
    assert res.method == "distributed-southwell"
    assert res.n_parts == 6
    assert res.parallel_steps == 10
    r = fem_300.matvec(res.x)
    assert np.isclose(np.linalg.norm(-r), res.final_norm, atol=1e-12)
    assert res.comm_cost == pytest.approx(res.solve_comm
                                          + res.residual_comm)
    assert "distributed-southwell" in res.summary()


def test_default_initial_state_norm_one(fem_300):
    res = solve(fem_300, method="block-jacobi", n_parts=4, max_steps=0,
                seed=1)
    assert np.isclose(res.history.initial_norm, 1.0, atol=1e-12)


def test_run_with_prebuilt_method(fem_300):
    part = partition(fem_300, 5, seed=2)
    system = build_block_system(fem_300, part)
    method = DistributedSouthwell(system)
    res = solve(fem_300, method=method, max_steps=5, seed=2, runtime="flat")
    assert res.n_parts == 5
    assert res.parallel_steps == 5


def test_solve_validation(fem_300):
    with pytest.raises(ValueError):
        solve(fem_300, method="nope", n_parts=4)
    with pytest.raises(ValueError):
        solve(fem_300, method="block-jacobi")


_RUN_KINDS = {
    "lockstep": dict(method="distributed-southwell", n_parts=2,
                     runtime="flat"),
    "async": dict(method="distributed-southwell", n_parts=2,
                  runtime="async"),
    "mg": dict(method="mg", mg=MultigridConfig(smoother="gs", cycles=1)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("kind", sorted(_RUN_KINDS))
@pytest.mark.parametrize("arg", ["A", "b", "x0"])
def test_solve_rejects_non_finite_input(arg, kind, bad):
    """NaN/Inf in any input is a ValueError naming it, before set-up."""
    A = poisson_2d(7).scale(64.0)        # a 7x7 grid: every run kind works
    b, x0 = np.ones(A.n_rows), np.zeros(A.n_rows)
    {"A": A.data, "b": b, "x0": x0}[arg][3] = bad
    with pytest.raises(ValueError, match=f"^{arg} contains non-finite"):
        solve(A, b, x0=x0, **_RUN_KINDS[kind])


@pytest.mark.parametrize("kind", sorted(_RUN_KINDS))
@pytest.mark.parametrize("arg", ["b", "x0"])
@pytest.mark.parametrize("shape", [(10,), (49, 1), ()], ids=str)
def test_solve_rejects_misshaped_vectors(arg, kind, shape):
    """``b``/``x0`` must be 1-D of the matrix size — also when the other
    one is omitted."""
    A = poisson_2d(7).scale(64.0)
    with pytest.raises(ValueError, match=f"^{arg} must be 1-D of length 49"):
        solve(A, **{arg: np.ones(shape)}, **_RUN_KINDS[kind])


@pytest.mark.parametrize("kind", sorted(_RUN_KINDS))
def test_solve_rejects_negative_diagonal(kind):
    A = poisson_2d(7).scale(64.0)
    row = 5
    A.data[A.indptr[row] + np.flatnonzero(
        A.indices[A.indptr[row]:A.indptr[row + 1]] == row)[0]] *= -1.0
    with pytest.raises(ValueError, match="negative diagonal.* at row 5;"):
        solve(A, np.ones(A.n_rows), **_RUN_KINDS[kind])


@pytest.mark.parametrize("field,bad", [
    ("n_parts", 2.5), ("n_parts", "4"), ("n_parts", True), ("n_parts", 0),
    ("max_steps", -3), ("max_steps", 2.7), ("max_steps", None),
    ("target_norm", np.nan), ("target_norm", -1.0), ("target_norm", "x"),
], ids=str)
def test_run_config_rejects_bad_scalars(field, bad):
    """A bad scalar is a ValueError naming its field, raised before any
    set-up (not a deep TypeError, a silent 0-step run or a run that
    never stops)."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        solve(poisson_2d(12), np.ones(144), method="distributed-southwell",
              **{"n_parts": 4, "stop_at_target": True, field: bad})


def test_run_config_accepts_numpy_integers():
    cfg = RunConfig(n_parts=np.int64(4), max_steps=np.int32(0))
    assert (cfg.n_parts, cfg.max_steps) == (4, 0)
    assert type(cfg.n_parts) is int and type(cfg.max_steps) is int


def test_solve_keeps_b_without_x0():
    """``solve(A, b)`` solves ``A x = b`` from ``x0 = 0``."""
    A = poisson_2d(12)
    b = np.random.default_rng(0).uniform(-1.0, 1.0, A.n_rows)
    res = solve(A, b, n_parts=4, max_steps=30)
    assert res.history.initial_norm == pytest.approx(np.linalg.norm(b))
    assert np.linalg.norm(b - A.matvec(res.x)) < 0.5 * np.linalg.norm(b)


def test_reached_helper(fem_300):
    res = solve(fem_300, method="parallel-southwell", n_parts=4,
                max_steps=40, seed=0)
    assert res.reached(0.5)
    assert not res.reached(1e-30)


# ------------------------------------------------------------------- cli
def test_cli_generated_problem(capsys):
    rc = main(["-n", "8", "-sweep_max", "5", "-grid_dim", "20",
               "-solver", "sos_sds", "-seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "distributed-southwell" in out
    assert "n=400" in out


def test_cli_format_out(capsys):
    rc = main(["-n", "4", "-sweep_max", "3", "-grid_dim", "12",
               "-solver", "sj", "-format_out", "-target", "0.5",
               "--runtime", "flat"])
    assert rc == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert fields["solver"] == "block-jacobi"
    assert int(fields["parallel_steps"]) == 3
    assert float(fields["residual_norm"]) > 0
    assert "steps_to_target" in fields


def test_cli_x_zeros_and_aliases(capsys):
    rc = main(["-n", "4", "-sweep_max", "2", "-grid_dim", "10",
               "-solver", "ps", "-x_zeros"])
    assert rc == 0
    assert "parallel-southwell" in capsys.readouterr().out


def test_cli_async_flags_beat_env(monkeypatch, capsys):
    """--runtime overrides REPRO_RUNTIME; the --async-* flags set the
    async run's config."""
    monkeypatch.setenv("REPRO_RUNTIME", "flat")
    rc = main(["-n", "4", "-sweep_max", "10", "-grid_dim", "10",
               "-solver", "sos_sds", "-format_out",
               "--runtime", "async", "--async-latency", "1e-5",
               "--async-speed-factors", "0:0.5"])
    assert rc == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    # async ran (env said flat), priced at the flag's 10 µs latency
    assert "virtual_time" in fields
    assert 0.0 < float(fields["virtual_time"]) < 1e-3


def test_cli_rejects_bad_async_spec(capsys):
    with pytest.raises(ValueError):
        main(["-n", "4", "-sweep_max", "2", "-grid_dim", "10",
              "--runtime", "async", "--async-speed-factors", "0=2"])


def test_cli_reads_matrix_file(tmp_path, capsys, poisson_100):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, poisson_100)
    rc = main(["-n", "4", "-sweep_max", "2", "-mat_file", str(path)])
    assert rc == 0
    assert "n=100" in capsys.readouterr().out


def test_cli_mg_solver(capsys):
    rc = main(["--method", "mg", "-grid_dim", "15", "-n", "4", "-x_zeros",
               "-format_out"])
    assert rc == 0
    out = capsys.readouterr().out
    fields = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert fields["solver"] == "mg"
    assert int(fields["parallel_steps"]) == 9        # 9 V-cycles
    assert float(fields["residual_norm"]) < 1e-6
    assert float(fields["comm_cost"]) > 0            # block-DS default


def test_cli_mg_flags(capsys):
    rc = main(["-solver", "multigrid", "-grid_dim", "15", "-n", "4",
               "--mg-smoother", "gs", "--mg-drop-tol", "0.1", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro.solveresult/v5"
    assert doc["method"] == "mg-gauss-seidel"
    assert doc["config"]["mg"]["smoother"] == "gs"
    assert doc["config"]["mg"]["drop_tol"] == 0.1
    assert sum(lvl["nnz_dropped"] for lvl in doc["levels"]) > 0


def test_cli_mg_rejects_non_power_grid(capsys):
    with pytest.raises(ValueError, match="2\\^k"):
        main(["-solver", "mg", "-grid_dim", "20", "-n", "4"])
