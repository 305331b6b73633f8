"""Cross-subsystem integration tests: whole pipelines end to end."""

import numpy as np
import pytest

from repro.api import solve
from repro.core import DistributedSouthwell
from repro.core.blockdata import build_block_system
from repro.matrices import fem_poisson_2d, load_problem
from repro.partition import partition
from repro.sparsela import read_binary, read_matrix_market, write_binary, \
    write_matrix_market


def test_io_partition_solve_pipeline(tmp_path):
    """Generate → write MatrixMarket → read back → partition → solve."""
    prob = fem_poisson_2d(target_rows=400, seed=2)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, prob.matrix)
    A = read_matrix_market(path)
    assert A == prob.matrix
    res = solve(A, method="distributed-southwell", n_parts=8,
                max_steps=30, seed=0)
    assert res.final_norm < 0.05


def test_binary_io_pipeline(tmp_path):
    prob = load_problem("msdoor", size_scale=0.05)
    path = tmp_path / "m.bin"
    write_binary(path, prob.matrix)
    A = read_binary(path)
    res = solve(A, method="parallel-southwell", n_parts=6,
                max_steps=20, seed=0)
    assert res.final_norm < 1.0


def test_multi_sweep_local_solver_improves_per_step(fem_300):
    """Two local GS sweeps per relaxation converge in fewer parallel
    steps than one (at higher per-step flops)."""
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    part = partition(fem_300, 8, seed=0)
    finals = {}
    for sweeps in (1, 2):
        system = build_block_system(fem_300, part, n_sweeps=sweeps)
        ds = DistributedSouthwell(system)
        hist = ds.run(x0, b, max_steps=20)
        # bookkeeping stays exact with multi-sweep local solves
        r_true = b - fem_300.matvec(ds.solution())
        assert np.allclose(ds.residual_vector(), r_true, atol=1e-12)
        finals[sweeps] = hist.final_norm
    assert finals[2] < finals[1]


def test_direct_local_solver_pipeline(fem_300):
    rng = np.random.default_rng(1)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))
    res = solve(fem_300, b, method="block-jacobi", x0=x0, n_parts=6,
                max_steps=25, local_solver="direct", seed=0, runtime="flat")
    r_true = b - fem_300.matvec(res.x)
    assert np.isclose(np.linalg.norm(r_true), res.final_norm, atol=1e-12)
    assert res.final_norm < 0.01


def test_same_system_reused_across_methods(fem_300):
    """The experiment runners share one BlockSystem across methods; the
    methods must not corrupt shared state."""
    part = partition(fem_300, 8, seed=3)
    system = build_block_system(fem_300, part)
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-1, 1, fem_300.n_rows)
    b = np.zeros(fem_300.n_rows)
    x0 /= np.linalg.norm(fem_300.matvec(x0))

    first = DistributedSouthwell(system)
    h1 = first.run(x0, b, max_steps=10)
    second = DistributedSouthwell(system)
    h2 = second.run(x0, b, max_steps=10)
    assert h1.residual_norms == h2.residual_norms
    assert (first.engine.stats.total_messages
            == second.engine.stats.total_messages)


def test_seeded_determinism(fem_300):
    """Identical seeds ⇒ identical runs, bit for bit (the whole stack is
    deterministic: partitioner, initial state, message schedule)."""
    a = solve(fem_300, method="distributed-southwell", n_parts=8,
              max_steps=15, seed=42)
    b = solve(fem_300, method="distributed-southwell", n_parts=8,
              max_steps=15, seed=42)
    assert a.history.residual_norms == b.history.residual_norms
    assert a.comm_cost == b.comm_cost
    assert np.array_equal(a.x, b.x)


def test_different_partitions_same_convergence_class(fem_300):
    """Method behaviour is partition-robust: multilevel and strided
    partitions both converge.  (Message *counts* scale with the
    neighbor count, not the cut size — a banded 'strided' split of a 2D
    mesh has ~2 neighbors per process and can send fewer, larger
    messages; the graph-aware partitions win on bytes.)"""
    out = {}
    for method in ("multilevel", "strided"):
        res = solve(fem_300, method="distributed-southwell", n_parts=8,
                    max_steps=40, partition_method=method, seed=0)
        out[method] = res
        assert res.final_norm < 0.05, method


def test_async_converges_on_every_partition(fem_300):
    """The partition-robustness check on the event plane."""
    for method in ("multilevel", "strided"):
        res = solve(fem_300, method="distributed-southwell", n_parts=8,
                    max_steps=40, partition_method=method, seed=0,
                    runtime="async")
        assert res.final_norm < 0.05, method


def test_cli_matches_api_async(tmp_path, capsys, poisson_100):
    """``--runtime async`` on a matrix file, with ``-x_zeros`` and a
    short solver alias, prints the numbers of the same API run."""
    from repro.cli import main
    from repro.sparsela import write_matrix_market

    path = tmp_path / "m.mtx"
    write_matrix_market(path, poisson_100)
    assert main(["-n", "4", "-sweep_max", "6", "-mat_file", str(path),
                 "-solver", "ds", "-format_out", "-seed", "3", "-x_zeros",
                 "--runtime", "async"]) == 0
    fields = dict(line.split(None, 1)
                  for line in capsys.readouterr().out.strip().splitlines())
    b = np.random.default_rng(3).uniform(-1, 1, 100)
    res = solve(poisson_100, b / np.linalg.norm(b),
                method="distributed-southwell", x0=np.zeros(100),
                n_parts=4, max_steps=6, seed=3, runtime="async")
    assert float(fields["virtual_time"]) == pytest.approx(res.virtual_time,
                                                          rel=1e-5)
    assert np.isclose(float(fields["residual_norm"]), res.final_norm,
                      rtol=1e-12)
    assert np.isclose(float(fields["comm_cost"]), res.comm_cost)


@pytest.mark.parametrize("x_zeros", [False, True])
def test_cli_matches_api(tmp_path, capsys, x_zeros, poisson_100):
    """The CLI's -format_out numbers equal a direct API run."""
    from repro.cli import main
    from repro.sparsela import write_matrix_market

    path = tmp_path / "m.mtx"
    write_matrix_market(path, poisson_100)
    args = ["-n", "4", "-sweep_max", "6", "-mat_file", str(path),
            "-solver", "sos_sds", "-format_out", "-seed", "3"]
    if x_zeros:
        args.append("-x_zeros")
    assert main(args) == 0
    fields = dict(line.split(None, 1)
                  for line in capsys.readouterr().out.strip().splitlines())

    rng = np.random.default_rng(3)
    if x_zeros:
        x0 = np.zeros(100)
        b = rng.uniform(-1, 1, 100)
        b /= np.linalg.norm(b)
    else:
        x0 = rng.uniform(-1, 1, 100)
        b = np.zeros(100)
        x0 /= np.linalg.norm(poisson_100.matvec(x0))
    res = solve(poisson_100, b, method="distributed-southwell", x0=x0,
                n_parts=4, max_steps=6, seed=3)
    assert np.isclose(float(fields["residual_norm"]), res.final_norm,
                      rtol=1e-12)
    assert np.isclose(float(fields["comm_cost"]), res.comm_cost)
