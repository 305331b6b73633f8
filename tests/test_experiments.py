"""Small-scale smoke tests of every experiment driver.

Each driver is exercised at the "small" scale to confirm it runs end to
end and emits the structure the benches rely on.  Shape assertions on the
paper's claims live in the benches (which run at the full default scale);
here only the cheap, always-true structural properties are asserted.
"""

import numpy as np
import pytest

from repro.experiments import (
    METHODS,
    get_scale,
    run_fig2,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)

SMALL = get_scale("small")
NAMES = ("msdoor", "af_5_k101")


def test_get_scale_validation():
    with pytest.raises(KeyError):
        get_scale("huge")
    assert get_scale("paper").n_procs == 256


def test_fig2_histories():
    out = run_fig2(fem_rows=SMALL.fem_rows, n_sweeps=2, seed=0)
    assert set(out) == {"GS", "SW", "Par SW", "MC GS", "Jacobi"}
    for hist in out.values():
        assert hist.residual_norms[-1] < hist.residual_norms[0]
        assert hist.relaxations[-1] >= 2 * SMALL.fem_rows - 1


def test_fig5_histories():
    out = run_fig5(fem_rows=SMALL.fem_rows, n_sweeps=2, seed=0)
    assert set(out) == {"SW", "Par SW", "MC GS", "Dist SW"}
    assert out["Dist SW"].residual_norms[-1] < 1.0


def test_fig6_rows():
    rows = run_fig6(grid_dims=(15, 31), n_cycles=5, seed=0)
    assert len(rows) == 2
    for row in rows:
        assert row["GS, 1 sweep"] < 1e-3
        assert row["Dist SW, 1 sweep"] < 1e-3
        assert row["Dist SW, 1/2 sweep"] < 1e-2


def test_table1_rows():
    rows = run_table1(size_scale=SMALL.size_scale)
    assert len(rows) == 14
    assert all(r["analog_equations"] > 0 for r in rows)
    # paper ordering: descending nonzeros
    nnzs = [r["paper_nonzeros"] for r in rows]
    assert nnzs == sorted(nnzs, reverse=True)


def test_table2_structure():
    rows = run_table2(n_procs=SMALL.n_procs, size_scale=SMALL.size_scale,
                      max_steps=SMALL.max_steps, names=NAMES)
    assert [r["matrix"] for r in rows] == list(NAMES)
    for row in rows:
        for label in ("BJ", "PS", "DS"):
            assert f"time_{label}" in row
            assert f"comm_{label}" in row
            assert f"steps_{label}" in row
            assert f"relax_per_n_{label}" in row
            assert f"active_{label}" in row
        # whatever reached has consistent data types
        for key, val in row.items():
            if key != "matrix" and val is not None:
                assert val >= 0.0


def test_table3_structure():
    rows = run_table3(n_procs=SMALL.n_procs, size_scale=SMALL.size_scale,
                      max_steps=SMALL.max_steps, names=NAMES)
    for row in rows:
        assert row["solve_comm_PS"] > 0
        assert row["solve_comm_DS"] > 0
        assert row["res_comm_DS"] >= 0


def test_table4_structure():
    rows = run_table4(n_procs=SMALL.n_procs, size_scale=SMALL.size_scale,
                      max_steps=SMALL.max_steps, names=NAMES)
    for row in rows:
        for label in ("BJ", "PS", "DS"):
            assert row[f"time_{label}"] > 0
            assert row[f"comm_{label}"] > 0


def test_fig7_series():
    out = run_fig7(n_procs=SMALL.n_procs, size_scale=SMALL.size_scale,
                   max_steps=SMALL.max_steps, names=("af_5_k101",))
    series = out["af_5_k101"]
    assert set(series) == set(METHODS)
    for cols in series.values():
        assert len(cols["residual_norms"]) == SMALL.max_steps + 1
        assert np.all(np.diff(cols["comm_costs"]) >= 0)
        assert np.all(np.diff(cols["times"]) >= 0)


def test_fig8_rows():
    rows = run_fig8(proc_sweep=(4, 8), size_scale=SMALL.size_scale,
                    max_steps=SMALL.max_steps, names=("af_5_k101",))
    assert len(rows) == 2
    assert {r["P"] for r in rows} == {4, 8}
    assert all("time_DS" in r for r in rows)


def test_fig9_rows():
    rows = run_fig9(proc_sweep=(4, 8), size_scale=SMALL.size_scale,
                    max_steps=SMALL.max_steps, names=("af_5_k101",))
    for row in rows:
        for label in ("BJ", "PS", "DS"):
            assert row[f"norm_{label}"] > 0


def test_runs_are_cached():
    """suite_runs reuses cached results — second call is near-free."""
    import time

    from repro.experiments.runners import run_method

    t0 = time.perf_counter()
    run_method("af_5_k101", "distributed-southwell", SMALL.n_procs,
               SMALL.size_scale, SMALL.max_steps, 0)
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    run_method("af_5_k101", "distributed-southwell", SMALL.n_procs,
               SMALL.size_scale, SMALL.max_steps, 0)
    second = time.perf_counter() - t0
    assert second < first / 5 + 1e-3


def test_suite_runs_matches_run_method():
    """A sweep is ``run_method`` per (problem, method): the same x bytes
    and residual history as a fresh, uncached run of each method."""
    from repro.experiments.runners import (
        clear_run_caches,
        run_method,
        suite_runs,
    )

    args = (6, 0.03, 8, 0)                  # P, size scale, steps, seed
    clear_run_caches()
    (run,) = suite_runs(("af_5_k101",), *args)
    assert set(run.results) == set(METHODS)
    for method, res in run.results.items():
        clear_run_caches()
        ref = run_method("af_5_k101", method, *args)
        assert ref is not res
        assert ref.x.tobytes() == res.x.tobytes()
        assert ref.history.residual_norms == res.history.residual_norms
    clear_run_caches()
