"""The lockstep step's static index plans (DESIGN.md §5.8).

Every per-step index set of a lockstep step — the winners' rows,
fan-out entries, slab positions and z spans, the delivered edges'
``vals`` and ``z`` entries — is one boolean gather over a static owner
map built once per structure.  Each must equal, element for element and
in order, the offset-range construction (``multi_arange``) it replaces,
on the int32 plane and on the int64 one.  A fault-free, untraced step
builds no index list from spans and sorts nothing; a batch a fault plan
reordered or doubled keeps the ordered range gather, and its run its
recorded digest.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.block_base as block_base
import repro.core.distributed_southwell_block as dsb
import repro.runtime.flatplane as flatplane
from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan
from repro.matrices.poisson import poisson_2d
from repro.partition import partition
from repro.runtime import CATEGORY_SOLVE
from repro.solvers.block_jacobi import BlockJacobi
from repro.sparsela import primitives
from repro.sparsela.primitives import multi_arange
from repro.sparsela.scaling import symmetric_unit_diagonal_scale

from tests.oracles import put_one
from tests.plane_pins import PINS, run_fingerprint
from tests.test_block_properties import _random_setup

_CLASSES = {
    "distributed-southwell": DistributedSouthwell,
    "parallel-southwell": ParallelSouthwell,
    "block-jacobi": BlockJacobi,
}


def _eq(got: np.ndarray, want: np.ndarray) -> None:
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("wide", [False, True])
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.integers(20, 90), n_parts=st.integers(1, 12),
       seed=st.integers(0, 10_000), data=st.data())
def test_static_maps_equal_the_range_gathers(wide, n, n_parts, seed, data,
                                             monkeypatch):
    if wide:
        monkeypatch.setattr(flatplane, "_INT32_LIMIT", 0)  # int64 plane
    _, system, x0, b = _random_setup(n, n_parts, seed)
    m = DistributedSouthwell(system)
    m.setup(x0, b)
    m._relax_plans()
    plane = m.engine.flat
    idt = np.int64 if wide else np.int32
    assert plane.idx_dtype is idt
    for name in ("_row_rank", "_vals_edge", "_z_edge"):
        assert getattr(m, name).dtype == idt, name
    P, E = system.n_parts, plane.n_edges
    won = np.array(data.draw(st.lists(st.booleans(), min_size=P,
                                      max_size=P)), dtype=bool)
    W = np.flatnonzero(won)
    rstart, off = m._rstart, m._nbr_off
    voff, zoff = plane.vals_off, plane.z_off
    edges = won[m._slab_owner]
    # the winners' rows, slab positions, fan-out entries and z spans
    _eq(np.flatnonzero(won[m._row_rank]), multi_arange(rstart[W],
                                                       rstart[W + 1]))
    _eq(np.flatnonzero(edges), multi_arange(off[W], off[W + 1]))
    _eq(np.flatnonzero(edges[m._vals_edge]),
        multi_arange(m._fan_rows[W], m._fan_rows[W + 1]))
    _eq(np.flatnonzero(edges[m._z_edge]),
        multi_arange(zoff[off[W]], zoff[off[W + 1]]))
    # a delivered single put (ascending slot-ids, as every method puts):
    # its vals and z entries, and the repair mask's z entries
    hit = np.array(data.draw(st.lists(st.booleans(), min_size=E,
                                      max_size=E)), dtype=bool)
    eids = np.flatnonzero(hit)
    sids = (2 * eids).astype(plane.idx_dtype)
    srcs, counts = np.unique(plane.edge_src[eids], return_counts=True)
    plane.put_epoch(sids, 0.0, 0.0, srcs.astype(np.int64), counts,
                    np.zeros(srcs.size, dtype=np.int64), CATEGORY_SOLVE)
    plane.deliver_pending()
    arr = plane.last_delivered
    assert plane.last_single_put == bool(eids.size)   # nothing: no put
    assert arr.tolist() == sids.tolist()
    _eq(m._delivered(arr, m._vals_edge, voff),
        multi_arange(voff[eids], voff[eids + 1]))
    _eq(m._delivered(arr, m._z_edge, zoff),
        multi_arange(zoff[eids], zoff[eids + 1]))
    _eq(np.flatnonzero(hit[m._z_edge]),
        multi_arange(zoff[eids], zoff[eids + 1]))
    # the same edges put one by one in a shuffled order: several puts,
    # so the entries come in delivery order, edge by edge
    order = np.array(data.draw(st.permutations(eids.tolist())),
                     dtype=np.int64)
    for e in order.tolist():
        put_one(plane, 2 * e, 0, CATEGORY_SOLVE)
    plane.deliver_pending()
    arr = plane.last_delivered
    assert not plane.last_single_put or order.size == 1
    _eq(m._delivered(arr, m._vals_edge, voff),
        multi_arange(voff[order], voff[order + 1]))
    _eq(m._delivered(arr, m._z_edge, zoff),
        multi_arange(zoff[order], zoff[order + 1]))


def _count_calls(monkeypatch, modules) -> dict:
    """Count ``multi_arange`` through the name each module imports, and
    every ``np.argsort`` (a per-step plan's or a delivery's sort)."""
    seen = {"multi_arange": 0, "argsort": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            seen[name] += 1
            return fn(*args, **kwargs)
        return wrapped
    for mod in modules:
        monkeypatch.setattr(mod, "multi_arange",
                            counting("multi_arange", mod.multi_arange))
    monkeypatch.setattr(np, "argsort", counting("argsort", np.argsort))
    return seen


@pytest.mark.parametrize("method", sorted(_CLASSES))
def test_clean_step_builds_no_index_list(method, monkeypatch):
    """A fault-free, untraced step makes no ``multi_arange`` call and
    no sort once the first step has built the lazy plans; the
    per-call length plan (``segment_plan``) is gone."""
    assert not hasattr(primitives, "segment_plan")
    A = poisson_2d(48)
    system = build_block_system(A, partition(A, 64, seed=0))
    rng = np.random.default_rng(0)
    m = _CLASSES[method](system)
    m.setup(rng.uniform(-1, 1, A.n_rows), np.zeros(A.n_rows))
    m.step()
    seen = _count_calls(monkeypatch, (block_base, dsb, primitives))
    active = sum(m.step() for _ in range(6))
    assert active > 0 and m.engine.stats.total_messages > 0
    assert seen == {"multi_arange": 0, "argsort": 0}


#: ``tests/test_faults.py``'s plans, by the kind of their pins
_PLANS = {
    "stale": FaultPlan.uniform(reorder=0.2, ghost_stale=0.3, seed=5),
    "lossy": FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=7),
}


@pytest.mark.parametrize("pin", [
    "stale:distributed-southwell", "lossy:distributed-southwell",
    "lossy:parallel-southwell", "lossy:block-jacobi"])
def test_faulted_batches_keep_the_ordered_path(pin, monkeypatch):
    """Under a reorder / duplicate plan no delivery is one unfated put,
    so the deliveries take the ordered range gather (the only
    ``multi_arange`` a step makes once the structure exists), and the
    run still reproduces its recorded fingerprint
    (``tests/test_faults.py``'s problem and plan)."""
    A = symmetric_unit_diagonal_scale(poisson_2d(20)).matrix
    system = build_block_system(A, partition(A, 8, seed=3))
    kind, name = pin.split(":")
    m = _CLASSES[name](system, faults=_PLANS[kind])
    x0 = np.random.default_rng(7).uniform(-1.0, 1.0, A.n_rows)
    m.setup(x0, np.zeros(A.n_rows))         # the structure, kept by run
    seen = _count_calls(monkeypatch, (block_base,))
    single = []
    real = flatplane.FlatEdgePlane.deliver_pending

    def watched(self):
        out = real(self)
        single.append(self.last_single_put)
        return out
    monkeypatch.setattr(flatplane.FlatEdgePlane, "deliver_pending", watched)
    hist = m.run(x0, np.zeros(A.n_rows), max_steps=15)
    assert single and not any(single)
    assert seen["multi_arange"] > 0
    want = PINS[pin]
    assert {**run_fingerprint(m, hist),
            "injected": dict(m._faults.injected)} == want
