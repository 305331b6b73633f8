"""Recorded async event-loop results, pinned across commits.

Each cell runs one block method through :class:`AsyncExecutor` on a
small irregular FEM mesh with every fourth rank a 2× straggler, once
without a fault plan and once under a seeded lossy plan.  Its
fingerprint hashes the exact bytes of the solution, every rank's
virtual clock and idle time, every history column and the
:class:`~repro.runtime.stats.MessageStats` record (every closed step's
per-rank arrays, the category split and the simulated time).  The pins
were recorded on the array-backed event loop, before the plane's state
became Python lists, and must hold bit for bit on any rewrite of the
loop, the plane or the async hooks.

To re-record after a deliberate numerical change, print
``{cell: _fingerprint(cell) for cell in PINS}`` and paste it below.
"""

import numpy as np
import pytest

from repro.core import DistributedSouthwell, ParallelSouthwell
from repro.core.async_exec import AsyncExecutor
from repro.core.blockdata import build_block_system
from repro.faults import FaultPlan
from repro.matrices.fem import fem_poisson_2d
from repro.partition import partition
from repro.solvers.block_jacobi import BlockJacobi
from tests.plane_pins import _h, history_digest, stats_digest

N_PARTS, TURNS = 16, 2_500
STRAGGLERS = tuple((rank, 0.5) for rank in range(0, N_PARTS, 4))
LOSSY_PLAN = FaultPlan.uniform(drop=0.1, duplicate=0.05, reorder=0.1,
                               seed=17)
CLASSES = {"ds": DistributedSouthwell, "ps": ParallelSouthwell,
           "bj": BlockJacobi}


def _problem():
    A = fem_poisson_2d(target_rows=400, seed=3).matrix
    rng = np.random.default_rng(29)
    x0 = rng.uniform(-1.0, 1.0, A.n_rows)
    b = np.zeros(A.n_rows)
    return build_block_system(A, partition(A, N_PARTS, seed=1)), x0, b


_SYSTEM, _X0, _B = _problem()


def _fingerprint(cell: str) -> dict:
    method, kind = cell.split("-")
    runner = CLASSES[method](_SYSTEM,
                             faults=LOSSY_PLAN if kind == "lossy" else None)
    ex = AsyncExecutor(runner, speed_factors=STRAGGLERS, record_every=32)
    hist = ex.run(_X0, _B, max_turns=TURNS)
    ap = ex.aplane
    return {
        "x": _h(runner.solution()),
        "clocks": _h(np.asarray(ap.clocks, dtype=np.float64)),
        "idle": _h(np.asarray(ap.idle, dtype=np.float64)),
        "history": history_digest(hist),
        "stats": stats_digest(runner.engine.stats),
        "turns": ex.turns,
        "relaxations": int(runner.total_relaxations),
        "repairs": int(runner.repairs_sent),
        "degraded": bool(runner.degraded),
    }


PINS = {
    "bj-clean": {
        "clocks":
            "984b727085bc9763b03bd46f9896c1d3cd56069b227578c82427b85f812e2c0b",
        "degraded": False,
        "history":
            "e923383afb0b8a37d3cafd43fdefa0b564646283c4df05a69040827ee19d3174",
        "idle":
            "b1125954f727e243521b3ab04cbe0d5919d8280ab00d5276e2dd62889b9e6212",
        "relaxations": 10916,
        "repairs": 0,
        "stats":
            "73705fdd285d292b31d06123987cf740bd29a1c25c9bf4bf8de91b0be185bc1b",
        "turns": 2500,
        "x":
            "7ef0de6a939c50c95fe0b5071bc997c3d85de36f917e2c9877945c39b4679ea4",
    },
    "bj-lossy": {
        "clocks":
            "d8a4108a69fb2c4c11822e4d0c6e9cb027b07f6eab2d17298347be9c10826417",
        "degraded": False,
        "history":
            "7aac21a67548b5e7aad5bb084eb5fb25fd5e3b3de277a91d40c8a370cc9c8366",
        "idle":
            "8e722f8c9f39ad813d17e2dfc4acded071d5835e45fae16341a3f8b82e6f9d17",
        "relaxations": 15285,
        "repairs": 0,
        "stats":
            "d5e03608e7edeb268e8d45094173986a677f70f5ed9b038de4adb3de533f28f5",
        "turns": 2500,
        "x":
            "326e22a3d5be811e1aa31604a62b8f5d96124c32c06c77e8229bd36a383e519e",
    },
    "ds-clean": {
        "clocks":
            "b6a0beffeade1471c05f61e5a40e70012bceaffd688e2e88a27b8cf496180479",
        "degraded": False,
        "history":
            "54d06d2297936d5ec29ad6913227f637bfff32ec9602afc226ac0c344f21bc68",
        "idle":
            "cd6eae871b68e3c03c44841a06c7e87066e5e5a88e9af8d35416c774952af3ec",
        "relaxations": 3375,
        "repairs": 250,
        "stats":
            "9b5cd1089e1b1270760aede26ad13923ee165f579642fd2c07ade27948c8bde3",
        "turns": 2500,
        "x":
            "f8d797116c4aeab28abb2ae007811866b48757bc6618a3d62bc792ac60ff9d81",
    },
    "ds-lossy": {
        "clocks":
            "1cc566c58b41aa8417714c2f95023891a77dac92c42fe4ed54cb976b096da491",
        "degraded": False,
        "history":
            "529d4bf2ad31204954513b2fcb7d865db36396137ebfe3a8bbdb319fb79accd6",
        "idle":
            "6af5d1be3613f1746754b4abd317a0b46de3449c64b1f9284b61a919a212b61a",
        "relaxations": 1825,
        "repairs": 2410,
        "stats":
            "6d8df5f1aa0be83626c19f13f0f7b1037ab3f137e6084c48cc0294f6b7f74ba6",
        "turns": 2500,
        "x":
            "ae4643ad2adeb22c9d633a8f1256d5b391152a57c7c2577b9fc05a4db948401e",
    },
    "ps-clean": {
        "clocks":
            "aa9fcaaea02fb85af740c6a8f266b27cf9a586c0d87b2f4bcca2c5f2c22412c7",
        "degraded": False,
        "history":
            "21fe3405c831a2dd9c4bb3e98a9ebc4de055ae349e736fbd7abcbd7e13d6b0bb",
        "idle":
            "e276d3a32bdf3b50dc5ccf5a6346efa9323eaba40666d64cc1ff88d0c6fde04f",
        "relaxations": 1626,
        "repairs": 0,
        "stats":
            "76eb08b799fc9040f08b227ebad45ca413778ad0d38e86fcaadb45f3d4d8b665",
        "turns": 2500,
        "x":
            "667b21a89101b5c1295505044caafde4b1f8b38a5471a492617eafb939cd4320",
    },
    "ps-lossy": {
        "clocks":
            "d6f8cab51e38eb1b11b5cc1e075821f823acad28bb220f775b77f71881590b58",
        "degraded": True,
        "history":
            "96582cd95d22487396d64623acb63fe8481cdf7398e597e5dc45a5798aa8c730",
        "idle":
            "7f9701d1b7be872f4268384b438a057a8b09c113b2d49dfa78af011eebf6b651",
        "relaxations": 226,
        "repairs": 0,
        "stats":
            "5986dd83b0c9b0be6a2c222a35045e6586bdff59c4c90d06d7a03c9e2386c1fa",
        "turns": 770,
        "x":
            "0f7f55b8a40a80fe33f28db468368ad5f3de52b361f26f9ece8e44c0d6d908af",
    },
}


@pytest.mark.parametrize("cell", sorted(PINS))
def test_async_run_matches_recorded_pin(cell):
    assert _fingerprint(cell) == PINS[cell]


def test_pins_cover_every_method_clean_and_lossy():
    assert sorted(PINS) == sorted(f"{m}-{k}" for m in CLASSES
                                  for k in ("clean", "lossy"))
