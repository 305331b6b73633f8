"""Recorded results of the per-message ("object") message plane.

The lockstep methods once ran on two message planes: a per-message
reference (dict payloads, one ``Message`` object per put, per-rank
windows) and the flat per-edge mailboxes.  The two were pinned bit for
bit equal, so the reference was deleted and its role carried over here:
before the deletion, every plane-identity run was executed on both
planes, asserted equal, and its fingerprint recorded in :data:`PINS`.
The flat plane must keep reproducing each one exactly.

Fingerprints are sha256 digests over exact bytes (float columns as
their raw float64 bytes or ``float.hex``), so a pin holds only if every
history entry, solution entry, per-step counter and category split is
unchanged.  The trace pins hash the run's expanded events with their
timing fields dropped, as a sorted multiset (the two planes emitted
them in different orders).
"""

import hashlib
import json

import numpy as np


def _h(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def history_digest(hist) -> str:
    """Every recorded history column, bytes exact."""
    return _h(np.asarray(hist.residual_norms, dtype=np.float64),
              np.asarray(hist.relaxations, dtype=np.int64),
              np.asarray(hist.parallel_steps, dtype=np.int64),
              np.asarray(hist.comm_costs, dtype=np.float64),
              np.asarray(hist.times, dtype=np.float64),
              np.asarray(hist.active_fractions, dtype=np.float64))


def stats_digest(stats) -> str:
    """Totals, category splits and every closed step's per-rank
    message / byte / flop / receive arrays, category split and time."""
    parts = [[stats.total_messages, stats.total_bytes,
              stats.total_receives,
              {k: v for k, v in stats.category_msgs.items() if v},
              {k: v for k, v in stats.category_bytes.items() if v},
              float(stats.elapsed_time()).hex(),
              float(stats.communication_cost()).hex(),
              len(stats.steps)]]
    for s in stats.steps:
        parts += [np.asarray(s.msgs, dtype=np.int64),
                  np.asarray(s.nbytes, dtype=np.int64),
                  np.asarray(s.flops, dtype=np.float64),
                  np.asarray(s.recvs, dtype=np.int64),
                  {k: v for k, v in s.category_msgs.items() if v},
                  float(s.time).hex()]
    parts += [np.asarray(a, dtype=np.float64)
              for a in stats.current_step_arrays()]
    return _h(*parts)


def run_fingerprint(m, hist) -> dict:
    """What a lockstep run exposes: history, solution, residual, stats,
    relaxation and repair counts."""
    return {"history": history_digest(hist),
            "x": _h(m.solution()),
            "r": _h(m.residual_vector()),
            "stats": stats_digest(m.engine.stats),
            "relaxations": int(m.total_relaxations),
            "repairs": int(m.repairs_sent)}


def trace_pin(events) -> dict:
    """Per-kind counts and an order-free digest of expanded trace
    events (``RunTracer.iter_events``), timing fields dropped."""
    counts: dict[str, int] = {}
    for ev in events:
        counts[ev["ev"]] = counts.get(ev["ev"], 0) + 1
    untimed = [{k: v for k, v in ev.items() if k not in ("t", "t0", "t1")}
               for ev in events]
    return {"counts": dict(sorted(counts.items())),
            "events": _h(sorted(json.dumps(e, sort_keys=True)
                                for e in untimed))}


#: fingerprints recorded from the per-message plane (see module doc)
PINS = {
    "faultless-ds-digest":
        "85aea831ca408ce1bd4307343acf32b6a028ae8509c517551fb9cceac1cb10f0",
    "lossy:block-jacobi": {
        "history":
            "1621759da9edf6da7246a0a7ec5ce61702024bc8f493060f7ca2054551b5e6ec",
        "injected": {
            "drop:solve": 50,
            "duplicate:solve": 18,
            "reorder:solve": 32,
        },
        "r":
            "0d5b7d72755b9384e196a5adf8e543c5ff409a2478c348f0cb78c26420eadfa0",
        "relaxations": 6000,
        "repairs": 0,
        "stats":
            "e6e50215521bb8a1a047857508d70cc16801d4174d2324ac030c5211d00475fb",
        "x":
            "1400e0aa4dd1f0f82e048cf24131396e7a8b979a2415f2441b87afd959accd89",
    },
    "lossy:distributed-southwell": {
        "history":
            "1906bf3d89ba2355bcbfbd6fadb6744dfdc0efaccc75f4f998d1c8bfb60e3b34",
        "injected": {
            "drop:residual": 15,
            "drop:solve": 6,
            "duplicate:residual": 4,
            "reorder:residual": 12,
            "retry": 49,
        },
        "r":
            "b9909585af7c071d966b820d18076cb74e71dc1372f892f35c8c8e4668725e2f",
        "relaxations": 702,
        "repairs": 104,
        "stats":
            "5877fbd753455c5a3906657da254d1ed6556a09b0af78e8e8b40d325853d1756",
        "x":
            "d79f63256b70dbb1e0471c8f4c1a70e6135bafda7fe7c111885df5047e9f880a",
    },
    "lossy:parallel-southwell": {
        "history":
            "c2d86349ef56550a08e3b426cd1c36e7363f49d6e7d6add8304a4b55e347ddbd",
        "injected": {
            "drop:residual": 3,
            "drop:solve": 1,
            "duplicate:residual": 4,
            "reorder:residual": 6,
        },
        "r":
            "d8a6805b37f96ce7eb9d56d6ebeeedb2499c842c3ef5dfb26e4198b0abaacf29",
        "relaxations": 302,
        "repairs": 0,
        "stats":
            "250730d1a6ef24d50ae2774f65e113c62d70d5ccd0f3a01910c70566ab4a79af",
        "x":
            "fd5c48cf7c8131f6f87dbd591b4699994b79691df3f2a176d0452d8f44cb6800",
    },
    "piggyback:False": {
        "category": {
            "residual": 456,
            "solve": 118,
        },
        "comm_cost": '0x1.cb33333333333p+5',
        "history":
            "d946ae2780be1c6d3d3bf6aa707e8a6f8ab7c3ab379a0e315266d551c97dc303",
        "total": 574,
    },
    "piggyback:True": {
        "category": {
            "residual": 338,
            "solve": 118,
        },
        "comm_cost": '0x1.6cccccccccccdp+5',
        "history":
            "d946ae2780be1c6d3d3bf6aa707e8a6f8ab7c3ab379a0e315266d551c97dc303",
        "total": 456,
    },
    "plane:block-jacobi": {
        "history":
            "86f7ac26932718f5fd903e1a26916a335f3fc3b9dd51dd4856519be129807251",
        "r":
            "2d59451866f739dc38081fdeef59a7cfa81cd658ad5859b2604e8c1bfb1c11cf",
        "relaxations": 8000,
        "repairs": 0,
        "stats":
            "e3554caf4e17868603298bcfbf6b390a007523b187ba47bb6872240727a28db2",
        "x":
            "e00f834337195fc176660d8227ac1e2ddbdb1cdfe3e0a0faf8b632c94a52880d",
    },
    "plane:distributed-southwell": {
        "history":
            "8cf9bd6a5dcff4b966146a20f65dec16700af602e0517927a5f08ff3f353d455",
        "r":
            "747e2e3a5d86452dfd37827fa072682a6f1a571bf866e73a51f13a08670f9047",
        "relaxations": 2201,
        "repairs": 66,
        "stats":
            "6baddcb4d93df4e7848ab2a3c50ae2b86c600ad9b4009f26b8c44676f09f8606",
        "x":
            "7b5beabe44d487d2731ad87b82ed9334700ac4350c34d6b968f0c631f6ee8e15",
    },
    "plane:parallel-southwell": {
        "history":
            "1d3526febcf675a68171b0c2ea087630aa54b7e6d57613d10a84f8fccef8fa03",
        "r":
            "36cec6ab91cbcdba866d6c4477d14f0642d9eec710c1bbd0a2c5f6c3eaf93377",
        "relaxations": 1600,
        "repairs": 0,
        "stats":
            "403bedb8fa751eab237918b5f777414d67cc52941dd5ed33f5b3986381cf0930",
        "x":
            "70ba17908bf6933763fbb25d8244fe0ef456974c73058f2fa3224460c09946a3",
    },
    "seed-ds-stats":
        "bd1b9e859d0e4ac1d2e95b297aaacefce8ffb343559301c0b80b5426e4753114",
    "solve-front-door": {
        "comm": ['0x1.1700000000000p+5', '0x1.8c00000000000p+4',
                 '0x1.4400000000000p+3'],
        "history":
            "1ce23d4b022ab4db57c8b773cd0a8359e29db9d53b4829cf7f4aab0ad510b7d5",
        "x":
            "8b3850ff37c3aef01bbba2136a3c4476ef55696ff6d69d58432d5460a8d99b1c",
    },
    "stale:distributed-southwell": {
        "history":
            "205be8616788dd15ffc524f3d7c8104f9e604f7db3f39cc891f6af4a65c8e8ef",
        "injected": {
            "ghost_stale:residual": 14,
            "ghost_stale:solve": 28,
            "reorder:residual": 8,
            "reorder:solve": 15,
        },
        "r":
            "5cc6081dd8279ba2011c65a29260ab76e605f669302cd7f120088f886bf243e7",
        "relaxations": 1350,
        "repairs": 73,
        "stats":
            "fbfa5910fd0470a7eb3330e8a180e0aa4104899fe1e25628ed2d9da353bf625c",
        "x":
            "f4c17aedf30848e8175d6e8ed489189e12786c95de21d401f4237ac80e999b67",
    },
    "stall:block-jacobi": {
        "history":
            "f6eee14596364cffe866b38b7dbb61f8fccd60af8b2979c3e0710e313273d971",
        "injected": {
            "stall": 5,
        },
        "r":
            "0cd0823d5797d4f0595ceabdc091c65551368a6bd70d16ca1c896774ed511d69",
        "relaxations": 3750,
        "repairs": 0,
        "stats":
            "f289e48a92d8df9edec036bb3a8e3fb113f94243191944c5511ccb1c7026bd93",
        "x":
            "0eb5967bea2c4bd576b89c7b0b0f95561c38fff38bad4f69e4cd883fd93347a5",
    },
    "threshold-trace:0.0": {
        "counts": {
            "ghost": 288,
            "meta": 1,
            "phase": 75,
            "recv": 412,
            "relax": 77,
            "repair": 124,
            "send": 412,
            "stats": 1,
            "step": 25,
        },
        "events":
            "e3f04db6d8ada6acc02c47200b592e04e2f5ca8ab7593403329678e03b157853",
    },
    # threshold-trace 0.3 / 0.5 are recorded on the flat plane: their
    # runs flush held deltas, which the stats footer counts
    "threshold-trace:0.3": {
        "counts": {
            "ghost": 306,
            "meta": 1,
            "phase": 75,
            "recv": 378,
            "relax": 82,
            "repair": 183,
            "send": 378,
            "stats": 1,
            "step": 25,
        },
        "events":
            "2d089783812951504549d64c66ea1947c0b9732a55f30e053f81bc65b2d1a13d",
    },
    "threshold-trace:0.5": {
        "counts": {
            "ghost": 293,
            "meta": 1,
            "phase": 75,
            "recv": 386,
            "relax": 78,
            "repair": 246,
            "send": 386,
            "stats": 1,
            "step": 25,
        },
        "events":
            "41b91557777425f6270e62e119da83cb19f04d23a6fd751c8f7c73a68bee08ad",
    },
    "threshold:0.0:15": {
        "flushed": 0,
        "history":
            "93d0431e0cc58ece48d393c24a24cfeda359deaeb8d118d260a14dc659410b41",
        "r":
            "60f289f2d646ee530fd1844b7bd9836ab69b047c99881ad0cb32b5c989fac7e7",
        "relaxations": 1078,
        "repairs": 114,
        "solve_msgs": 137,
        "stats":
            "71ea3398914ee75e315589606b706eeea90980e73b803f1a463ad5e94d420b76",
        "suppressed": 0,
        "x":
            "a2b732cac95b0ddb01fca29fe732e13a844db36ec948863797577aedf0d57237",
    },
    "threshold:0.0:20": {
        "flushed": 0,
        "history":
            "df0241bfacf7c90dfd35491195e96ae316e3cd210beb8733e9583b9122c6c003",
        "r":
            "2564fa24daab2e5ea7b903798989e54a988e815999f13a1d68210702658258ea",
        "relaxations": 1619,
        "repairs": 123,
        "solve_msgs": 202,
        "stats":
            "c6c54184acff0bbf1dc6dda52b5419533d4443ffab0d45e95d3feff9d5b815cf",
        "suppressed": 0,
        "x":
            "0451e608c14bf6ab1ef5782e0f792e3c31cd68e5f98e466b50c06b176e815e94",
    },
    "threshold:0.0:25": {
        "flushed": 0,
        "history":
            "ce0398ccb3565e0d9026190e3a1ddb8ba083eade4a0bd4c8e7778162fec8c579",
        "r":
            "6e53bcccf4b07836a7d474fc115fbd543263fb1bea8234aa39eb88ab49cf0ad6",
        "relaxations": 2310,
        "repairs": 124,
        "solve_msgs": 288,
        "stats":
            "f69be690d2794211c48d4baa60e551bc5297beb4faf8dec62b9baa9ac50fda34",
        "suppressed": 0,
        "x":
            "3b453b2903122f061e3297d3e62a53e158f25e318bb402e47e7addccb0aed0e8",
    },
    "threshold:0.3:15": {
        "flushed": 11,
        "history":
            "8d4680cc6858cbed273d4649588e800fa27ced325f82685701d1b5837aec28f0",
        "r":
            "de9a86f0929da06761362e4c69c4950a745f761b1d9673c394518d7bbae6532a",
        "relaxations": 1049,
        "repairs": 109,
        "solve_msgs": 91,
        "stats":
            "2c2927e3a516ebd1806280c0d49aad85491f8b4cbba9a81021b4f76133103f2e",
        "suppressed": 54,
        "x":
            "30962b5e501fb25fb21d0bc7fa90b229d56c77717b8fc98a4532635e21a59fd6",
    },
    "threshold:0.3:20": {
        "flushed": 18,
        "history":
            "ed943decf6bb6389bff8fc4baaf6c2f358d81d616e6c3a4012e5d09075514c2e",
        "r":
            "d858ed01c2e9b73b4b2c8b0e8997c60af4859e1e879c3b11a6d90334b201ad1e",
        "relaxations": 1710,
        "repairs": 149,
        "solve_msgs": 140,
        "stats":
            "086f9689d4a6dff438419a2fad39e5d060137a933a6e293121bfa5726f1fc0e1",
        "suppressed": 91,
        "x":
            "586d9edc629208d627fa1c2e3d146dcef7f72a0ae837e25bf6b72d14ba90d726",
    },
    "threshold:0.3:25": {
        "flushed": 15,
        "history":
            "08f77d23da6303632cdbbbb48cf996b3546b82c14a9f4de9b70e42b5c7fd4cbe",
        "r":
            "f64b7baa79ac798a0ad087c16485193b099dbfc5ded98c22c2ab7317ea73608b",
        "relaxations": 2462,
        "repairs": 183,
        "solve_msgs": 195,
        "stats":
            "c900acaca8dbdc052c1fa0143134cf26989ce12f7fa08096c262d2302b4bb26c",
        "suppressed": 126,
        "x":
            "ade91e8e6e77d7f764e340de911f4257bba807df6b06901aceb0cffe320e39c8",
    },
    "threshold:0.5:15": {
        "flushed": 17,
        "history":
            "3062465374caa07638f45a6142747faaed99d22262b996580ff0d5f5e90d366b",
        "r":
            "4aa728ce716c2a651a05f9ed27cdcfe20da7c99c30fe90d167a034186d2b07a7",
        "relaxations": 1169,
        "repairs": 142,
        "solve_msgs": 76,
        "stats":
            "f6c1c56aca70c530cabeed653319b6f8143eaaed17bff78e8e28d63bf9a669d8",
        "suppressed": 88,
        "x":
            "41921b7d017df59070befcedbbf07fcc32b6f0fdb67cb0b75bd14cfc300c077d",
    },
    "threshold:0.5:20": {
        "flushed": 22,
        "history":
            "b2e014fa330860098e55bc8e01bd0a2f3c62f1da31c98b5970a1605d07cd01d1",
        "r":
            "915c44701eeaf31927a0200583533163d87ef64619a00c83f5eb376ca702a648",
        "relaxations": 1708,
        "repairs": 194,
        "solve_msgs": 109,
        "stats":
            "9c7eb51e520f1638bb89470824d70118a068aecdb9830ee59ebd9f9c83022e8e",
        "suppressed": 127,
        "x":
            "2439764d5932cf4cbbd91c070ad4d3bf06c9c22c317c5da6edd5d775fc9a276e",
    },
    "threshold:0.5:25": {
        "flushed": 23,
        "history":
            "2816eb476ef73dc46d1a81db51edc171927b746254dd8ef4a8a41bb65a6af576",
        "r":
            "f364a2a0af4f6ee512d8204115f152cbdb230cf6b3af273591cc8ff3a63ca42b",
        "relaxations": 2339,
        "repairs": 246,
        "solve_msgs": 140,
        "stats":
            "4d59f019f488e452fd6fc4024e184774055ff93067e676e6c9d80ba284190db9",
        "suppressed": 176,
        "x":
            "21483dd5dda2b1d48fc44ac18a7ff83b8313924dcf2407d229bbf8793c516483",
    },
    "trace:block-jacobi": {
        "counts": {
            "meta": 1,
            "phase": 50,
            "recv": 700,
            "relax": 200,
            "send": 700,
            "stats": 1,
            "step": 25,
        },
        "events":
            "b85dc1b1c5649eccd51591c0b501188fd55c97a340775641b7127f40ec98a66d",
        "history":
            "f961b6cef0763e4424adedd50711d4fcc52ac15a627c0b92cf1631b15a347622",
    },
    "trace:distributed-southwell": {
        "counts": {
            "ghost": 193,
            "meta": 1,
            "phase": 75,
            "recv": 275,
            "relax": 55,
            "repair": 82,
            "send": 275,
            "stats": 1,
            "step": 25,
        },
        "events":
            "f45f4b0a6edfd5b02799816aa35fb3f777f2f3e090727c79792f985af2f7e711",
        "history":
            "347448857fd7beb4b1ce78e36e7241bf31e03181b58597fb572b367069dbb340",
    },
    "trace:parallel-southwell": {
        "counts": {
            "meta": 1,
            "phase": 75,
            "recv": 599,
            "relax": 44,
            "send": 599,
            "stats": 1,
            "step": 25,
        },
        "events":
            "73e02068330e19d687bdd3d7e18d55e316910bfa75487b123361bb7a2064105a",
        "history":
            "b07ab64f67f26cea054e7129a5744162854bcfe9f5b9e0dde81050f60cee507b",
    },
}
