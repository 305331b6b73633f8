"""Persistent setup-plane cache: partitions + block systems on disk.

Profiling the experiment drivers shows the *setup plane* — multilevel
partitioning plus block-system assembly — dominating end-to-end wall
clock for short runs (the paper's experiments are 20-50 parallel steps;
partitioning af_5_k101 at P = 256 costs more than the steps themselves).
The setup products are pure functions of the matrix and a handful of
parameters, so they are cached across *processes and invocations*:
:func:`get_setup` pickles each ``(Partition, BlockSystem)`` pair under a
key of

- the matrix digest (shape + the three CSR arrays, exact bytes),
- the setup parameters ``(n_parts, partitioner, seed, local solver,
  sweeps)``,
- a digest of the setup-plane *source code* (the partitioner, the block
  builder, the local solvers, and the sparse substrate they run on).

The code digest means a stale partition can never survive an edit to
anything that could have produced it; it is scoped to the setup plane so
solver-side edits don't needlessly retire partitions.

Correctness notes:

- Partitions are pure functions of the key: the partitioner's kernels
  replay the seed's decision sequence exactly (pinned digests in
  ``tests/test_partition.py``), and no knob changes them.
- SuperLU factors cannot be pickled.  A ``BlockSystem`` pickles as the
  handful of stores its blocks are views of and is re-cut on load by
  the constructor the build itself ends in, which factors the local
  solvers a fresh build would (none for a batching system: they factor
  at first use), so a cache hit skips partitioning and assembly.  The
  repo's benchmark times all of it:
  workload ``setup_p1024`` (``partition.partition_s``,
  ``core.blockdata.build_s``) and the ``setupcache.store_s`` /
  ``setupcache.warm_load_s`` probes of ``bench/run.py --trace 1``.
- Stores are atomic (tmp + rename) and failures are silent: the cache is
  an optimisation, never a correctness dependency.
- Large numeric arrays are *externalized*: the pickle stream keeps only
  a persistent id ``(offset, dtype, shape)`` and the bytes live in a
  sidecar ``<key>.blob`` file at 64-byte-aligned offsets.  Warm loads
  map the blob with ``np.memmap(mode="r")``, so a hit at n = 1M costs
  O(touched pages), not a full deserialize — the paper-scale warm-setup
  requirement (DESIGN.md §5.13).  Loaded arrays are read-only views;
  every consumer of the setup products treats them as immutable.

The cache is off by default; enable with ``REPRO_SETUP_CACHE=1`` (default
directory ``~/.cache/repro-southwell/setup``) or a directory path.  Setup
work is traced (``setup:partition`` / ``setup:block_build`` /
``setup:cache_load`` phases plus a ``setup_cache`` hit/miss event) so
``repro trace FILE`` reports where setup time went.  See DESIGN.md §5.10.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro import config as _config
from repro.core.blockdata import BlockSystem, build_block_system
from repro.partition import Partition, partition
from repro.sparsela import CSRMatrix
from repro.trace import NULL_TRACER, Tracer

__all__ = [
    "SETUP_SCHEMA",
    "get_setup",
    "matrix_digest",
    "setup_code_digest",
    "setup_key",
]

#: version tag baked into every key; bump to retire all cached setups
#: (v2: numeric arrays externalized to a ``<key>.blob`` sidecar, loaded
#: as read-only ``np.memmap`` views)
SETUP_SCHEMA = "repro.setup/v2"

#: arrays at least this big go to the blob; smaller ones stay inline in
#: the pickle stream where a memmap view would cost more than it saves
_BLOB_MIN_NBYTES = 256

#: blob offsets are aligned so memmap views start on cache-line
#: boundaries (and dtype alignment is satisfied for every numeric dtype)
_BLOB_ALIGN = 64

#: package-relative source files whose behaviour the cached products
#: depend on: the partitioner, the kernels it dispatches to, the block
#: builder + local solvers, and the sparse substrate under all of them
_SETUP_SOURCES = (
    "partition",                # whole subpackage
    "sparsela",                 # whole subpackage
    "core/blockdata.py",
    "core/local_solvers.py",
)


@lru_cache(maxsize=1)
def setup_code_digest() -> str:
    """Digest of the setup-plane source files (cache-invalidation token).

    Not the whole package, on purpose: editing a solver or an analysis
    module does not invalidate partitions, editing anything that
    *computes* them does.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for entry in _SETUP_SOURCES:
        path = root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(b"\0")
            h.update(f.read_bytes())
    return h.hexdigest()


def matrix_digest(A: CSRMatrix) -> str:
    """Exact content digest of a CSR matrix (shape + the three arrays)."""
    h = hashlib.sha256()
    h.update(repr(A.shape).encode())
    h.update(A.indptr.tobytes())
    h.update(A.indices.tobytes())
    h.update(A.data.tobytes())
    return h.hexdigest()


def setup_key(A: CSRMatrix, n_parts: int, method: str = "multilevel",
              seed: int = 0, local_solver: str = "gs",
              n_sweeps: int = 1) -> str:
    """Stable cache key for one ``(matrix, setup parameters)`` pair."""
    parts = (
        SETUP_SCHEMA,
        matrix_digest(A),
        str(int(n_parts)),
        method,
        str(int(seed)),
        local_solver,
        str(_config.require_int("n_sweeps", n_sweeps, 1)),
        setup_code_digest(),
    )
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


# ----------------------------------------------------------------------
# cache I/O (atomic tmp + ``os.replace`` stores, plus the
# array-externalizing blob sidecar)
# ----------------------------------------------------------------------
class _BlobWriter:
    """Appends raw array bytes to the sidecar at aligned offsets."""

    def __init__(self, fh) -> None:
        self._fh = fh
        self._off = 0

    def put(self, arr: np.ndarray) -> int:
        pad = -self._off % _BLOB_ALIGN
        if pad:
            self._fh.write(b"\0" * pad)
            self._off += pad
        off = self._off
        self._fh.write(memoryview(arr).cast("B"))
        self._off += arr.nbytes
        return off


class _BlobPickler(pickle.Pickler):
    """Pickler that externalizes large plain numeric arrays.

    Only exact ``np.ndarray`` instances (no subclasses) with simple
    C-contiguous numeric dtypes are diverted — everything else pickles
    inline, so objects with ``__reduce__`` hooks (the local solvers)
    keep their existing behaviour.
    """

    def __init__(self, fh, blob: _BlobWriter) -> None:
        super().__init__(fh, protocol=pickle.HIGHEST_PROTOCOL)
        self._blob = blob

    def persistent_id(self, obj):
        if (type(obj) is np.ndarray and obj.flags.c_contiguous
                and obj.dtype.kind in "biufc"
                and obj.nbytes >= _BLOB_MIN_NBYTES):
            off = self._blob.put(obj)
            return ("blob", off, obj.dtype.str, obj.shape)
        return None


class _BlobUnpickler(pickle.Unpickler):
    """Unpickler resolving blob ids to read-only ``np.memmap`` views."""

    def __init__(self, fh, blob_path: Path) -> None:
        super().__init__(fh)
        self._blob_path = blob_path

    def persistent_load(self, pid):
        try:
            tag, off, dtype_str, shape = pid
        except (TypeError, ValueError) as exc:
            raise pickle.UnpicklingError(f"bad persistent id {pid!r}") from exc
        if tag != "blob":
            raise pickle.UnpicklingError(f"unknown persistent id {tag!r}")
        return np.memmap(self._blob_path, mode="r",
                         dtype=np.dtype(dtype_str), shape=tuple(shape),
                         offset=int(off))


def _load(cache: Path, key: str):
    try:
        with open(cache / f"{key}.pkl", "rb") as fh:
            return _BlobUnpickler(fh, cache / f"{key}.blob").load()
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
            ImportError, ValueError, TypeError):
        return None


def _store(cache: Path, key: str, value) -> None:
    try:
        cache.mkdir(parents=True, exist_ok=True)
        bfd, btmp = tempfile.mkstemp(dir=cache, suffix=".blob.tmp")
        pfd, ptmp = tempfile.mkstemp(dir=cache, suffix=".tmp")
        try:
            with os.fdopen(bfd, "wb") as bfh, os.fdopen(pfd, "wb") as pfh:
                _BlobPickler(pfh, _BlobWriter(bfh)).dump(value)
            # blob first: a reader only follows blob offsets it found in
            # the pickle, so the pair is consistent once the .pkl lands
            os.replace(btmp, cache / f"{key}.blob")
            os.replace(ptmp, cache / f"{key}.pkl")
        except BaseException:
            for tmp in (btmp, ptmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            raise
    except OSError:
        pass


# ----------------------------------------------------------------------
# the front door
# ----------------------------------------------------------------------
def get_setup(A: CSRMatrix, n_parts: int, method: str = "multilevel",
              seed: int = 0, local_solver: str = "gs", n_sweeps: int = 1,
              tracer: Tracer | None = None,
              cache_dir: Path | str | None = None
              ) -> tuple[Partition, BlockSystem]:
    """Partition ``A`` and build its block system, through the disk cache.

    With the cache off (the default) this is exactly
    ``partition(...)`` + ``build_block_system(...)``, with the two
    phases traced.  With ``REPRO_SETUP_CACHE`` set (or ``cache_dir``
    given), results round-trip through the on-disk store: a hit loads
    the pickled pair (its solvers factored as a fresh build's are)
    instead of recomputing, and fires a ``setup_cache`` trace event
    either way.  ``tracer=None`` traces nothing, as in every method
    constructor.
    """
    if tracer is None:
        tracer = NULL_TRACER
    cache = (Path(cache_dir) if cache_dir is not None
             else _config.setup_cache_dir())
    key = None
    if cache is not None:
        key = setup_key(A, n_parts, method=method, seed=seed,
                        local_solver=local_solver, n_sweeps=n_sweeps)
        if tracer.enabled:
            tracer.phase_begin("setup:cache_load")
        hit = _load(cache, key)
        if tracer.enabled:
            tracer.phase_end("setup:cache_load")
            tracer.setup_cache(key, hit is not None)
        if hit is not None:
            return hit

    if tracer.enabled:
        tracer.phase_begin("setup:partition")
    part = partition(A, n_parts, method=method, seed=seed)
    if tracer.enabled:
        tracer.phase_end("setup:partition")
        tracer.phase_begin("setup:block_build")
    system = build_block_system(A, part, local_solver=local_solver,
                                n_sweeps=n_sweeps)
    if tracer.enabled:
        tracer.phase_end("setup:block_build")

    if cache is not None:
        _store(cache, key, (part, system))
    return part, system
