"""Parallel + cached pairwise-distance engine.

Every modeling technique in Section 4 is built on pairwise differencing —
DTW with asynchrony penalty, L1 with unequal-length penalty, Levenshtein
over syscall sequences — and the experiments compute O(n^2) of those
distances per application and measure.  This module centralizes that work:

* :class:`DistanceEngine` computes dense matrices, explicit pair lists,
  and one-to-many sweeps, optionally fanning the pair computations out to
  a :class:`~concurrent.futures.ProcessPoolExecutor` in index chunks;
  batchable measures — any callable with a ``pairwise(items_a, items_b,
  pairs)`` attribute, such as :class:`~repro.core.kernels.PenaltyDtw`
  and :func:`~repro.core.distances.levenshtein_distance` — instead get
  all their pairs in one ``pairwise`` call, with no per-pair Python
  dispatch at all;
* :class:`DistanceCache` memoizes distances keyed by *content* (a stable
  hash of both operands plus a caller-supplied distance key), optionally
  persisted as JSON under ``results/.cache/`` so repeated experiments and
  k-sweeps never recompute a pair.

Determinism: each matrix cell is one independent distance evaluation, so
chunked parallel execution performs exactly the same arithmetic as the
serial loop and the assembled matrix is bit-identical to it (given a
deterministic distance callable).  There is no cross-pair reduction whose
order could differ.  The batched path is likewise bit-identical: the
lane-scheduled DTW performs exactly the serial DP's elementwise
operations per pair (see :func:`repro.core.kernels.dtw_pairwise`), and
batched Levenshtein is integer arithmetic.

Parallel execution uses the ``fork`` start method so non-picklable
distance callables (the experiments use parameter-capturing lambdas) and
large item lists are inherited by the workers instead of serialized; when
``fork`` is unavailable, or the pair count is too small to amortize pool
startup, the engine transparently falls back to the serial path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import struct
import tempfile
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs.profiling import profiled_stage

__all__ = [
    "ContentCache",
    "DistanceCache",
    "DistanceEngine",
    "default_cache_path",
    "sequence_key",
]

#: Below this many uncached pairs a process pool cannot pay for its own
#: startup; the engine stays serial regardless of ``jobs``.
MIN_PARALLEL_PAIRS = 32


def default_cache_path(directory: str = os.path.join("results", ".cache")) -> str:
    """The conventional on-disk location for a persistent distance cache."""
    return os.path.join(directory, "distances.json")


def sequence_key(item) -> str:
    """Stable content hash of one distance operand.

    Supports the operand types the differencing measures consume: numpy
    arrays (metric value sequences), lists/tuples of event-name strings or
    numbers (syscall sequences), and bare strings/scalars.  The digest
    covers dtype and shape, so ``[1, 2]`` as int64 and float64 do not
    collide.
    """
    h = hashlib.blake2b(digest_size=16)
    if isinstance(item, np.ndarray):
        arr = np.ascontiguousarray(item)
        h.update(b"nd|")
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(item, (list, tuple)):
        h.update(b"seq|")
        for token in item:
            if isinstance(token, str):
                h.update(b"s")
                h.update(token.encode())
            elif isinstance(token, (int, float, np.integer, np.floating)):
                h.update(b"f")
                h.update(struct.pack("<d", float(token)))
            else:
                raise TypeError(
                    f"unhashable sequence element type {type(token).__name__!r}"
                )
            h.update(b"\x00")
    elif isinstance(item, str):
        h.update(b"str|")
        h.update(item.encode())
    elif isinstance(item, (int, float, np.integer, np.floating)):
        h.update(b"num|")
        h.update(struct.pack("<d", float(item)))
    else:
        raise TypeError(f"unhashable operand type {type(item).__name__!r}")
    return h.hexdigest()


class ContentCache:
    """Content-keyed memo cache persisted as a JSON document.

    In-memory by default; pass ``path`` to persist.  ``load`` is called by
    the constructor when the file exists; ``save`` writes atomically (temp
    file + rename).  A corrupt or unreadable cache file is a performance,
    not a correctness, artifact: loading it silently starts empty.

    Subclasses pin down the value type via :meth:`_encode` /
    :meth:`_decode` — :class:`DistanceCache` stores floats, the sweep
    orchestrator's :class:`~repro.sweep.cache.ScenarioCache` stores whole
    result documents.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._entries: Dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self._dirty = False
        if path is not None and os.path.exists(path):
            self.load()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _encode(value):
        return value

    @staticmethod
    def _decode(value):
        return value

    def get(self, key: str):
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        self._entries[key] = self._encode(value)
        self._dirty = True

    def load(self) -> None:
        try:
            with open(self.path) as fh:
                payload = json.load(fh)
            entries = payload.get("entries", {})
            self._entries.update(
                {str(k): self._decode(v) for k, v in entries.items()}
            )
        except (OSError, ValueError, TypeError):
            pass

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        payload = {"version": 1, "entries": self._entries}
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(payload, fh)
            os.replace(tmp, self.path)
        except OSError:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._dirty = False


class DistanceCache(ContentCache):
    """Content-keyed memo cache: (distance key, operand hashes) -> distance.

    The engine invokes ``save`` after each computation that added entries.
    """

    _encode = staticmethod(float)
    _decode = staticmethod(float)

    @staticmethod
    def entry_key(distance_key: str, key_a: str, key_b: str, ordered: bool) -> str:
        """The cache key for one pair; unordered pairs are normalized."""
        if not ordered and key_b < key_a:
            key_a, key_b = key_b, key_a
        return f"{distance_key}|{key_a}|{key_b}"


# Worker-process state, installed by the fork initializer.  With the fork
# start method these travel by address-space inheritance, so lambdas and
# large sequence lists never cross a pickle boundary.
_WORKER_ITEMS_A: Sequence = ()
_WORKER_ITEMS_B: Sequence = ()
_WORKER_DISTANCE: Optional[Callable] = None


def _init_worker(items_a, items_b, distance) -> None:
    global _WORKER_ITEMS_A, _WORKER_ITEMS_B, _WORKER_DISTANCE
    _WORKER_ITEMS_A = items_a
    _WORKER_ITEMS_B = items_b
    _WORKER_DISTANCE = distance


def _compute_chunk(pairs: List[Tuple[int, int]]) -> List[float]:
    return [
        float(_WORKER_DISTANCE(_WORKER_ITEMS_A[i], _WORKER_ITEMS_B[j]))
        for i, j in pairs
    ]


class DistanceEngine:
    """Chunked, multiprocess, memoizing pairwise-distance computer.

    ``jobs`` bounds worker processes (1 = serial); ``cache`` attaches a
    :class:`DistanceCache`.  Caching only activates for calls that supply
    a ``distance_key`` naming the measure *and its parameters* (e.g.
    ``"dtw:p=0.41"``): the operands are hashed by content, but the
    callable cannot be, so an unkeyed call is computed rather than risk a
    collision between differently-parameterized measures.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[DistanceCache] = None,
        chunk_pairs: int = 256,
    ):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if chunk_pairs < 1:
            raise ValueError("chunk_pairs must be at least 1")
        self.jobs = jobs
        self.cache = cache
        self.chunk_pairs = chunk_pairs

    # -- public API ----------------------------------------------------

    def matrix(
        self,
        items: Sequence,
        distance: Callable,
        symmetric: bool = True,
        distance_key: Optional[str] = None,
    ) -> np.ndarray:
        """Dense pairwise distance matrix (zero diagonal).

        Bit-identical to the serial double loop; ``symmetric=True``
        computes the upper triangle and mirrors it.
        """
        n = len(items)
        if symmetric:
            rows, cols = np.triu_indices(n, k=1)
        else:
            rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        pairs = list(zip(rows.tolist(), cols.tolist()))
        values = self._pair_values(
            items, items, pairs, distance, distance_key, ordered=not symmetric
        )
        matrix = np.zeros((n, n))
        matrix[rows, cols] = values
        if symmetric:
            matrix[cols, rows] = values
        return matrix

    def pair_distances(
        self,
        items: Sequence,
        pairs: Sequence[Tuple[int, int]],
        distance: Callable,
        distance_key: Optional[str] = None,
        symmetric: bool = False,
    ) -> np.ndarray:
        """Distances for an explicit ``(i, j)`` pair list over ``items``."""
        values = self._pair_values(
            items, items, list(pairs), distance, distance_key, ordered=not symmetric
        )
        return np.array(values, dtype=float)

    def one_to_many(
        self,
        item,
        others: Sequence,
        distance: Callable,
        distance_key: Optional[str] = None,
    ) -> np.ndarray:
        """``distance(item, other)`` for every element of ``others``.

        The workhorse of online bank matching: one partial pattern against
        every bank signature prefix.
        """
        pairs = [(0, j) for j in range(len(others))]
        values = self._pair_values(
            [item], others, pairs, distance, distance_key, ordered=True
        )
        return np.array(values, dtype=float)

    # -- internals -----------------------------------------------------

    def _pair_values(
        self,
        items_a: Sequence,
        items_b: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
        distance_key: Optional[str],
        ordered: bool,
    ) -> List[float]:
        with profiled_stage("distance"):
            return self._pair_values_inner(
                items_a, items_b, pairs, distance, distance_key, ordered
            )

    def _pair_values_inner(
        self,
        items_a: Sequence,
        items_b: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
        distance_key: Optional[str],
        ordered: bool,
    ) -> List[float]:
        if not pairs:
            return []
        use_cache = self.cache is not None and distance_key is not None
        values: List[Optional[float]] = [None] * len(pairs)
        cache_keys: List[Optional[str]] = [None] * len(pairs)
        missing: List[int] = []

        if use_cache:
            keys_a = {i for i, _ in pairs}
            keys_b = {j for _, j in pairs}
            hash_a = {i: sequence_key(items_a[i]) for i in keys_a}
            hash_b = {j: sequence_key(items_b[j]) for j in keys_b}
            for idx, (i, j) in enumerate(pairs):
                key = DistanceCache.entry_key(
                    distance_key, hash_a[i], hash_b[j], ordered
                )
                cache_keys[idx] = key
                cached = self.cache.get(key)
                if cached is None:
                    missing.append(idx)
                else:
                    values[idx] = cached
        else:
            missing = list(range(len(pairs)))

        if missing:
            todo = [pairs[idx] for idx in missing]
            computed = self._compute(items_a, items_b, todo, distance)
            for idx, value in zip(missing, computed):
                values[idx] = value
                if use_cache:
                    self.cache.put(cache_keys[idx], value)
            if use_cache:
                self.cache.save()
        return values  # type: ignore[return-value]

    def _compute(
        self,
        items_a: Sequence,
        items_b: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
    ) -> List[float]:
        batched = self._compute_batched(items_a, items_b, pairs, distance)
        if batched is not None:
            return batched
        if (
            self.jobs <= 1
            or len(pairs) < MIN_PARALLEL_PAIRS
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return [float(distance(items_a[i], items_b[j])) for i, j in pairs]
        return self._compute_parallel(items_a, items_b, pairs, distance)

    def _compute_batched(
        self,
        items_a: Sequence,
        items_b: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
    ) -> Optional[List[float]]:
        """All pairs in one call to ``distance.pairwise``, or None.

        Any distance callable carrying a ``pairwise(items_a, items_b,
        pairs)`` attribute is batched this way (penalty-DTW and
        Levenshtein do); the attribute's contract is values equal to the
        per-pair calls.  It is fast enough to be preferred over the
        process pool whenever available.
        """
        pairwise = getattr(distance, "pairwise", None)
        if pairwise is None or len(pairs) < 2:
            return None
        return np.asarray(pairwise(items_a, items_b, pairs), dtype=float).tolist()

    def _compute_parallel(
        self,
        items_a: Sequence,
        items_b: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
    ) -> List[float]:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, min(self.chunk_pairs, len(pairs) // self.jobs or 1))
        chunks = [pairs[k : k + chunk] for k in range(0, len(pairs), chunk)]
        context = multiprocessing.get_context("fork")
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(chunks)),
                mp_context=context,
                initializer=_init_worker,
                initargs=(items_a, items_b, distance),
            ) as pool:
                futures = [pool.submit(_compute_chunk, c) for c in chunks]
                values: List[float] = []
                # Collect in submission order: assembly order never
                # depends on worker completion order.
                for future in futures:
                    values.extend(future.result())
            return values
        except (OSError, RuntimeError):
            # Pool startup can fail in constrained sandboxes; the serial
            # path is always available and produces identical results.
            return [float(distance(items_a[i], items_b[j])) for i, j in pairs]


#: Shared serial engine for call sites that do not thread one through.
_DEFAULT_ENGINE = DistanceEngine(jobs=1)


def get_default_engine() -> DistanceEngine:
    return _DEFAULT_ENGINE
