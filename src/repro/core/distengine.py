"""Parallel + cached pairwise-distance engine.

Every modeling technique in Section 4 is built on pairwise differencing —
DTW with asynchrony penalty, L1 with unequal-length penalty, Levenshtein
over syscall sequences — and the experiments compute O(n^2) of those
distances per application and measure.  This module centralizes that work:

* :class:`DistanceEngine` computes dense matrices and explicit pair
  lists, optionally fanning the pair computations out to forked workers
  in ``jobs`` contiguous slices through :func:`repro.parallel.ordered_map`;
  batchable measures — any callable with a ``pairwise(items_a, items_b,
  pairs)`` attribute, such as :class:`~repro.core.kernels.PenaltyDtw` and
  :func:`~repro.core.distances.levenshtein_distance` — instead get all
  their pairs in one ``pairwise`` call, with no per-pair Python dispatch
  at all;
* :class:`DistanceCache` memoizes whole matrices keyed by *content* (the
  caller-supplied distance key, the symmetric flag and a stable hash of
  every item, in order), optionally persisted as JSON under
  ``results/.cache/`` so repeated experiments and k-sweeps over the same
  item list never recompute a matrix; its owner writes it once per run.

Determinism: each matrix cell is one independent distance evaluation, so
sliced parallel execution performs exactly the same arithmetic as the
serial loop and the assembled matrix is bit-identical to it (given a
deterministic distance callable).  There is no cross-pair reduction whose
order could differ.  The batched path is likewise bit-identical: the
lane-scheduled DTW performs exactly the serial DP's elementwise
operations per pair (see :func:`repro.core.kernels.dtw_pairwise`), and
batched Levenshtein is integer arithmetic.

Workers are forked, so non-picklable distance callables (the experiments
use parameter-capturing lambdas) and large item lists are inherited
instead of serialized; when ``fork`` is unavailable, or the pair count
is too small to amortize a fork, the slices run in-process.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.jsondoc import atomic_write
from repro.obs.profiling import profiled_stage
from repro.parallel import ordered_map

__all__ = [
    "ContentCache",
    "DistanceCache",
    "DistanceEngine",
    "default_cache_path",
    "sequence_key",
]

#: Below this many uncached pairs forked workers cannot pay for their own
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
    :meth:`_decode` — :class:`DistanceCache` stores one matrix's pair
    values per entry, the sweep orchestrator's
    :class:`~repro.sweep.cache.ScenarioCache` stores whole result
    documents.
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
        except (OSError, ValueError, TypeError, AttributeError):
            pass

    def save(self) -> None:
        if self.path is None or not self._dirty:
            return
        atomic_write(
            self.path, json.dumps({"version": 1, "entries": self._entries})
        )
        self._dirty = False


class DistanceCache(ContentCache):
    """Content-keyed memo cache: one entry per matrix.

    The key names the measure, whether the matrix is symmetric, and the
    content of every item in order; the value is the matrix's pair values
    in pair order.  A file whose entries are not all lists of numbers
    (one float per pair, say) is not a matrix cache and loads empty.

    The engine only reads and fills it; whoever opens a cache with a
    ``path`` calls ``save`` once its run is done (re-encoding the whole
    cache after every matrix cost more than the matrices it saved).
    """

    @staticmethod
    def _decode(value):
        if isinstance(value, list) and all(type(v) in (float, int) for v in value):
            return value
        raise ValueError("a distance cache entry is a list of numbers")

    def get(self, key: str, count: int) -> Optional[List[float]]:
        """The ``count`` pair values stored under ``key``, or None.

        An entry of another length (only a damaged file holds one) is a
        miss like an absent one: the engine recomputes and replaces it.
        """
        values = self._entries.get(key)
        if values is None or len(values) != count:
            self.misses += 1
            return None
        self.hits += 1
        return values


class DistanceEngine:
    """Sliced, multiprocess, memoizing pairwise-distance computer.

    ``jobs`` bounds worker processes (1 = serial); ``cache`` attaches a
    :class:`DistanceCache` to :meth:`matrix`.  Caching only activates for
    calls that supply a ``distance_key`` naming the measure *and its
    parameters* (e.g. ``"dtw:p=0.41"``): the operands are hashed by
    content, but the callable cannot be, so an unkeyed call is computed
    rather than risk a collision between differently-parameterized
    measures.
    """

    def __init__(self, jobs: int = 1, cache: Optional[DistanceCache] = None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.cache = cache

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
        computes the upper triangle and mirrors it.  With a cache and a
        ``distance_key`` the whole matrix is one lookup: a hit computes
        no pair, a miss computes every pair and stores them.
        """
        n = len(items)
        if symmetric:
            rows, cols = np.triu_indices(n, k=1)
        else:
            rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        pairs = list(zip(rows.tolist(), cols.tolist()))
        with profiled_stage("distance"):
            if self.cache is None or distance_key is None or not pairs:
                values = self._compute(items, pairs, distance)
            else:
                key = "|".join(
                    [distance_key, "symmetric" if symmetric else "ordered"]
                    + [sequence_key(item) for item in items]
                )
                values = self.cache.get(key, len(pairs))
                if values is None:
                    values = self._compute(items, pairs, distance)
                    self.cache.put(key, values)
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
    ) -> np.ndarray:
        """Distances for an explicit ``(i, j)`` pair list over ``items``."""
        with profiled_stage("distance"):
            values = self._compute(items, list(pairs), distance)
        return np.array(values, dtype=float)

    # -- internals -----------------------------------------------------

    def _compute(
        self,
        items: Sequence,
        pairs: List[Tuple[int, int]],
        distance: Callable,
    ) -> List[float]:
        if not pairs:
            return []
        pairwise = getattr(distance, "pairwise", None)
        if pairwise is not None and len(pairs) > 1:
            # All pairs in one call; the attribute's contract is values
            # equal to the per-pair calls (penalty-DTW and Levenshtein
            # carry one), and it beats forked workers wherever it exists.
            return np.asarray(pairwise(items, items, pairs), dtype=float).tolist()
        parts = 1 if len(pairs) < MIN_PARALLEL_PAIRS else self.jobs
        size = -(-len(pairs) // parts)
        slices = [pairs[k : k + size] for k in range(0, len(pairs), size)]

        def compute(part: List[Tuple[int, int]]) -> List[float]:
            return [float(distance(items[i], items[j])) for i, j in part]

        return [
            value
            for values in ordered_map(compute, slices, self.jobs)
            for value in values
        ]


#: Shared serial engine for call sites that do not thread one through.
_DEFAULT_ENGINE = DistanceEngine(jobs=1)


def get_default_engine() -> DistanceEngine:
    return _DEFAULT_ENGINE
