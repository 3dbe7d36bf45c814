"""Block-stamping request generation: batched RNG, interned templates,
block-ahead specs.

Request *generation* — not the event loop — would bound the simulator's
end-to-end speed on the server workloads if every request drew two or
three scalar normals per phase and rebuilt frozen
``Phase``/``PhaseBehavior``/``RequestSpec`` dataclasses from scratch.
This module holds the machinery the five server generators
(:mod:`~repro.workloads.webserver`, :mod:`~repro.workloads.tpcc`,
:mod:`~repro.workloads.tpch`, :mod:`~repro.workloads.rubis`,
:mod:`~repro.workloads.webwork`) share to avoid that, while staying
draw-for-draw identical to the scalar reference generators kept as the
test oracle in ``tests/workloads/reference.py``
(``tests/workloads/test_genfast.py`` pins specs and RNG state against
them).  Three layers:

* **batched RNG** — each request kind's phase-def plan (the
  :class:`~repro.workloads.util.PhaseDef` tables the generator modules
  produce) is compiled once into a :class:`PhaseBlock`: flat jitter
  arrays in exact reference draw order.  Stamping a request draws one
  ``standard_normal(n)`` block and applies three vectorized IEEE-754
  operations that are elementwise identical to the reference's scalar
  jitter chain, so the bitstream and every downstream float are
  unchanged.  Mid-plan draws that *gate* structure (tpcc's item count,
  rubis's GC coin flips, every kind/catalog pick) stay scalar at their
  reference positions.
* **interned phase templates** — constant fields live in the compiled
  block; per-request values are stamped into lightweight ``__slots__``
  spec objects (:class:`FastPhase`/:class:`FastStage`/
  :class:`FastRequestSpec`) instead of re-validated frozen dataclasses.
  :class:`BehaviorInterner` guarantees value-equal behaviors share one
  object identity: a recurring value costs a table probe instead of a
  new object, and the simulator's per-core contention solve,
  which reuses a core's cached values while its behavior is the same
  object, hits whenever a value recurs.  Skipping dataclass validation
  is sound because every def's nominal values are validated
  through the ``Phase`` constructor at template build, and the jitter
  floors (``max(0.5·nominal, ...)``) keep stamped values in the
  validated domain.
* **block-ahead synthesis** — when the arrival side exposes its
  schedule (every eager arrival process; closed loops trivially), the
  simulator calls :meth:`BlockAheadGenerator.prepare_block` to
  synthesize the next N specs ahead of simulation into a deque that
  admission pops from.  Safe exactly when no simulation-side draw
  interleaves with generation draws, which the simulator checks before
  calling (syscall-sampling policies draw mid-run and disable it;
  fault/fixed-kind wrappers don't expose ``prepare_block`` and fall back
  to per-request synthesis).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hardware.cpu import PhaseBehavior
from repro.workloads.base import Phase, RequestSpec
from repro.workloads.util import Jit, phase as phase_probe


class FastPhase:
    """``__slots__`` stand-in for :class:`Phase` on the generation path."""

    __slots__ = (
        "name",
        "instructions",
        "behavior",
        "entry_syscall",
        "syscall_rate_per_ins",
        "syscall_pool",
    )

    def __init__(self, name, instructions, behavior, entry_syscall,
                 syscall_rate_per_ins, syscall_pool):
        self.name = name
        self.instructions = instructions
        self.behavior = behavior
        self.entry_syscall = entry_syscall
        self.syscall_rate_per_ins = syscall_rate_per_ins
        self.syscall_pool = syscall_pool

    mean_syscall_distance_ins = Phase.mean_syscall_distance_ins


class FastStage:
    """``__slots__`` stand-in for :class:`Stage` with eager totals."""

    __slots__ = ("tier", "phases", "instructions", "cumulative_instructions")

    def __init__(self, tier, phases):
        self.tier = tier
        self.phases = tuple(phases)
        total = 0
        prefix = [0]
        for p in self.phases:
            total += p.instructions
            prefix.append(total)
        self.instructions = total
        self.cumulative_instructions = tuple(prefix)


class FastRequestSpec:
    """``__slots__`` stand-in for :class:`RequestSpec`.

    Borrows :class:`RequestSpec`'s derived-view methods unchanged, so
    everything downstream of generation (tracker, syscall sequences,
    solo series) runs the same code for both spec types.
    """

    __slots__ = ("request_id", "app", "kind", "stages", "metadata",
                 "total_instructions")

    def __init__(self, request_id, app, kind, stages, metadata):
        self.request_id = request_id
        self.app = app
        self.kind = kind
        self.stages = stages
        self.metadata = metadata
        self.total_instructions = sum(s.instructions for s in stages)

    phases = RequestSpec.phases
    syscall_sequence = RequestSpec.syscall_sequence
    solo_cpi = RequestSpec.solo_cpi
    solo_series = RequestSpec.solo_series


#: Interner table bound above which the table is dropped and rebuilt.
#: Dropping only ends identity sharing with behaviors interned earlier:
#: the simulator uses identity purely as a cache key (and holds the
#: behaviors it caches against), so an equal but fresh object just
#: recomputes the same values.
_INTERN_CAP = 1 << 16


class BehaviorInterner:
    """Value-keyed :class:`PhaseBehavior` interner.

    ``get`` returns *the same object* for equal field values, so a
    recurring value allocates nothing and the simulator's per-core
    contention solve sees it as unchanged across requests.
    Construction bypasses the frozen-dataclass ``__init__`` (and its
    validation): templates validate nominal values at build time and the
    jitter floors guarantee stamped cpi/refs stay positive/non-negative,
    so the domain checks cannot fire.
    """

    __slots__ = ("_table",)

    def __init__(self):
        self._table = {}

    def get(self, base_cpi, l2_refs_per_ins, l2_miss_ratio, cache_footprint):
        key = (base_cpi, l2_refs_per_ins, l2_miss_ratio, cache_footprint)
        behavior = self._table.get(key)
        if behavior is None:
            if len(self._table) >= _INTERN_CAP:
                self._table.clear()
            behavior = PhaseBehavior.__new__(PhaseBehavior)
            object.__setattr__(behavior, "base_cpi", base_cpi)
            object.__setattr__(behavior, "l2_refs_per_ins", l2_refs_per_ins)
            object.__setattr__(behavior, "l2_miss_ratio", l2_miss_ratio)
            object.__setattr__(behavior, "cache_footprint", cache_footprint)
            self._table[key] = behavior
        return behavior


def choice_cdf(p) -> np.ndarray:
    """The cumulative table ``Generator.choice(n, p=p)`` searches.

    ``int(cdf.searchsorted(rng.random(), side="right"))`` consumes one
    uniform draw and reproduces ``int(rng.choice(n, p=p))`` bit-for-bit
    (including the RNG state), because it performs numpy's own internal
    sequence: contiguous float64 copy, ``cumsum``, normalize by the last
    element, right-bisect one ``random()`` double.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


#: Instruction-count floor of the jitter chain (every def uses it).
_INT_FLOOR = 1000.0


class PhaseBlock:
    """A phase-def plan compiled into batched-jitter form.

    One :meth:`stamp` call draws a single ``standard_normal(n)`` block —
    bit-equal to the n scalar draws the reference materializer makes, in
    the same (instructions, cpi, refs?) order per def — and applies the
    jitter chain vectorized:
    ``j = base·(1 + frac·z)`` then ``maximum(0.5·base, j)`` elementwise,
    each operation in the scalar chain's IEEE-754 order.  Instruction
    draws additionally get ``maximum(1000, rint(j))`` — ``rint`` matches
    Python's banker's rounding in ``int(round(...))``.
    """

    __slots__ = (
        "n",
        "_ndraws",
        "_base",
        "_half",
        "_frac",
        "_ins_at",
        "_cpi_at",
        "_refs_at",
        "_names",
        "_refs_const",
        "_refs_jittered",
        "_miss",
        "_footprint",
        "_entry",
        "_rate",
        "_pool",
        "_intern",
    )

    def __init__(self, defs, intern: BehaviorInterner):
        base, frac = [], []
        ins_at, cpi_at, refs_at = [], [], []
        refs_const, refs_jittered = [], []
        for d in defs:
            # Validation probe: run the nominal values through the
            # validating constructor so bad constants fail at template
            # build with the phase name attached, and stamped values
            # (floored at half-nominal) inherit a validated domain.
            phase_probe(
                d.name,
                max(1, int(round(d.instructions))),
                cpi=d.cpi,
                refs=d.refs.base if type(d.refs) is Jit else d.refs,
                miss=d.miss,
                footprint=d.footprint,
                entry=d.entry,
                rate=d.rate,
                pool=d.pool,
            )
            ins_at.append(len(base))
            base.append(float(d.instructions))
            frac.append(d.ins_frac)
            cpi_at.append(len(base))
            base.append(d.cpi)
            frac.append(d.cpi_frac)
            if type(d.refs) is Jit:
                refs_at.append(len(base))
                base.append(d.refs.base)
                frac.append(d.refs.frac)
                refs_jittered.append(True)
                refs_const.append(0.0)
            else:
                refs_jittered.append(False)
                refs_const.append(d.refs)
        self.n = len(refs_const)
        self._ndraws = len(base)
        self._base = np.asarray(base, dtype=np.float64)
        self._half = 0.5 * self._base
        self._frac = np.asarray(frac, dtype=np.float64)
        self._ins_at = np.asarray(ins_at, dtype=np.intp)
        self._cpi_at = np.asarray(cpi_at, dtype=np.intp)
        self._refs_at = np.asarray(refs_at, dtype=np.intp)
        self._names = tuple(d.name for d in defs)
        self._refs_const = tuple(refs_const)
        self._refs_jittered = tuple(refs_jittered)
        self._miss = tuple(d.miss for d in defs)
        self._footprint = tuple(d.footprint for d in defs)
        self._entry = tuple(d.entry for d in defs)
        self._rate = tuple(d.rate for d in defs)
        self._pool = tuple(d.pool for d in defs)
        self._intern = intern

    def stamp(self, rng: np.random.Generator) -> list:
        """Materialize one request's phases from a single block draw."""
        z = rng.standard_normal(self._ndraws)
        j = self._base * (1.0 + self._frac * z)
        np.maximum(self._half, j, out=j)
        ins = np.maximum(_INT_FLOOR, np.rint(j[self._ins_at]))
        ins_vals = ins.astype(np.int64).tolist()
        cpi_vals = j[self._cpi_at].tolist()
        refs_vals = j[self._refs_at].tolist()

        intern_get = self._intern.get
        phases = []
        append = phases.append
        refs_cursor = 0
        refs_const = self._refs_const
        refs_jittered = self._refs_jittered
        miss, footprint = self._miss, self._footprint
        names, entry, rate, pool = self._names, self._entry, self._rate, self._pool
        for k in range(self.n):
            if refs_jittered[k]:
                refs = refs_vals[refs_cursor]
                refs_cursor += 1
            else:
                refs = refs_const[k]
            behavior = intern_get(cpi_vals[k], refs, miss[k], footprint[k])
            append(
                FastPhase(names[k], ins_vals[k], behavior, entry[k], rate[k], pool[k])
            )
        return phases


#: Shared interner + compiled-template store.  Templates are pure
#: functions of their key (the def tables are deterministic constants,
#: and the webserver key includes the catalog seed), so instances share
#: them: repeated workload constructions in one process — experiment
#: sweeps, benchmarks — skip recompilation entirely.
_SHARED_INTERN = BehaviorInterner()
_TEMPLATE_CACHE: dict = {}


def template(key, build):
    """Fetch a compiled template by key, building it on first use."""
    compiled = _TEMPLATE_CACHE.get(key)
    if compiled is None:
        compiled = build()
        _TEMPLATE_CACHE[key] = compiled
    return compiled


def phase_block(defs) -> PhaseBlock:
    """Compile ``defs`` against the shared behavior interner."""
    return PhaseBlock(defs, _SHARED_INTERN)


class BlockAheadGenerator:
    """Base of the server generators: kind draw, ``build``, block-ahead.

    A subclass defines ``_draw_kind(rng)`` (the request-kind draw) and
    ``build(rng, request_id, kind)`` (everything the reference draws
    after it), so :meth:`sample_request` keeps the reference draw order
    by construction and ``build`` alone serves callers that need one
    chosen kind.  ``prepare_block`` synthesizes specs for a contiguous
    id range in one pass; ``sample_request`` pops them when ids line up
    and falls back to direct synthesis otherwise (clearing a stale
    block, e.g. after a caller re-samples an id out of order).
    """

    def __init__(self):
        self._block = deque()

    def _no_kind(self, kind) -> ValueError:
        return ValueError(f"workload {self.name!r} has no kind {kind!r}")

    def sample_request(self, rng: np.random.Generator, request_id: int):
        block = self._block
        if block:
            if block[0].request_id == request_id:
                return block.popleft()
            block.clear()
        return self.build(rng, request_id, self._draw_kind(rng))

    def prepare_block(self, rng: np.random.Generator, start_id: int, count: int):
        """Pre-synthesize specs for ids ``start_id .. start_id+count-1``.

        Draw-order safe only when the caller guarantees no other draw
        from ``rng`` lands between ``start_id``'s reference position and
        the last consumed spec's — the simulator checks this before
        calling (eager arrival schedules, no syscall-sampling draws).
        """
        block = self._block
        block.clear()
        build, draw_kind = self.build, self._draw_kind
        for request_id in range(start_id, start_id + count):
            block.append(build(rng, request_id, draw_kind(rng)))
