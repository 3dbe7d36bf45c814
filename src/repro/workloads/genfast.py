"""Block-stamping request generation: batched RNG, interned templates,
block-ahead specs.

Request *generation* — not the event loop — bounds the simulator's
end-to-end speed on the server workloads: every reference request draws
two or three scalar normals per phase and rebuilds frozen
``Phase``/``PhaseBehavior``/``RequestSpec`` dataclasses from scratch.
The generators here, which :func:`~repro.workloads.registry.make_workload`
returns for the five server workloads, remove that bound while staying
draw-for-draw identical to the reference generators they subclass
(``tests/workloads/test_genfast.py`` pins specs and RNG state against
them).  Three layers:

* **batched RNG** — each request kind's phase-def plan (the same
  :class:`~repro.workloads.util.PhaseDef` tables the reference
  materializer consumes) is compiled once into a :class:`PhaseBlock`:
  flat jitter arrays in exact reference draw order.  Stamping a request
  draws one ``standard_normal(n)`` block and applies three vectorized
  IEEE-754 operations that are elementwise identical to the scalar
  ``jittered``/``jittered_int`` chain, so the bitstream and every
  downstream float are unchanged.  Mid-plan draws that *gate* structure
  (tpcc's item count, rubis's GC coin flips, every kind/catalog pick)
  stay scalar at their reference positions.
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
  through the reference constructor at template build, and the jitter
  floors (``max(0.5·nominal, ...)``) keep stamped values in the
  validated domain.
* **block-ahead synthesis** — when the arrival side exposes its
  schedule (every eager arrival process; closed loops trivially), the
  simulator calls :meth:`prepare_block` to synthesize the next N specs
  ahead of simulation into a deque that admission pops from.  Safe
  exactly when no simulation-side draw interleaves with generation
  draws, which the simulator checks before calling (syscall-sampling
  policies draw mid-run and disable it; fault/fixed-kind wrappers don't
  expose ``prepare_block`` and fall back to per-request synthesis).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.hardware.cpu import PhaseBehavior
from repro.workloads.base import Phase, RequestSpec
from repro.workloads.rubis import (
    GC_PROBABILITY,
    INTERACTION_MIX,
    RubisWorkload,
    interaction_segments,
)
from repro.workloads.tpcc import (
    NEW_ORDER_HEAD,
    TRANSACTION_MIX,
    TpccWorkload,
    new_order_body_defs,
    transaction_phase_defs,
)
from repro.workloads.tpch import TpchWorkload, query_phase_defs
from repro.workloads.util import Jit, phase as phase_probe
from repro.workloads.webserver import (
    FILE_CLASSES,
    WebServerWorkload,
    file_fingerprint,
    request_phase_defs,
)
from repro.workloads.webwork import NUM_PROBLEMS, WeBWorKWorkload, problem_phase_defs

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

    Borrows the reference spec's derived-view methods unchanged, so
    everything downstream of generation (tracker, syscall sequences,
    solo series) runs the exact reference code.
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


def _choice_cdf(p) -> np.ndarray:
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


#: Floor applied by ``jittered_int`` (all generators use the default).
_INT_FLOOR = 1000.0


class PhaseBlock:
    """A phase-def plan compiled into batched-jitter form.

    One :meth:`stamp` call draws a single ``standard_normal(n)`` block —
    bit-equal to the n scalar draws the reference materializer makes, in
    the same order — and applies the jitter chain vectorized:
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
            # reference constructor so bad constants fail at template
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


def _cached(key, build):
    """Fetch a compiled template by key, building it on first use."""
    template = _TEMPLATE_CACHE.get(key)
    if template is None:
        template = build()
        _TEMPLATE_CACHE[key] = template
    return template


class _BlockAheadMixin:
    """Deque-fed ``sample_request`` with an optional block-ahead fill.

    ``prepare_block`` synthesizes specs for a contiguous id range in one
    pass; ``sample_request`` pops them when ids line up and falls back to
    direct synthesis otherwise (clearing a stale block, e.g. after a
    caller re-samples the same id during rejection sampling).
    """

    def sample_request(self, rng: np.random.Generator, request_id: int):
        block = self._block
        if block:
            if block[0].request_id == request_id:
                return block.popleft()
            block.clear()
        return self._synthesize(rng, request_id)

    def prepare_block(self, rng: np.random.Generator, start_id: int, count: int):
        """Pre-synthesize specs for ids ``start_id .. start_id+count-1``.

        Draw-order safe only when the caller guarantees no other draw
        from ``rng`` lands between ``start_id``'s reference position and
        the last consumed spec's — the simulator checks this before
        calling (eager arrival schedules, no syscall-sampling draws).
        """
        block = self._block
        block.clear()
        synthesize = self._synthesize
        for request_id in range(start_id, start_id + count):
            block.append(synthesize(rng, request_id))


class FastWebServerWorkload(_BlockAheadMixin, WebServerWorkload):
    """Batched-generation webserver: per-file interned phase templates."""

    def __init__(self, catalog_seed: int = 909_009):
        super().__init__(catalog_seed)
        self._block = deque()
        self._catalog_seed = catalog_seed
        mix = np.array([c[3] for c in FILE_CLASSES])
        self._cls_cdf = _choice_cdf(mix / mix.sum())
        self._file_cdf = _choice_cdf(self._popularity)

    def _build_template(self, cls_idx, file_idx):
        cls_name = FILE_CLASSES[cls_idx][0]
        file_bytes, file_seed = self._catalog[cls_name][file_idx]
        block = PhaseBlock(
            request_phase_defs(file_bytes, file_fingerprint(file_seed)),
            _SHARED_INTERN,
        )
        return (block, cls_name, file_bytes, f"{cls_name}/{file_idx}")

    def _synthesize(self, rng, request_id):
        cls_idx = int(self._cls_cdf.searchsorted(rng.random(), side="right"))
        file_idx = int(self._file_cdf.searchsorted(rng.random(), side="right"))
        block, cls_name, file_bytes, file_id = _cached(
            ("webserver", self._catalog_seed, cls_idx, file_idx),
            lambda: self._build_template(cls_idx, file_idx),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            cls_name,
            (FastStage("apache", block.stamp(rng)),),
            {"file_bytes": file_bytes, "file_id": file_id},
        )


class FastTpccWorkload(_BlockAheadMixin, TpccWorkload):
    """Batched-generation TPC-C: per-kind blocks, new-order head/body split."""

    def __init__(self):
        self._block = deque()
        self._mix_cdf = _choice_cdf(np.array([t[1] for t in TRANSACTION_MIX]))
        self._fixed = {
            kind: _cached(
                ("tpcc", kind),
                lambda k=kind: PhaseBlock(transaction_phase_defs(k), _SHARED_INTERN),
            )
            for kind in ("payment", "order_status", "delivery", "stock_level")
        }
        self._new_order_head = _cached(
            ("tpcc", "new_order_head"),
            lambda: PhaseBlock(NEW_ORDER_HEAD, _SHARED_INTERN),
        )

    def _synthesize(self, rng, request_id):
        idx = int(self._mix_cdf.searchsorted(rng.random(), side="right"))
        kind = TRANSACTION_MIX[idx][0]
        if kind == "new_order":
            phases = self._new_order_head.stamp(rng)
            n_items = int(rng.integers(8, 13))
            body = _cached(
                ("tpcc", "new_order_body", n_items),
                lambda: PhaseBlock(new_order_body_defs(n_items), _SHARED_INTERN),
            )
            phases += body.stamp(rng)
        else:
            phases = self._fixed[kind].stamp(rng)
        return FastRequestSpec(
            request_id, self.name, kind, (FastStage("mysql", phases),), {}
        )


class FastTpchWorkload(_BlockAheadMixin, TpchWorkload):
    """Batched-generation TPC-H: one interned block per query kind."""

    def __init__(self):
        self._block = deque()

    def _synthesize(self, rng, request_id):
        kind = self.kinds[int(rng.integers(len(self.kinds)))]
        block = _cached(
            ("tpch", kind),
            lambda: PhaseBlock(query_phase_defs(kind), _SHARED_INTERN),
        )
        return FastRequestSpec(
            request_id, self.name, kind, (FastStage("mysql", block.stamp(rng)),), {}
        )


class FastRubisWorkload(_BlockAheadMixin, RubisWorkload):
    """Batched-generation RUBiS: segmented blocks around the GC coin flips."""

    def __init__(self):
        self._block = deque()
        mix = np.array([i[1] for i in INTERACTION_MIX])
        self._mix_cdf = _choice_cdf(mix / mix.sum())

    @staticmethod
    def _build_template(idx):
        head, comp_pairs, tail = interaction_segments(idx)
        return (
            PhaseBlock(head, _SHARED_INTERN),
            tuple(
                (PhaseBlock((c,), _SHARED_INTERN), PhaseBlock((g,), _SHARED_INTERN))
                for c, g in comp_pairs
            ),
            PhaseBlock(tail, _SHARED_INTERN),
        )

    def _synthesize(self, rng, request_id):
        idx = int(self._mix_cdf.searchsorted(rng.random(), side="right"))
        kind, _, components, _, _ = INTERACTION_MIX[idx]
        category = int(rng.integers(20))
        head_block, pair_blocks, tail_block = _cached(
            ("rubis", idx), lambda: self._build_template(idx)
        )

        web_in = head_block.stamp(rng)
        ejb_phases = []
        for comp_block, gc_block in pair_blocks:
            ejb_phases += comp_block.stamp(rng)
            if rng.random() < GC_PROBABILITY:
                ejb_phases += gc_block.stamp(rng)
        tail_phases = tail_block.stamp(rng)

        stages = (
            FastStage("tomcat", web_in),
            FastStage("jboss", ejb_phases),
            FastStage("mysql", tail_phases[:2]),
            FastStage("jboss_render", tail_phases[2:3]),
            FastStage("tomcat_out", tail_phases[3:4]),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            kind,
            stages,
            {"category": category, "components": components},
        )


class FastWeBWorKWorkload(_BlockAheadMixin, WeBWorKWorkload):
    """Batched-generation WeBWorK: one interned block per problem id."""

    def __init__(self):
        self._block = deque()

    def _synthesize(self, rng, request_id):
        problem_id = int(rng.integers(NUM_PROBLEMS))
        block = _cached(
            ("webwork", problem_id),
            lambda: PhaseBlock(problem_phase_defs(problem_id), _SHARED_INTERN),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            f"problem_{problem_id}",
            (FastStage("apache_modperl", block.stamp(rng)),),
            {"problem_id": problem_id},
        )


#: The block-stamping generator of each server workload, by registry name.
FAST_FACTORIES = {
    "webserver": FastWebServerWorkload,
    "tpcc": FastTpccWorkload,
    "tpch": FastTpchWorkload,
    "rubis": FastRubisWorkload,
    "webwork": FastWeBWorKWorkload,
}

