"""The composable fault taxonomy: per-kind injectors over request specs.

Each injector is a pure function ``(spec, rng, **params) -> RequestSpec``
that perturbs one sampled request with a known behavioral fault and tags
it with ground truth (``metadata["injected_fault"]``).  The three legacy
kinds (``lock_stall``, ``cache_thrash``, ``slowdown``) were extracted
verbatim from the original single-kind fault wrapper — same RNG draw
order, same span sizing, same metadata — so
:class:`~repro.faults.schedule.ScheduledFaultWorkload` reproduces its
byte streams for the old ``kind:rate`` syntax.  That wrapper is gone;
frozen sha256 digests of its streams in
``tests/workloads/test_fault_schedules.py`` keep the identity pinned.
Five further kinds widen the taxonomy along the
signature axes the online :class:`~repro.online.attribution.
CauseAttributor` discriminates on:

``lock_convoy``
    Repeated spin bursts (a convoy re-forming at each lock hand-off):
    several disjoint low-reference, high-CPI spans instead of the single
    ``lock_stall`` span.
``membw_saturation``
    A long streaming span saturating the memory bus: reference rate far
    above baseline but only a moderate miss *ratio* — the locality dual
    of ``cache_thrash`` (few references, nearly all missing).
``gc_pause``
    A stop-the-world collection: one span of extreme CPI with almost no
    cache traffic, far beyond what lock spinning reaches.
``slow_replica``
    A degraded replica/tier late in the pipeline: uniform CPI inflation
    confined to the tail of the request (the back stages), clean head.
``gray_degradation``
    Gray failure: mild uniform CPI inflation, well below ``slowdown`` —
    the hard, low-contrast end of the attribution problem.

Span sizes are fractions of the request's instruction total with floors
chosen to survive fixed-instruction windowing (the online pipeline's
windows are 10k-100k instructions depending on workload), so every kind
leaves a readable signature in at least one full window.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

from repro.hardware.cpu import PhaseBehavior
from repro.workloads.base import Phase, RequestSpec, Stage

__all__ = [
    "FAULT_TAXONOMY",
    "LEGACY_FAULT_KINDS",
    "INJECTORS",
    "fault_position",
]

#: Every fault kind, in taxonomy (and documentation) order.  The first
#: three are the legacy kinds and stay byte-compatible with the original
#: single-kind injector.
FAULT_TAXONOMY = (
    "lock_stall",
    "cache_thrash",
    "slowdown",
    "lock_convoy",
    "membw_saturation",
    "gc_pause",
    "slow_replica",
    "gray_degradation",
)

LEGACY_FAULT_KINDS = ("lock_stall", "cache_thrash", "slowdown")

#: Spinning on a contended lock: dependent chain, almost no data
#: footprint, the lock line bouncing between cores (legacy behavior).
SPIN_BEHAVIOR = PhaseBehavior(
    base_cpi=4.2, l2_refs_per_ins=0.008, l2_miss_ratio=0.6, cache_footprint=0.05
)

#: Pathological locality (e.g. a degenerate hash): every access misses
#: (legacy behavior).
THRASH_BEHAVIOR = PhaseBehavior(
    base_cpi=1.2, l2_refs_per_ins=0.05, l2_miss_ratio=0.85, cache_footprint=1.0
)

#: Streaming through memory at full bandwidth: reference rate well above
#: any application phase, but prefetch-friendly (moderate miss ratio).
MEMBW_BEHAVIOR = PhaseBehavior(
    base_cpi=1.3, l2_refs_per_ins=0.09, l2_miss_ratio=0.4, cache_footprint=1.0
)

#: Stop-the-world pause: extreme CPI, essentially no cache traffic.
GC_BEHAVIOR = PhaseBehavior(
    base_cpi=14.0, l2_refs_per_ins=0.001, l2_miss_ratio=0.5, cache_footprint=0.02
)


def fault_position(rng, total_instructions: float) -> float:
    """The legacy strike offset: uniform in the middle half of the request."""
    return float(rng.uniform(0.25, 0.75)) * total_instructions


def _insert_spans(
    spec: RequestSpec,
    inserts: Sequence[Tuple[float, Phase]],
    kind: str,
) -> RequestSpec:
    """Insert span phases after the phases covering the given offsets.

    ``inserts`` must be ordered by ascending instruction offset.  A span
    lands immediately after the first phase whose cumulative instruction
    count reaches its offset — for a single span this reproduces the
    legacy ``_inject_span`` walk exactly.
    """
    pending = list(inserts)
    consumed = 0
    new_stages: List[Stage] = []
    for stage in spec.stages:
        phases: List[Phase] = []
        for p in stage.phases:
            phases.append(p)
            consumed += p.instructions
            while pending and consumed >= pending[0][0]:
                phases.append(pending.pop(0)[1])
        new_stages.append(Stage(tier=stage.tier, phases=tuple(phases)))
    return RequestSpec(
        request_id=spec.request_id,
        app=spec.app,
        kind=spec.kind,
        stages=tuple(new_stages),
        metadata={**spec.metadata, "injected_fault": kind},
    )


def _scaled_phase(p: Phase, factor: float) -> Phase:
    return Phase(
        name=p.name,
        instructions=p.instructions,
        behavior=PhaseBehavior(
            base_cpi=p.behavior.base_cpi * factor,
            l2_refs_per_ins=p.behavior.l2_refs_per_ins,
            l2_miss_ratio=p.behavior.l2_miss_ratio,
            cache_footprint=p.behavior.cache_footprint,
        ),
        entry_syscall=p.entry_syscall,
        syscall_rate_per_ins=p.syscall_rate_per_ins,
        syscall_pool=p.syscall_pool,
    )


def inject_lock_stall(
    spec: RequestSpec,
    rng,
    *,
    span_fraction: float = 0.08,
    position: Optional[float] = None,
) -> RequestSpec:
    """One spin span mid-request (the Section 4.3 contention hypothesis)."""
    if position is None:
        position = fault_position(rng, spec.total_instructions)
    span = Phase(
        name="fault_lock_stall",
        instructions=max(5_000, int(span_fraction * spec.total_instructions)),
        behavior=SPIN_BEHAVIOR,
    )
    return _insert_spans(spec, [(position, span)], "lock_stall")


def inject_cache_thrash(
    spec: RequestSpec,
    rng,
    *,
    span_fraction: float = 0.08,
    position: Optional[float] = None,
) -> RequestSpec:
    """One span with pathological locality."""
    if position is None:
        position = fault_position(rng, spec.total_instructions)
    span = Phase(
        name="fault_cache_thrash",
        instructions=max(5_000, int(span_fraction * spec.total_instructions)),
        behavior=THRASH_BEHAVIOR,
    )
    return _insert_spans(spec, [(position, span)], "cache_thrash")


def inject_slowdown(
    spec: RequestSpec, rng=None, *, factor: float = 1.6
) -> RequestSpec:
    """Uniformly elevated CPI (e.g. debug logging left enabled)."""
    new_stages = [
        Stage(
            tier=stage.tier,
            phases=tuple(_scaled_phase(p, factor) for p in stage.phases),
        )
        for stage in spec.stages
    ]
    return RequestSpec(
        request_id=spec.request_id,
        app=spec.app,
        kind=spec.kind,
        stages=tuple(new_stages),
        metadata={**spec.metadata, "injected_fault": "slowdown"},
    )


def inject_lock_convoy(
    spec: RequestSpec,
    rng,
    *,
    span_fraction: float = 0.07,
    spans: int = 3,
    gap_fraction: float = 0.22,
) -> RequestSpec:
    """Several disjoint spin bursts: a convoy re-forming at each hand-off.

    One RNG draw places the first burst early; the rest follow at fixed
    gaps, so the signature is >= 2 separated low-reference CPI spikes
    (versus the single ``lock_stall`` span).
    """
    total = spec.total_instructions
    start = float(rng.uniform(0.10, 0.35)) * total
    size = max(6_000, int(span_fraction * total))
    inserts = [
        (
            start + index * gap_fraction * total,
            Phase(
                name=f"fault_lock_convoy_{index}",
                instructions=size,
                behavior=SPIN_BEHAVIOR,
            ),
        )
        for index in range(spans)
    ]
    return _insert_spans(spec, inserts, "lock_convoy")


def inject_membw_saturation(
    spec: RequestSpec,
    rng,
    *,
    span_fraction: float = 0.30,
    position: Optional[float] = None,
) -> RequestSpec:
    """A long full-bandwidth streaming span (a co-runner hogging the bus)."""
    if position is None:
        position = float(rng.uniform(0.20, 0.50)) * spec.total_instructions
    span = Phase(
        name="fault_membw_saturation",
        instructions=max(20_000, int(span_fraction * spec.total_instructions)),
        behavior=MEMBW_BEHAVIOR,
    )
    return _insert_spans(spec, [(position, span)], "membw_saturation")


def inject_gc_pause(
    spec: RequestSpec,
    rng,
    *,
    span_fraction: float = 0.10,
    position: Optional[float] = None,
) -> RequestSpec:
    """A stop-the-world collection pause: extreme CPI, no cache traffic.

    The floor is sized to fill the online pipeline's largest default
    analysis window (100k instructions), so at least one window shows
    the near-undiluted pause CPI — the feature separating a pause from
    mere lock spinning.
    """
    if position is None:
        position = float(rng.uniform(0.30, 0.70)) * spec.total_instructions
    span = Phase(
        name="fault_gc_pause",
        instructions=max(120_000, int(span_fraction * spec.total_instructions)),
        behavior=GC_BEHAVIOR,
    )
    return _insert_spans(spec, [(position, span)], "gc_pause")


def inject_slow_replica(
    spec: RequestSpec, rng=None, *, factor: float = 2.2
) -> RequestSpec:
    """A degraded replica/tier: CPI inflation confined to the tail.

    Multi-stage requests degrade every stage from the one containing the
    instruction midpoint onward (the back tiers of the pipeline); single
    stage requests degrade the phases starting in the back half.  Either
    way the head of the request stays clean — the discriminating shape.
    """
    total = spec.total_instructions
    midpoint = 0.5 * total
    new_stages: List[Stage] = []
    if len(spec.stages) > 1:
        consumed = 0
        degraded = False
        for stage in spec.stages:
            stage_end = consumed + stage.instructions
            if not degraded and stage_end >= midpoint:
                degraded = True
            if degraded:
                phases = tuple(_scaled_phase(p, factor) for p in stage.phases)
            else:
                phases = stage.phases
            new_stages.append(Stage(tier=stage.tier, phases=phases))
            consumed = stage_end
    else:
        stage = spec.stages[0]
        consumed = 0
        phases: List[Phase] = []
        scaled_any = False
        for p in stage.phases:
            if consumed >= midpoint:
                phases.append(_scaled_phase(p, factor))
                scaled_any = True
            else:
                phases.append(p)
            consumed += p.instructions
        if not scaled_any and phases:
            phases[-1] = _scaled_phase(stage.phases[-1], factor)
        new_stages.append(Stage(tier=stage.tier, phases=tuple(phases)))
    return RequestSpec(
        request_id=spec.request_id,
        app=spec.app,
        kind=spec.kind,
        stages=tuple(new_stages),
        metadata={**spec.metadata, "injected_fault": "slow_replica"},
    )


def inject_gray_degradation(
    spec: RequestSpec,
    rng=None,
    *,
    factor: float = 1.9,
    band_fraction: float = 0.17,
    period_fraction: float = 0.34,
) -> RequestSpec:
    """Gray failure: *partial* degradation, intermittent not uniform.

    Phases whose midpoints fall into periodic bands (the first
    ``band_fraction`` of every ``period_fraction`` of the request) run
    degraded; everything between is healthy.  The signature is several
    disjoint moderate elevations with normal cache behavior — unlike a
    ``slowdown`` (uniform), a ``lock_convoy`` (spin counters), or a
    ``slow_replica`` (clean head, elevated tail).
    """
    total = spec.total_instructions
    consumed = 0
    new_stages: List[Stage] = []
    for stage in spec.stages:
        phases: List[Phase] = []
        for p in stage.phases:
            midpoint_fraction = (consumed + p.instructions / 2.0) / total
            in_band = (midpoint_fraction % period_fraction) < band_fraction
            phases.append(_scaled_phase(p, factor) if in_band else p)
            consumed += p.instructions
        new_stages.append(Stage(tier=stage.tier, phases=tuple(phases)))
    return RequestSpec(
        request_id=spec.request_id,
        app=spec.app,
        kind=spec.kind,
        stages=tuple(new_stages),
        metadata={**spec.metadata, "injected_fault": "gray_degradation"},
    )


INJECTORS = {
    "lock_stall": inject_lock_stall,
    "cache_thrash": inject_cache_thrash,
    "slowdown": inject_slowdown,
    "lock_convoy": inject_lock_convoy,
    "membw_saturation": inject_membw_saturation,
    "gc_pause": inject_gc_pause,
    "slow_replica": inject_slow_replica,
    "gray_degradation": inject_gray_degradation,
}

assert tuple(INJECTORS) == FAULT_TAXONOMY
