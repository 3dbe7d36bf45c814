"""Composable, seeded fault schedules parsed from ``--faults`` specs.

A :class:`FaultSchedule` is an ordered tuple of :class:`FaultClause`\\ s,
each an independent injection process that can be time-windowed (by
request index), targeted (at one request kind or one tenant), and
correlated (bursts of consecutive faulted requests).  The grammar joins
clauses with ``+``::

    spec    := clause ("+" clause)*
    clause  := kind ":" rate option*
    option  := "@" lo "-" hi          # active for request ids in [lo, hi)
             | "%" "kind=" NAME       # only requests of this kind
             | "%" "tenant=" N        # only requests of this tenant
             | "*" N                  # burst: a hit faults the next N-1 too

Examples::

    lock_stall:0.25                      # the legacy syntax, unchanged
    gc_pause:0.2+cache_thrash:0.1@0-40   # two concurrent processes
    membw_saturation:0.15*4              # correlated bursts of four
    slow_replica:0.3%kind=new_order      # targeted at one request kind

:class:`ScheduledFaultWorkload` wraps any workload generator and applies
the schedule per sampled request; it is the one fault wrapper.  The
single-clause legacy specs keep the exact RNG draw order of the original
single-kind wrapper (one uniform draw for the fire decision, then the
injector's draws), so old specs produce byte-identical request streams —
pinned by frozen digests of that wrapper's streams in
``tests/workloads/test_fault_schedules.py``.

Malformed specs raise :class:`ValueError` naming the offending token;
both CLIs wrap this in ``argparse.ArgumentTypeError`` so a bad
``--faults`` exits with a clear usage message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.taxonomy import FAULT_TAXONOMY, INJECTORS, LEGACY_FAULT_KINDS

__all__ = [
    "FaultClause",
    "FaultSchedule",
    "ScheduledFaultWorkload",
    "parse_fault_schedule",
]

_OPTION_SPLIT = re.compile(r"[@%*][^@%*]*")
_HEAD = re.compile(r"^(?P<head>[^@%*]*)(?P<options>(?:[@%*][^@%*]*)*)$")
_WINDOW = re.compile(r"^@(\d+)-(\d+)$")
_BURST = re.compile(r"^\*(\d+)$")


@dataclass(frozen=True)
class FaultClause:
    """One independent injection process within a schedule."""

    kind: str
    rate: float
    #: Half-open request-index activation window ``[lo, hi)``; ``None``
    #: means always active.
    window: Optional[Tuple[int, int]] = None
    #: Only requests of this application kind are eligible.
    target_kind: Optional[str] = None
    #: Only requests of this tenant are eligible (requires a tenant-tagged
    #: arrival process; untagged traffic never matches).
    target_tenant: Optional[int] = None
    #: A hit also faults the next ``burst - 1`` eligible requests.
    burst: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_TAXONOMY:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_TAXONOMY}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate {self.rate} must be in [0, 1]")
        if self.window is not None:
            lo, hi = self.window
            if lo < 0 or hi <= lo:
                raise ValueError(
                    f"activation window {lo}-{hi} must satisfy 0 <= lo < hi"
                )
        if self.burst < 1:
            raise ValueError(f"burst {self.burst} must be >= 1")

    @property
    def is_legacy(self) -> bool:
        """True when the clause is expressible in the old ``kind:rate``."""
        return (
            self.kind in LEGACY_FAULT_KINDS
            and self.window is None
            and self.target_kind is None
            and self.target_tenant is None
            and self.burst == 1
        )

    def eligible(self, request_id: int, request_kind: str,
                 tenant: Optional[int]) -> bool:
        if self.window is not None:
            lo, hi = self.window
            if not lo <= request_id < hi:
                return False
        if self.target_kind is not None and request_kind != self.target_kind:
            return False
        if self.target_tenant is not None and tenant != self.target_tenant:
            return False
        return True

    def to_spec(self) -> str:
        parts = [f"{self.kind}:{self.rate:g}"]
        if self.window is not None:
            parts.append(f"@{self.window[0]}-{self.window[1]}")
        if self.target_kind is not None:
            parts.append(f"%kind={self.target_kind}")
        if self.target_tenant is not None:
            parts.append(f"%tenant={self.target_tenant}")
        if self.burst != 1:
            parts.append(f"*{self.burst}")
        return "".join(parts)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered composition of fault clauses."""

    clauses: Tuple[FaultClause, ...]

    def __post_init__(self):
        if not self.clauses:
            raise ValueError("a fault schedule needs at least one clause")

    @property
    def is_legacy(self) -> bool:
        """Single legacy clause — the old wrapper's exact semantics."""
        return len(self.clauses) == 1 and self.clauses[0].is_legacy

    @property
    def kinds(self) -> Tuple[str, ...]:
        return tuple(clause.kind for clause in self.clauses)

    def to_spec(self) -> str:
        return "+".join(clause.to_spec() for clause in self.clauses)


def _parse_clause(text: str, where: str) -> FaultClause:
    if not text:
        raise ValueError(f"{where}: empty fault clause")
    match = _HEAD.match(text)
    if match is None:  # pragma: no cover - _HEAD matches any string
        raise ValueError(f"{where}: malformed fault clause {text!r}")
    head = match.group("head")
    kind, sep, rate_text = head.partition(":")
    if not sep:
        raise ValueError(
            f"{where}: clause {text!r} must start with kind:rate "
            "(e.g. lock_stall:0.2)"
        )
    if kind not in FAULT_TAXONOMY:
        raise ValueError(
            f"{where}: unknown fault kind {kind!r}; choose from {FAULT_TAXONOMY}"
        )
    try:
        rate = float(rate_text)
    except ValueError:
        raise ValueError(
            f"{where}: fault rate {rate_text!r} is not a number"
        ) from None
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"{where}: fault rate {rate} must be in [0, 1]")

    window: Optional[Tuple[int, int]] = None
    target_kind: Optional[str] = None
    target_tenant: Optional[int] = None
    burst = 1
    for token in _OPTION_SPLIT.findall(match.group("options")):
        if token.startswith("@"):
            if window is not None:
                raise ValueError(
                    f"{where}: duplicate activation window {token!r}"
                )
            window_match = _WINDOW.match(token)
            if window_match is None:
                raise ValueError(
                    f"{where}: bad activation window {token!r}; expected "
                    "@lo-hi (request-index range, e.g. @0-40)"
                )
            lo, hi = int(window_match.group(1)), int(window_match.group(2))
            if hi <= lo:
                raise ValueError(
                    f"{where}: empty activation window {token!r} (lo < hi "
                    "required)"
                )
            window = (lo, hi)
        elif token.startswith("%"):
            key, eq, value = token[1:].partition("=")
            if not eq or not value:
                raise ValueError(
                    f"{where}: bad target {token!r}; expected %kind=NAME "
                    "or %tenant=N"
                )
            if key == "kind":
                if target_kind is not None:
                    raise ValueError(f"{where}: duplicate target {token!r}")
                target_kind = value
            elif key == "tenant":
                if target_tenant is not None:
                    raise ValueError(f"{where}: duplicate target {token!r}")
                try:
                    target_tenant = int(value)
                except ValueError:
                    raise ValueError(
                        f"{where}: tenant {value!r} in {token!r} is not an "
                        "integer"
                    ) from None
            else:
                raise ValueError(
                    f"{where}: unknown target {token!r}; expected %kind=NAME "
                    "or %tenant=N"
                )
        elif token.startswith("*"):
            if burst != 1:
                raise ValueError(f"{where}: duplicate burst option {token!r}")
            burst_match = _BURST.match(token)
            if burst_match is None:
                raise ValueError(
                    f"{where}: bad burst {token!r}; expected *N (e.g. *4)"
                )
            burst = int(burst_match.group(1))
            if burst < 1:
                raise ValueError(f"{where}: burst {token!r} must be >= 1")
        else:  # pragma: no cover - findall only yields @%* prefixes
            raise ValueError(f"{where}: bad option {token!r}")
    return FaultClause(
        kind=kind,
        rate=rate,
        window=window,
        target_kind=target_kind,
        target_tenant=target_tenant,
        burst=burst,
    )


def parse_fault_schedule(text: str) -> FaultSchedule:
    """Parse a ``--faults`` spec string into a :class:`FaultSchedule`."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"empty fault spec {text!r}")
    clauses = []
    for clause_text in text.split("+"):
        clause_text = clause_text.strip()
        where = f"fault spec clause {clause_text!r}"
        clauses.append(_parse_clause(clause_text, where))
    return FaultSchedule(clauses=tuple(clauses))


class ScheduledFaultWorkload:
    """Wrap a workload generator, applying a composed fault schedule.

    Ground truth is recorded in ``injected_ids`` (all faulted request
    ids) and ``injected_kinds`` (request id -> primary fault kind), and
    the spec metadata carries ``injected_fault`` (primary kind; also
    ``injected_faults`` when several clauses hit the same request).

    Activation-window transitions are queued as structured events for
    the simulator to drain into the observability stream (``
    fault_window_start`` / ``fault_window_end``), so a trace records
    exactly when each scheduled process switched on and off.
    """

    def __init__(self, inner, schedule: FaultSchedule):
        self.inner = inner
        self.schedule = schedule
        self.injected_ids: Set[int] = set()
        self.injected_kinds: Dict[int, str] = {}
        self._burst_left = [0] * len(schedule.clauses)
        self._window_open = [False] * len(schedule.clauses)
        self._pending_events: List[dict] = []
        self._next_tenant: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.inner.name}+" + "+".join(self.schedule.kinds)

    @property
    def sampling_period_us(self) -> float:
        return self.inner.sampling_period_us

    @property
    def window_instructions(self) -> float:
        return self.inner.window_instructions

    # -- simulator hooks -------------------------------------------------

    def note_tenant(self, tenant: Optional[int]) -> None:
        """Record the tenant of the next sampled request (set by the
        simulator's admission path, which knows the arrival's tenant tag
        before the workload draws the request)."""
        self._next_tenant = tenant

    def drain_fault_events(self) -> List[dict]:
        """Pop queued activation-window transition events."""
        if not self._pending_events:
            return []
        events, self._pending_events = self._pending_events, []
        return events

    # -- sampling --------------------------------------------------------

    def _track_window(self, index: int, clause: FaultClause,
                      request_id: int) -> None:
        lo, hi = clause.window
        if not self._window_open[index] and lo <= request_id < hi:
            self._window_open[index] = True
            self._pending_events.append(
                {
                    "kind": "fault_window_start",
                    "clause": index,
                    "fault": clause.kind,
                    "request_id": request_id,
                    "window_lo": lo,
                    "window_hi": hi,
                }
            )
        elif self._window_open[index] and request_id >= hi:
            self._window_open[index] = False
            self._pending_events.append(
                {
                    "kind": "fault_window_end",
                    "clause": index,
                    "fault": clause.kind,
                    "request_id": request_id,
                    "window_lo": lo,
                    "window_hi": hi,
                }
            )

    def sample_request(self, rng, request_id: int):
        tenant = self._next_tenant
        self._next_tenant = None
        spec = self.inner.sample_request(rng, request_id)
        fired: List[FaultClause] = []
        for index, clause in enumerate(self.schedule.clauses):
            if clause.window is not None:
                self._track_window(index, clause, request_id)
            if not clause.eligible(request_id, spec.kind, tenant):
                continue
            if self._burst_left[index] > 0:
                self._burst_left[index] -= 1
                fired.append(clause)
                continue
            # The legacy wrapper drew exactly one uniform per request and
            # fired iff r < p; keep that partition bit-for-bit.
            if rng.random() < clause.rate:
                fired.append(clause)
                if clause.burst > 1:
                    self._burst_left[index] = clause.burst - 1
        if not fired:
            return spec
        for clause in fired:
            spec = INJECTORS[clause.kind](spec, rng)
        primary = fired[0].kind
        self.injected_ids.add(request_id)
        self.injected_kinds[request_id] = primary
        if len(fired) > 1:
            # Injectors each stamped their own kind; restore the primary
            # (first clause in spec order) and keep the full list.
            spec.metadata["injected_fault"] = primary
            spec.metadata["injected_faults"] = [c.kind for c in fired]
        return spec
