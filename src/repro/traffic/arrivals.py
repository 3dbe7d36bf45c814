"""Pluggable open-system arrival processes.

Production traffic is open-loop: requests arrive on their own schedule
regardless of how backed up the server is, which is what turns offered
load into queueing delay and tail latency.  Every process here is a
*description* — :meth:`ArrivalProcess.schedule` draws the whole arrival
schedule up front from the caller's RNG, so a run is a pure function of
``(process, seed)`` and two runs with the same seed are byte-identical.

Each schedule entry is an :class:`Arrival`: an absolute arrival time in
simulated cycles plus an optional integer tenant tag (used by the
Zipf-skewed process for multi-tenant popularity studies; dispatch
policies and the latency store may key on it).

The paper's original closed generative loop is just one process among
many here (:class:`ClosedLoop`): it draws no schedule at all, and the
simulator falls back to completion-triggered admission, byte-identical
to the pre-traffic-layer behavior.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "Arrival",
    "ArrivalProcess",
    "ClosedLoop",
    "DiurnalArrivals",
    "OnOffArrivals",
    "PoissonArrivals",
    "TraceReplay",
    "ZipfArrivals",
    "load_schedule",
    "parse_arrivals",
    "save_schedule",
]


@dataclass(frozen=True)
class Arrival:
    """One scheduled request arrival."""

    #: Absolute arrival time in simulated cycles.
    cycle: float
    #: Tenant tag (None for single-tenant processes).
    tenant: Optional[int] = None


def _us_to_cycles(t_us: float, frequency_ghz: float) -> float:
    return t_us * frequency_ghz * 1e3


def _rate_to_gap_cycles(rate_per_s: float, frequency_ghz: float) -> float:
    return frequency_ghz * 1e9 / rate_per_s


class ArrivalProcess:
    """Base class: a seeded, reproducible arrival-schedule description."""

    #: Registry/spec name (``poisson``, ``onoff``, ...).
    kind: str = "abstract"
    #: Closed-loop processes draw no schedule; the simulator keeps its
    #: completion-triggered admission loop instead.
    is_closed_loop: bool = False
    #: Whether ``schedule()`` draws the whole arrival stream eagerly (all
    #: current processes do).  The generation fast path's block-ahead
    #: synthesis relies on this: once the schedule is drawn, no further
    #: arrival-side RNG draws interleave with request generation.  A
    #: future lazily-drawing process must set this False to keep the
    #: reference draw order.
    exposes_schedule: bool = True

    def schedule(
        self, rng: np.random.Generator, n: int, frequency_ghz: float
    ) -> List[Arrival]:
        """Draw ``n`` arrivals (sorted by cycle) from ``rng``."""
        raise NotImplementedError

    def describe(self) -> dict:
        """JSON-serializable identity, for trace/result metadata."""
        return {"kind": self.kind}

    def mean_rate_per_s(self) -> Optional[float]:
        """Long-run mean offered load (None when undefined, e.g. replay)."""
        return None

    def tenant_tags(self) -> frozenset:
        """Every tenant tag an arrival of this process can carry."""
        return frozenset()


class ClosedLoop(ArrivalProcess):
    """The paper's closed generative loop, as an arrival process.

    No schedule exists: ``concurrency`` clients each issue the next
    request the moment the previous one completes.  Selecting this
    process is byte-identical to not configuring a traffic layer at all.
    """

    kind = "closed"
    is_closed_loop = True

    def schedule(self, rng, n, frequency_ghz):
        raise RuntimeError(
            "closed-loop arrivals have no schedule; the simulator admits "
            "on completion"
        )


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a fixed rate (the M in M/G/k)."""

    rate_per_s: float

    kind = "poisson"

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_s}")

    def schedule(self, rng, n, frequency_ghz):
        gap = _rate_to_gap_cycles(self.rate_per_s, frequency_ghz)
        times = np.cumsum(rng.exponential(gap, size=n))
        return [Arrival(float(t)) for t in times]

    def describe(self):
        return {"kind": self.kind, "rate_per_s": self.rate_per_s}

    def mean_rate_per_s(self):
        return self.rate_per_s


@dataclass(frozen=True)
class OnOffArrivals(ArrivalProcess):
    """Bursty ON-OFF modulated Poisson arrivals.

    The source alternates between ON periods (Poisson at ``rate_on``)
    and OFF periods (Poisson at ``rate_off``, typically far lower or
    zero), with exponentially distributed period durations — the classic
    two-state MMPP burst model from the web-workload literature.
    """

    rate_on_per_s: float
    rate_off_per_s: float
    on_ms: float
    off_ms: float

    kind = "onoff"

    def __post_init__(self):
        if self.rate_on_per_s <= 0:
            raise ValueError(f"ON rate must be positive, got {self.rate_on_per_s}")
        if self.rate_off_per_s < 0:
            raise ValueError(
                f"OFF rate must be non-negative, got {self.rate_off_per_s}"
            )
        if self.on_ms <= 0 or self.off_ms <= 0:
            raise ValueError("ON/OFF mean durations must be positive")

    def schedule(self, rng, n, frequency_ghz):
        out: List[Arrival] = []
        t = 0.0
        on = True
        on_cycles = _us_to_cycles(self.on_ms * 1e3, frequency_ghz)
        off_cycles = _us_to_cycles(self.off_ms * 1e3, frequency_ghz)
        period_end = t + float(rng.exponential(on_cycles))
        while len(out) < n:
            rate = self.rate_on_per_s if on else self.rate_off_per_s
            if rate <= 0:
                t = period_end
            else:
                gap = _rate_to_gap_cycles(rate, frequency_ghz)
                t_next = t + float(rng.exponential(gap))
                if t_next < period_end:
                    t = t_next
                    out.append(Arrival(t))
                    continue
                # The draw crossed the state boundary; by memorylessness
                # the residual restarts fresh in the next state.
                t = period_end
            on = not on
            mean = on_cycles if on else off_cycles
            period_end = t + float(rng.exponential(mean))
        return out

    def describe(self):
        return {
            "kind": self.kind,
            "rate_on_per_s": self.rate_on_per_s,
            "rate_off_per_s": self.rate_off_per_s,
            "on_ms": self.on_ms,
            "off_ms": self.off_ms,
        }

    def mean_rate_per_s(self):
        total = self.on_ms + self.off_ms
        return (
            self.rate_on_per_s * self.on_ms + self.rate_off_per_s * self.off_ms
        ) / total


@dataclass(frozen=True)
class DiurnalArrivals(ArrivalProcess):
    """Sinusoidally modulated Poisson arrivals (a compressed diurnal curve).

    Instantaneous rate is ``rate * (1 + depth * sin(2*pi*t / period))``,
    realized by thinning a homogeneous Poisson process at the peak rate —
    the standard exact construction for inhomogeneous Poisson processes.
    """

    rate_per_s: float
    period_ms: float
    depth: float

    kind = "diurnal"

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_s}")
        if self.period_ms <= 0:
            raise ValueError(f"period must be positive, got {self.period_ms}")
        if not 0.0 <= self.depth <= 1.0:
            raise ValueError(f"depth must be in [0, 1], got {self.depth}")

    def schedule(self, rng, n, frequency_ghz):
        peak = self.rate_per_s * (1.0 + self.depth)
        gap = _rate_to_gap_cycles(peak, frequency_ghz)
        period_cycles = _us_to_cycles(self.period_ms * 1e3, frequency_ghz)
        out: List[Arrival] = []
        t = 0.0
        while len(out) < n:
            t += float(rng.exponential(gap))
            rate = self.rate_per_s * (
                1.0 + self.depth * math.sin(2.0 * math.pi * t / period_cycles)
            )
            if float(rng.random()) * peak < rate:
                out.append(Arrival(t))
        return out

    def describe(self):
        return {
            "kind": self.kind,
            "rate_per_s": self.rate_per_s,
            "period_ms": self.period_ms,
            "depth": self.depth,
        }

    def mean_rate_per_s(self):
        return self.rate_per_s


@dataclass(frozen=True)
class ZipfArrivals(ArrivalProcess):
    """Poisson arrivals with Zipf-skewed tenant popularity.

    Each arrival is tagged with a tenant drawn from a bounded Zipf
    distribution (``P(tenant=i) ∝ 1/(i+1)^s`` over ``tenants`` tenants),
    modeling the heavy-tailed per-customer request popularity that the
    web-workload characterization surveys report.  Dispatch policies and
    the latency store can group on the tag.
    """

    rate_per_s: float
    s: float
    tenants: int

    kind = "zipf"

    def __post_init__(self):
        if self.rate_per_s <= 0:
            raise ValueError(f"rate must be positive, got {self.rate_per_s}")
        if self.s <= 0:
            raise ValueError(f"zipf exponent must be positive, got {self.s}")
        if self.tenants < 2:
            raise ValueError(f"need >= 2 tenants, got {self.tenants}")

    def _tenant_cdf(self) -> np.ndarray:
        weights = 1.0 / np.power(np.arange(1, self.tenants + 1, dtype=float), self.s)
        return np.cumsum(weights) / weights.sum()

    def schedule(self, rng, n, frequency_ghz):
        gap = _rate_to_gap_cycles(self.rate_per_s, frequency_ghz)
        times = np.cumsum(rng.exponential(gap, size=n))
        cdf = self._tenant_cdf()
        tenants = np.searchsorted(cdf, rng.random(size=n), side="right")
        return [
            Arrival(float(t), tenant=int(tenant))
            for t, tenant in zip(times, tenants)
        ]

    def describe(self):
        return {
            "kind": self.kind,
            "rate_per_s": self.rate_per_s,
            "s": self.s,
            "tenants": self.tenants,
        }

    def mean_rate_per_s(self):
        return self.rate_per_s

    def tenant_tags(self):
        return frozenset(range(self.tenants))


SCHEDULE_FORMAT = "repro-arrival-schedule"
SCHEDULE_VERSION = 1


def save_schedule(entries: List[Tuple[float, Optional[int]]], path: str) -> None:
    """Persist a schedule of ``(t_us, tenant)`` entries as JSONL.

    Times are stored in microseconds (machine-independent); floats use
    Python's shortest round-trip repr, so ``load_schedule`` recovers the
    exact bit pattern and save→load→save is byte-identical.
    """
    with open(path, "w") as fh:
        header = {"format": SCHEDULE_FORMAT, "version": SCHEDULE_VERSION}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for t_us, tenant in entries:
            record = {"t_us": float(t_us)}
            if tenant is not None:
                record["tenant"] = int(tenant)
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def load_schedule(path: str) -> List[Tuple[float, Optional[int]]]:
    """Load a schedule written by :func:`save_schedule` (byte-exact)."""
    entries: List[Tuple[float, Optional[int]]] = []
    with open(path) as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line)
        except ValueError as error:
            raise ValueError(f"malformed schedule header in {path!r}: {error}")
        if header.get("format") != SCHEDULE_FORMAT:
            raise ValueError(
                f"{path!r} is not a {SCHEDULE_FORMAT} file: "
                f"format={header.get('format')!r}"
            )
        if header.get("version") != SCHEDULE_VERSION:
            raise ValueError(
                f"unsupported schedule version {header.get('version')!r} "
                f"in {path!r}"
            )
        last = -math.inf
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            record = json.loads(line)
            t_us = float(record["t_us"])
            if not math.isfinite(t_us) or t_us < 0:
                raise ValueError(
                    f"{path!r}:{line_no}: arrival time must be finite and "
                    f">= 0, got {t_us}"
                )
            if t_us < last:
                raise ValueError(
                    f"{path!r}:{line_no}: arrival times must be "
                    f"non-decreasing ({t_us} after {last})"
                )
            last = t_us
            tenant = record.get("tenant")
            entries.append((t_us, None if tenant is None else int(tenant)))
    return entries


@dataclass(frozen=True)
class TraceReplay(ArrivalProcess):
    """Deterministic replay of a recorded arrival schedule.

    The schedule file (see :func:`save_schedule`) stores microsecond
    timestamps plus optional tenant tags; replay consumes no RNG at all,
    so two replays of the same file are trivially identical.
    """

    path: str

    kind = "replay"

    def schedule(self, rng, n, frequency_ghz):
        entries = load_schedule(self.path)
        if len(entries) < n:
            raise ValueError(
                f"replay schedule {self.path!r} has {len(entries)} arrivals, "
                f"but the run needs {n}"
            )
        return [
            Arrival(_us_to_cycles(t_us, frequency_ghz), tenant=tenant)
            for t_us, tenant in entries[:n]
        ]

    def describe(self):
        return {"kind": self.kind, "path": self.path}

    def tenant_tags(self):
        return frozenset(
            tenant for _, tenant in load_schedule(self.path) if tenant is not None
        )


def _floats(args: str, spec: str, count: int) -> List[float]:
    parts = args.split(",") if args else []
    if len(parts) != count:
        raise ValueError(
            f"arrival spec {spec!r} needs {count} comma-separated "
            f"parameters, got {len(parts)}"
        )
    out = []
    for part in parts:
        try:
            out.append(float(part))
        except ValueError:
            raise ValueError(
                f"invalid arrival spec {spec!r}: {part!r} is not a number"
            ) from None
    return out


def parse_arrivals(text: str) -> ArrivalProcess:
    """Parse an arrival-process spec string.

    Accepted forms::

        closed
        poisson:<rate_per_s>
        onoff:<rate_on>,<rate_off>,<on_ms>,<off_ms>
        diurnal:<rate_per_s>,<period_ms>,<depth>
        zipf:<rate_per_s>,<s>,<tenants>
        replay:<path>
    """
    kind, _, args = text.partition(":")
    if kind == "closed":
        if args:
            raise ValueError(f"closed-loop arrivals take no parameters: {text!r}")
        return ClosedLoop()
    if kind == "poisson":
        (rate,) = _floats(args, text, 1)
        return PoissonArrivals(rate_per_s=rate)
    if kind == "onoff":
        rate_on, rate_off, on_ms, off_ms = _floats(args, text, 4)
        return OnOffArrivals(
            rate_on_per_s=rate_on, rate_off_per_s=rate_off,
            on_ms=on_ms, off_ms=off_ms,
        )
    if kind == "diurnal":
        rate, period_ms, depth = _floats(args, text, 3)
        return DiurnalArrivals(rate_per_s=rate, period_ms=period_ms, depth=depth)
    if kind == "zipf":
        rate, s, tenants = _floats(args, text, 3)
        if tenants != int(tenants):
            raise ValueError(f"tenant count must be an integer in {text!r}")
        return ZipfArrivals(rate_per_s=rate, s=s, tenants=int(tenants))
    if kind == "replay":
        if not args:
            raise ValueError(f"replay arrivals need a schedule path: {text!r}")
        return TraceReplay(path=args)
    raise ValueError(
        f"unknown arrival process {text!r}; expected closed, poisson:..., "
        "onoff:..., diurnal:..., zipf:..., or replay:<path>"
    )
