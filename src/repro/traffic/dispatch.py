"""Pluggable request-dispatch (placement) policies.

When a request stage becomes runnable, the simulator asks its dispatch
policy which core's runqueue should host it.  The policy sees the
candidate cores of the target machine and a :class:`QueueView` of the
current queue state; it must be deterministic given its seed, because
dispatch order is part of the byte-identity surface the golden and
differential suites pin.

``RoundRobinDispatch`` reproduces the simulator's historical per-machine
round-robin placement exactly, so the default configuration is
byte-identical to the pre-traffic-layer simulator.  The class-aware
policy is the PowerTracer-style placement the paper's online signatures
enable: requests of behavior classes with heavy observed service demand
are segregated from light ones, either from a supplied kind -> class map
or learned online from completion feedback.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Protocol, Sequence

import numpy as np

__all__ = [
    "ClassAwareDispatch",
    "DispatchPolicy",
    "JoinShortestQueue",
    "LeastOutstandingWork",
    "QueueView",
    "RandomDispatch",
    "RoundRobinDispatch",
    "parse_dispatch",
]

#: Domain-separation constant mixed into policy RNG streams so a seeded
#: policy never shares draws with the simulator's own generator.
_DISPATCH_STREAM = 0x0D15_7A7C


class QueueView(Protocol):
    """What a policy may observe about the queues at decision time."""

    def queue_depth(self, core_id: int) -> int:
        """Tasks waiting on the core's runqueue plus the running one."""
        ...

    def outstanding_work(self, core_id: int) -> float:
        """Remaining stage instructions queued + running on the core."""
        ...


class DispatchPolicy:
    """Base policy: where does a runnable request stage go?"""

    #: Registry/spec name (``rr``, ``jsq``, ...).
    name: str = "abstract"

    def reset(self, seed: int) -> None:
        """Clear per-run mutable state; called once per simulation."""

    def choose(
        self,
        machine_id: int,
        machine_cores: Sequence[int],
        spec,
        stage_index: int,
        view: QueueView,
    ) -> int:
        """Return the core (from ``machine_cores``) to enqueue on."""
        raise NotImplementedError

    def observe_completion(self, kind: str, cpu_time_us: float) -> None:
        """Completion feedback hook for learning policies."""

    def describe(self) -> dict:
        """JSON-serializable identity, for trace/result metadata."""
        return {"policy": self.name}


class RoundRobinDispatch(DispatchPolicy):
    """Per-machine round-robin (the historical placement, byte-identical)."""

    name = "rr"

    def __init__(self):
        self._machine_rr: Dict[int, int] = {}

    def reset(self, seed: int) -> None:
        self._machine_rr = {}

    def choose(self, machine_id, machine_cores, spec, stage_index, view):
        rr = self._machine_rr.get(machine_id, 0)
        self._machine_rr[machine_id] = rr + 1
        return machine_cores[rr % len(machine_cores)]


class RandomDispatch(DispatchPolicy):
    """Uniform random placement from a dedicated seeded stream."""

    name = "random"

    def __init__(self):
        self._rng = np.random.default_rng(0)

    def reset(self, seed: int) -> None:
        self._rng = np.random.default_rng([seed, _DISPATCH_STREAM])

    def choose(self, machine_id, machine_cores, spec, stage_index, view):
        return machine_cores[int(self._rng.integers(len(machine_cores)))]


class JoinShortestQueue(DispatchPolicy):
    """Join the candidate core with the fewest queued+running tasks.

    Ties break toward the lowest core id, keeping the decision a pure
    function of queue state.
    """

    name = "jsq"

    def choose(self, machine_id, machine_cores, spec, stage_index, view):
        return min(machine_cores, key=lambda cid: (view.queue_depth(cid), cid))


class LeastOutstandingWork(DispatchPolicy):
    """Join the core with the least remaining queued+running instructions.

    JSQ counts heads; this weighs them — a queue of two tiny requests is
    preferred over one giant one.
    """

    name = "low"

    def choose(self, machine_id, machine_cores, spec, stage_index, view):
        return min(
            machine_cores, key=lambda cid: (view.outstanding_work(cid), cid)
        )


class ClassAwareDispatch(DispatchPolicy):
    """Signature/class-aware placement.

    Requests are partitioned by behavior class and each class gets an
    affinity subset of the machine's cores (class ``c`` prefers cores
    whose index ``i`` satisfies ``i % groups == c % groups``), with
    join-shortest-queue inside the subset.  Keeping heavy classes off
    light classes' cores is the contention-easing placement the paper's
    online identification makes possible across tiers.

    Two ways to know a request's class:

    * an explicit ``classes`` map (request kind -> class index);
    * learned online — per-kind EWMA of observed CPU time from
      :meth:`observe_completion`, with kinds split into a heavy and a
      light class around the running median.

    Unknown kinds (and everything before the first completion) fall back
    to plain JSQ over all cores.
    """

    name = "classaware"

    def __init__(
        self,
        classes: Optional[Dict[str, int]] = None,
        ewma_alpha: float = 0.3,
    ):
        if not 0.0 < ewma_alpha <= 1.0:
            raise ValueError(f"ewma_alpha must be in (0, 1], got {ewma_alpha}")
        self.classes = dict(classes) if classes else None
        self.ewma_alpha = ewma_alpha
        self._service_ewma_us: Dict[str, float] = {}

    def reset(self, seed: int) -> None:
        self._service_ewma_us = {}

    def observe_completion(self, kind: str, cpu_time_us: float) -> None:
        previous = self._service_ewma_us.get(kind)
        if previous is None:
            self._service_ewma_us[kind] = float(cpu_time_us)
        else:
            self._service_ewma_us[kind] = (
                self.ewma_alpha * float(cpu_time_us)
                + (1.0 - self.ewma_alpha) * previous
            )

    def _class_of(self, kind: str) -> Optional[int]:
        if self.classes is not None:
            return self.classes.get(kind)
        if kind not in self._service_ewma_us or len(self._service_ewma_us) < 2:
            return None
        # Heavy/light split around the median observed service demand.
        demands = sorted(self._service_ewma_us.values())
        median = demands[len(demands) // 2]
        return 1 if self._service_ewma_us[kind] >= median else 0

    def _num_classes(self) -> int:
        if self.classes is not None:
            return max(self.classes.values()) + 1 if self.classes else 1
        return 2

    def choose(self, machine_id, machine_cores, spec, stage_index, view):
        cls = self._class_of(spec.kind)
        candidates: List[int] = list(machine_cores)
        if cls is not None and len(machine_cores) > 1:
            groups = min(self._num_classes(), len(machine_cores))
            if groups > 1:
                subset = [
                    cid
                    for i, cid in enumerate(machine_cores)
                    if i % groups == cls % groups
                ]
                if subset:
                    candidates = subset
        return min(candidates, key=lambda cid: (view.queue_depth(cid), cid))

    def describe(self):
        return {
            "policy": self.name,
            "classes": (
                dict(sorted(self.classes.items())) if self.classes else None
            ),
            "ewma_alpha": self.ewma_alpha,
        }


_POLICIES = {
    "rr": RoundRobinDispatch,
    "random": RandomDispatch,
    "jsq": JoinShortestQueue,
    "low": LeastOutstandingWork,
    "classaware": ClassAwareDispatch,
}


def parse_dispatch(text: str) -> DispatchPolicy:
    """Parse a dispatch-policy name into a fresh policy instance."""
    try:
        factory = _POLICIES[text]
    except KeyError:
        raise ValueError(
            f"unknown dispatch policy {text!r}; "
            f"available: {', '.join(sorted(_POLICIES))}"
        ) from None
    return factory()
