"""Online request signature identification (Section 4.4).

The system maintains a bank of representative request signatures — the
paper uses the variation pattern of L2 references per instruction, a metric
that reflects inherent request behavior rather than dynamic L2-contention
effects.  Shortly after a request begins, its partial variation pattern is
matched against same-length prefixes of the bank signatures (L1 distance,
chosen for its low online cost); the nearest signature's recorded property
predicts the new request's property (here: whether its CPU consumption will
land above or below the workload median).

Figure 10's baseline, the prior average-value signature (``method=
"average"``), compares mean metric values instead: one
:func:`~repro.core.distances.average_metric_distance` per bank signature,
computed directly rather than through the distance engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.distances import average_metric_distance
from repro.core.kernels import PaddedBank, PrefixL1Sweeper, l1_prefix_distances


@dataclass(frozen=True)
class Signature:
    """One bank entry: a metric variation pattern plus request properties."""

    values: np.ndarray
    cpu_time_us: float
    label: Optional[str] = None


@dataclass(frozen=True)
class BankMatch:
    """A scored identification: the winning signature plus its evidence.

    ``margin`` (runner-up distance minus best distance) is the online
    pipeline's confidence signal: a commit-worthy match separates itself
    from the rest of the bank, not merely from nothing.
    """

    signature: Signature
    index: int
    distance: float
    runner_up_distance: float

    @property
    def margin(self) -> float:
        return self.runner_up_distance - self.distance


class SignatureBank:
    """A bank of representative request signatures."""

    def __init__(self, penalty: float, method: str = "variation"):
        """``method`` selects the differencing used for identification:

        * ``"variation"`` — L1 distance of metric variation patterns
          (the paper's contribution), one vectorized numpy pass over the
          whole bank (:func:`~repro.core.kernels.l1_prefix_distances`);
        * ``"average"`` — difference of average metric values (the prior
          signature form the paper compares against), one
          :func:`~repro.core.distances.average_metric_distance` per
          signature.
        """
        if method not in ("variation", "average"):
            raise ValueError(f"unknown method {method!r}")
        if penalty < 0:
            raise ValueError("penalty must be non-negative")
        self._signatures: List[Signature] = []
        self._penalty = penalty
        self._method = method
        self._stack: Optional[PaddedBank] = None
        self._rows: Optional[list] = None

    def __len__(self) -> int:
        return len(self._signatures)

    def add(self, values, cpu_time_us: float, label: Optional[str] = None) -> None:
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            raise ValueError("empty signature")
        self._signatures.append(
            Signature(values=values, cpu_time_us=float(cpu_time_us), label=label)
        )
        self._stack = None
        self._rows = None

    def padded_bank(self) -> PaddedBank:
        """Bank signatures as one shared pad-and-mask stack (cached).

        The same :class:`~repro.core.kernels.PaddedBank` structure the
        batched DTW kernels use; here it backs the vectorized L1 prefix
        sweeps.
        """
        if not self._signatures:
            raise ValueError("empty signature bank")
        if self._stack is None:
            self._stack = PaddedBank([s.values for s in self._signatures])
        return self._stack

    def _variation_distances(self, partial: np.ndarray) -> np.ndarray:
        """L1 prefix distances of ``partial`` against every bank signature.

        One vectorized kernel pass equivalent to ``l1_distance(partial,
        s.values[:partial.size], penalty)`` per signature (see
        :func:`repro.core.kernels.l1_prefix_distances`).
        """
        return l1_prefix_distances(self.padded_bank(), partial, self._penalty)

    def identify(self, partial_values) -> Signature:
        """Best-matching bank signature for a partial variation pattern.

        Bank signatures are compared over the prefix of the partial
        pattern's length: an online identification can only use the
        execution observed so far.
        """
        return self.match(partial_values).signature

    def match(self, partial_values) -> BankMatch:
        """Identify with scores: best signature, distance, and runner-up.

        Every prefix is matched from scratch, as Figure 10's evaluation
        does; the streaming pipeline instead extends running distances
        window by window from :meth:`prefix_rows` or
        :meth:`prefix_sweeper`.  The runner-up distance lets callers turn
        raw distances into a confidence margin without a second sweep.
        """
        if not self._signatures:
            raise ValueError("empty signature bank")
        partial = np.asarray(partial_values, dtype=float)
        if partial.size == 0:
            raise ValueError("empty partial pattern")
        if self._method == "variation":
            distances = self._variation_distances(partial)
        else:
            distances = np.array(
                [
                    average_metric_distance(partial, s.values[: partial.size])
                    for s in self._signatures
                ]
            )
        # First minimum — the same tie-breaking as a strict `<` scan.
        best = int(np.argmin(distances))
        if distances.size > 1:
            # Second order statistic == min over everything but `best`
            # (ties make them equal either way); avoids np.delete's copy.
            runner_up = float(np.partition(distances, 1)[1])
        else:
            runner_up = float("inf")
        return BankMatch(
            signature=self._signatures[best],
            index=best,
            distance=float(distances[best]),
            runner_up_distance=runner_up,
        )

    def prefix_rows(self) -> tuple:
        """``(rows, penalty)`` for caller-maintained incremental sweeps.

        ``rows`` is the plain ``(values_list, length, label)`` form of the
        bank.  A streaming consumer that extends a partial pattern one
        value at a time can keep a running distance per row — adding
        ``|x - values[w]|`` while ``w < length`` and ``penalty`` beyond —
        and read the winner in O(bank) per window instead of re-sweeping
        the whole prefix.
        """
        if not self._signatures:
            raise ValueError("empty signature bank")
        if self._rows is None:
            self._rows = [
                (s.values.tolist(), s.values.size, s.label)
                for s in self._signatures
            ]
        return self._rows, self._penalty

    def prefix_sweeper(self) -> tuple:
        """``(sweeper, labels)`` for vectorized incremental prefix sweeps.

        The numpy counterpart of :meth:`prefix_rows` for large banks: a
        :class:`~repro.core.kernels.PrefixL1Sweeper` extends a running
        per-signature distance vector in one O(bank) vectorized update
        per window, bit-identical to the scalar accumulation.
        """
        sweeper = PrefixL1Sweeper(self.padded_bank(), self._penalty)
        return sweeper, [s.label for s in self._signatures]

    def predict_cpu_above(self, partial_values, threshold_us: float) -> bool:
        """Predict whether the request's CPU usage will exceed ``threshold_us``."""
        return self.identify(partial_values).cpu_time_us > threshold_us

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        """JSON-ready snapshot (floats round-trip exactly through json)."""
        return {
            "penalty": self._penalty,
            "method": self._method,
            "signatures": [
                {
                    "values": [float(v) for v in s.values],
                    "cpu_time_us": s.cpu_time_us,
                    "label": s.label,
                }
                for s in self._signatures
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "SignatureBank":
        bank = cls(penalty=float(state["penalty"]), method=state["method"])
        for entry in state["signatures"]:
            bank.add(entry["values"], entry["cpu_time_us"], label=entry["label"])
        return bank


@dataclass
class RecentPastPredictor:
    """The conventional transparent baseline: recent past workloads.

    Without online information about an incoming request, the CPU usage of
    each request is estimated as the average consumption of the last
    ``window`` completed requests.
    """

    window: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        self._recent: List[float] = []

    def observe_completion(self, cpu_time_us: float) -> None:
        self._recent.append(float(cpu_time_us))
        if len(self._recent) > self.window:
            self._recent.pop(0)

    def predict_cpu_above(self, threshold_us: float) -> Optional[bool]:
        if not self._recent:
            return None
        return float(np.mean(self._recent)) > threshold_us


def prediction_error_curve(
    bank: SignatureBank,
    test_patterns: Sequence[np.ndarray],
    test_cpu_times: Sequence[float],
    threshold_us: float,
    prefix_lengths: Sequence[int],
) -> np.ndarray:
    """Misprediction rate vs. observed execution prefix (Figure 10).

    ``prefix_lengths[k]`` is the number of leading windows available at
    evaluation point ``k``; the error is the fraction of test requests
    whose above/below-median CPU prediction is wrong.
    """
    if len(test_patterns) != len(test_cpu_times):
        raise ValueError("test inputs must align")
    errors = np.zeros(len(prefix_lengths))
    for k, n_windows in enumerate(prefix_lengths):
        if n_windows < 1:
            raise ValueError("prefix lengths must be positive")
        wrong = 0
        for pattern, cpu in zip(test_patterns, test_cpu_times):
            prefix = np.asarray(pattern, dtype=float)[:n_windows]
            predicted = bank.predict_cpu_above(prefix, threshold_us)
            actual = cpu > threshold_us
            wrong += predicted != actual
        errors[k] = wrong / len(test_patterns)
    return errors
