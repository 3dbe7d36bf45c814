"""The trained state of online request identification (Section 4.4).

:class:`OnlineIdentifier` fits a bank of representative request
signatures from completed traces, fixing the metric, window size,
unequal-length penalty and expensive/cheap threshold once, and hands the
bank to the streaming pipeline in the two forms its per-window prefix
sweep reads (:meth:`~OnlineIdentifier.prefix_rows`,
:meth:`~OnlineIdentifier.prefix_sweeper`).  Its state round-trips through
online checkpoints and serve bank files.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.distances import unequal_length_penalty
from repro.core.signatures import SignatureBank


class OnlineIdentifier:
    """A signature bank trained for online identification.

    Parameters mirror the paper's choices: the signature metric defaults
    to L2 references per instruction (it reflects inherent behavior rather
    than dynamic contention), differencing defaults to the cheap L1
    distance, and the expensive/cheap threshold defaults to the median CPU
    time of the training population.  The streaming pipeline
    (:class:`repro.online.pipeline.OnlinePipeline`) keeps one running L1
    prefix distance per signature, extended once per completed window,
    from the rows of :meth:`prefix_rows`, or from :meth:`prefix_sweeper`
    on banks of ``SWEEP_MIN_BANK`` signatures or more.
    """

    def __init__(
        self,
        metric: str = "l2_refs_per_ins",
        window_instructions: float = 100_000,
        method: str = "variation",
        threshold_us: Optional[float] = None,
        seed: int = 0,
    ):
        if window_instructions <= 0:
            raise ValueError("window_instructions must be positive")
        self.metric = metric
        self.window_instructions = float(window_instructions)
        self.method = method
        self._explicit_threshold = threshold_us
        self.threshold_us: Optional[float] = threshold_us
        self._seed = seed
        self._bank: Optional[SignatureBank] = None

    @property
    def is_fitted(self) -> bool:
        return self._bank is not None and len(self._bank) > 0

    def fit(self, traces: Sequence) -> "OnlineIdentifier":
        """Build the signature bank from completed request traces."""
        if not traces:
            raise ValueError("need at least one training trace")
        patterns = [
            t.series(self.metric, self.window_instructions).values for t in traces
        ]
        cpu_times = np.array([t.cpu_time_us() for t in traces])
        if self._explicit_threshold is None:
            self.threshold_us = float(np.median(cpu_times))
        rng = np.random.default_rng(self._seed)
        if sum(p.size for p in patterns) < 2:
            raise ValueError("training traces too short for signatures")
        penalty = unequal_length_penalty(np.concatenate(patterns), rng)
        bank = SignatureBank(penalty=penalty, method=self.method)
        for pattern, cpu, trace in zip(patterns, cpu_times, traces):
            bank.add(pattern, cpu, label=trace.spec.kind)
        self._bank = bank
        return self

    def prefix_rows(self) -> tuple:
        """Bank rows + penalty for incremental per-window prefix sweeps
        (see :meth:`repro.core.signatures.SignatureBank.prefix_rows`)."""
        if not self.is_fitted:
            raise RuntimeError("identifier not fitted; call fit() first")
        return self._bank.prefix_rows()

    def prefix_sweeper(self) -> tuple:
        """``(sweeper, labels)`` for vectorized incremental prefix sweeps
        over large banks (see
        :meth:`repro.core.signatures.SignatureBank.prefix_sweeper`)."""
        if not self.is_fitted:
            raise RuntimeError("identifier not fitted; call fit() first")
        return self._bank.prefix_sweeper()

    def to_state(self) -> dict:
        """JSON-ready snapshot of the fitted identifier (for checkpoints)."""
        return {
            "metric": self.metric,
            "window_instructions": self.window_instructions,
            "method": self.method,
            "threshold_us": self.threshold_us,
            "explicit_threshold": self._explicit_threshold,
            "seed": self._seed,
            "bank": self._bank.to_state() if self._bank is not None else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineIdentifier":
        identifier = cls(
            metric=state["metric"],
            window_instructions=state["window_instructions"],
            method=state["method"],
            threshold_us=state["explicit_threshold"],
            seed=state["seed"],
        )
        identifier.threshold_us = state["threshold_us"]
        if state["bank"] is not None:
            identifier._bank = SignatureBank.from_state(state["bank"])
        return identifier

