"""The trained state of online request identification (Section 4.4).

:class:`OnlineIdentifier` fits a bank of representative request
signatures from completed traces, fixing the window size and the
unequal-length penalty once, and hands the bank to the streaming pipeline
in the two forms its per-window prefix sweep reads
(:meth:`~OnlineIdentifier.prefix_rows`,
:meth:`~OnlineIdentifier.prefix_sweeper`).  Its state round-trips through
online checkpoints and serve bank files.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.distances import unequal_length_penalty
from repro.core.signatures import SignatureBank

#: The metric signatures are built from, and the one the streaming
#: pipeline extends a request's pattern with: L2 references per
#: instruction reflect inherent behavior rather than dynamic contention.
IDENTIFY_METRIC = "l2_refs_per_ins"


class OnlineIdentifier:
    """A signature bank trained for online identification.

    The paper's choices are fixed: signatures are
    :data:`IDENTIFY_METRIC` variation patterns, and the streaming
    pipeline (:class:`repro.online.pipeline.OnlinePipeline`) matches them
    by L1 prefix distance, keeping one running distance per signature,
    extended once per completed window, from the rows of
    :meth:`prefix_rows`, or from :meth:`prefix_sweeper` on banks of
    ``SWEEP_MIN_BANK`` signatures or more.  ``seed`` draws the
    unequal-length penalty.
    """

    def __init__(self, window_instructions: float = 100_000, seed: int = 0):
        if not window_instructions > 0:
            raise ValueError("window_instructions must be positive")
        self.window_instructions = float(window_instructions)
        self._seed = seed
        self._bank = None

    @property
    def is_fitted(self) -> bool:
        return self._bank is not None and len(self._bank) > 0

    def fit(self, traces: Sequence) -> "OnlineIdentifier":
        """Build the signature bank from completed request traces."""
        if not traces:
            raise ValueError("need at least one training trace")
        patterns = [
            t.series(IDENTIFY_METRIC, self.window_instructions).values
            for t in traces
        ]
        rng = np.random.default_rng(self._seed)
        if sum(p.size for p in patterns) < 2:
            raise ValueError("training traces too short for signatures")
        penalty = unequal_length_penalty(np.concatenate(patterns), rng)
        bank = SignatureBank(penalty=penalty)
        for pattern, trace in zip(patterns, traces):
            bank.add(pattern, trace.cpu_time_us(), label=trace.spec.kind)
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
            "window_instructions": self.window_instructions,
            "seed": self._seed,
            "bank": self._bank.to_state() if self._bank is not None else None,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineIdentifier":
        """Rebuild from :meth:`to_state`; a missing or malformed field
        raises :class:`ValueError` naming it."""

        def read(name, build):
            if name not in state:
                raise ValueError(f"identifier state has no {name!r} field")
            try:
                return build(state[name])
            except (AttributeError, KeyError, TypeError, ValueError) as error:
                raise ValueError(
                    f"identifier field {name!r} is malformed: {error!r}"
                ) from None

        identifier = cls(
            window_instructions=read("window_instructions", float),
            seed=read("seed", int),
        )
        identifier._bank = read(
            "bank",
            lambda bank: None if bank is None else SignatureBank.from_state(bank),
        )
        return identifier
