"""Incremental fixed-instruction windowing of a streaming counter feed.

Offline, :meth:`repro.kernel.tracker.RequestTrace.window_counters` resamples
a finished request's periods onto fixed instruction-count windows by linear
interpolation of the cumulative counters.  The streaming pipeline needs the
same view *while the request runs*, from period deltas arriving one at a
time, with O(1) state per request.  :class:`IncrementalWindower` does that:
each period's counters are apportioned linearly over the instruction span
it covers, and a full window is emitted every ``window_instructions``
retired instructions.

:meth:`IncrementalWindower.feed_counters` works on four bare floats and
emits ``(instructions, cycles, l2_refs, l2_misses)`` tuples — the
pipeline consumes thousands of periods per run and per-period dict
construction was a measurable share of its overhead.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

#: Counter fields carried through the windower, in canonical order.
COUNTER_FIELDS = ("instructions", "cycles", "l2_refs", "l2_misses")

#: One emitted window: counter sums in :data:`COUNTER_FIELDS` order.
Window = Tuple[float, float, float, float]

#: Shared empty result: most periods complete no window, and allocating a
#: fresh list for each of those was a measurable share of streaming cost.
_NO_WINDOWS: List[Window] = []


class IncrementalWindower:
    """Streams period counter deltas into fixed-instruction windows."""

    __slots__ = (
        "window_instructions", "_edge", "_fill", "_carry", "windows_emitted"
    )

    def __init__(self, window_instructions: float):
        if window_instructions <= 0:
            raise ValueError("window_instructions must be positive")
        self.window_instructions = float(window_instructions)
        # The fill at which the open window is complete: its size, less a
        # tolerance for float drift when a period lands exactly on an edge.
        self._edge = self.window_instructions - 1e-9
        self._fill = 0.0  # instructions accumulated in the open window
        self._carry = [0.0, 0.0, 0.0, 0.0]
        self.windows_emitted = 0

    def feed_counters(
        self,
        instructions: float,
        cycles: float,
        l2_refs: float,
        l2_misses: float,
    ) -> List[Window]:
        """Consume one period's counter deltas; return completed windows.

        The period's counters are spread linearly across the instruction
        span it covers (the incremental equivalent of interpolating the
        cumulative-counter curve at window edges).
        """
        carry = self._carry
        if instructions <= 0.0:
            # No instruction progress: fold the activity into the open
            # window without advancing the fill position.
            carry[1] += cycles
            carry[2] += l2_refs
            carry[3] += l2_misses
            return _NO_WINDOWS
        fill = self._fill + instructions
        if fill < self._edge:
            # The period completes no window: the loop's one step, which
            # takes the whole period at fraction x / x = 1.0.
            self._fill = fill
            carry[0] += instructions
            carry[1] += cycles
            carry[2] += l2_refs
            carry[3] += l2_misses
            return _NO_WINDOWS
        completed: Optional[List[Window]] = None
        window_instructions = self.window_instructions
        edge = self._edge
        fill = self._fill
        consumed = 0.0
        while instructions - consumed > 0.0:
            room = window_instructions - fill
            remaining = instructions - consumed
            take = room if room < remaining else remaining
            fraction = take / instructions
            carry[0] += instructions * fraction
            carry[1] += cycles * fraction
            carry[2] += l2_refs * fraction
            carry[3] += l2_misses * fraction
            fill += take
            consumed += take
            if fill >= edge:
                if completed is None:
                    completed = []
                completed.append(tuple(carry))
                self.windows_emitted += 1
                fill = 0.0
                carry[0] = carry[1] = carry[2] = carry[3] = 0.0
        self._fill = fill
        return _NO_WINDOWS if completed is None else completed

    def flush_counters(self) -> List[Window]:
        """Emit the trailing partial window if it is the request's only one.

        Mirrors the offline ``max(1, total // window)`` convention: a
        request shorter than one window still yields a single (short)
        window; otherwise the partial tail is dropped.
        """
        if self.windows_emitted == 0 and self._fill > 0.0:
            window = tuple(self._carry)
            self.windows_emitted += 1
            self._fill = 0.0
            self._carry = [0.0, 0.0, 0.0, 0.0]
            return [window]
        return []

    # -- checkpointing ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "window_instructions": self.window_instructions,
            "fill": self._fill,
            "carry": dict(zip(COUNTER_FIELDS, self._carry)),
            "windows_emitted": self.windows_emitted,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IncrementalWindower":
        windower = cls(float(state["window_instructions"]))
        windower._fill = float(state["fill"])
        windower._carry = [
            float(state["carry"][field]) for field in COUNTER_FIELDS
        ]
        windower.windows_emitted = int(state["windows_emitted"])
        return windower
