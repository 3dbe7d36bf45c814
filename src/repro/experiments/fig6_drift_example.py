"""Figure 6: two inherently similar TPCC requests drifting apart.

The paper illustrates why plain L1 differencing over-estimates: two
"new order" transactions with the same inherent behavior drift apart
slightly (shifted CPI peaks) after about 800,000 instructions — e.g. from
lock contention or imperfect request-context maintenance.  Dynamic time
warping absorbs the shift through asynchronous steps; the L1 distance
charges for every shifted peak.

The reproduction constructs the pair explicitly: one new-order transaction,
and the same transaction with a small lock-wait stall inserted at ~0.8 M
instructions (shifting every later peak), then compares the differencing
measures.  As a control, a genuinely different request (another transaction
type) shows that DTW with the asynchrony penalty still separates genuinely
different requests while forgiving the drift pair.
"""

from __future__ import annotations

import numpy as np

from repro.core.distances import l1_distance
from repro.core.dtw import dtw_distance
from repro.experiments.base import ExperimentResult
from repro.hardware.cpu import PhaseBehavior
from repro.workloads.base import Phase, RequestSpec, single_stage
from repro.workloads.tpcc import TpccWorkload

#: Fixed-instruction window for the CPI sequences (matches TPCC's 50 k).
WINDOW = 50_000


def build_drift_pair(seed: int = 91):
    """A new-order request and its drifted twin (stall at ~0.8 M ins)."""
    workload = TpccWorkload()
    base = workload.build(np.random.default_rng(seed), 0, "new_order")

    phases = list(base.phases())
    drifted_phases = []
    consumed = 0
    inserted = False
    for p in phases:
        drifted_phases.append(p)
        consumed += p.instructions
        if not inserted and consumed >= 800_000:
            drifted_phases.append(
                Phase(
                    name="lock_wait_stall",
                    instructions=70_000,
                    behavior=PhaseBehavior(
                        base_cpi=2.6,  # spinning/futex retry path
                        l2_refs_per_ins=0.004,
                        l2_miss_ratio=0.10,
                        cache_footprint=0.05,
                    ),
                )
            )
            inserted = True
    drifted = RequestSpec(
        request_id=1,
        app="tpcc",
        kind="new_order",
        stages=single_stage("mysql", drifted_phases),
    )
    control = workload.build(np.random.default_rng(seed + 7), 2, "payment")
    return base, drifted, control


def run(scale: float = 1.0, seed: int = 91) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="fig6",
        title="Two similar TPCC requests drifting apart after ~0.8M instructions",
    )
    base, drifted, control = build_drift_pair(seed)
    series = {
        "base": base.solo_series(WINDOW),
        "drifted": drifted.solo_series(WINDOW),
        "control(payment)": control.solo_series(WINDOW),
    }
    penalty = float(
        np.percentile(
            np.abs(np.subtract.outer(series["base"], series["base"])).ravel(), 99
        )
    )
    for other in ("drifted", "control(payment)"):
        x, y = series["base"], series[other]
        result.rows.append(
            {
                "pair": f"base vs {other}",
                "len_x": x.size,
                "len_y": y.size,
                "l1": l1_distance(x, y, penalty=penalty),
                "dtw": dtw_distance(x, y),
                "dtw+penalty": dtw_distance(x, y, asynchrony_penalty=penalty),
            }
        )
    drift_row, control_row = result.rows
    result.notes.append(
        "paper: the executions drift apart slightly (shifted peaks) after "
        "~800,000 instructions; L1 over-estimates the drift pair's "
        "difference while DTW absorbs the shift — measured L1 "
        f"{drift_row['l1']:.1f} vs DTW+penalty {drift_row['dtw+penalty']:.1f}"
    )
    result.notes.append(
        "control: a genuinely different transaction stays far under every "
        "measure that sees variation patterns — DTW+penalty "
        f"{control_row['dtw+penalty']:.1f} (drift pair "
        f"{drift_row['dtw+penalty']:.1f})"
    )
    return result
