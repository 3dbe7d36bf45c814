"""TPC-C order-entry transactions on a MySQL/InnoDB-style engine.

Five transaction types with the paper's mix — new order 45%, payment 43%,
order status 4%, delivery 4%, stock level 4% — each with a distinctive
phase structure (B-tree descents with poor locality, row updates, log
writes, commit).  The distinct per-type CPI levels produce the multi-cluster
per-request CPI distribution of Figure 1, and the item-loop structure
produces the spiky intra-request CPI pattern of Figure 2 (a new-order
transaction executes ~1.4 M instructions).

Phase plans are declarative :class:`~repro.workloads.util.PhaseDef`
tables produced by pure functions (:func:`transaction_phase_defs` and the
new-order head/body split), compiled once into the block-stamping
templates of :mod:`repro.workloads.genfast`.  New-order is the one plan
with a mid-plan RNG draw — the item count is drawn *after* the parse
phase's jitters — so its defs are split into a head block and a
per-item-count body block to keep the reference draw order intact.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.workloads.genfast import (
    BlockAheadGenerator,
    FastRequestSpec,
    FastStage,
    choice_cdf,
    phase_block,
    template,
)
from repro.workloads.util import Jit, PhaseDef

#: (type name, probability) per the TPC-C mix reported in the paper.
TRANSACTION_MIX = (
    ("new_order", 0.45),
    ("payment", 0.43),
    ("order_status", 0.04),
    ("delivery", 0.04),
    ("stock_level", 0.04),
)

_DB_POOL = ("pread64", "pwrite64", "read")


def _parse(ins: int = 60_000) -> PhaseDef:
    return PhaseDef("parse_plan", ins, 0.12, 1.05, 0.08, 0.006, 0.12, 0.20, "read")


def _btree_lookup(tag: str, ins: int = 45_000, chatter: bool = True) -> PhaseDef:
    """Index descent: pointer chasing with poor locality (CPI spike)."""
    return PhaseDef(
        f"btree_{tag}", ins, 0.18, 1.50, 0.10, Jit(0.033, 0.12), 0.38, 0.55,
        None, (1 / 60_000) if chatter else 0.0, _DB_POOL if chatter else (),
    )


def _row_update(tag: str, ins: int = 55_000, chatter: bool = True) -> PhaseDef:
    return PhaseDef(
        f"update_{tag}", ins, 0.15, 1.10, 0.08, 0.014, 0.18, 0.35,
        None, (1 / 60_000) if chatter else 0.0, _DB_POOL if chatter else (),
    )


def _log_write(ins: int = 80_000) -> PhaseDef:
    return PhaseDef("log_write", ins, 0.12, 1.00, 0.08, 0.006, 0.10, 0.15, "write")


def _commit(ins: int = 40_000) -> PhaseDef:
    return PhaseDef("commit", ins, 0.12, 0.80, 0.08, 0.004, 0.08, 0.10, "fdatasync")


def _respond(ins: int = 25_000) -> PhaseDef:
    return PhaseDef("respond", ins, 0.12, 1.00, 0.08, 0.004, 0.08, 0.10, "write")


#: New-order defs before the item-count draw (parse only).
NEW_ORDER_HEAD: Tuple[PhaseDef, ...] = (_parse(),)


def new_order_body_defs(n_items: int) -> Tuple[PhaseDef, ...]:
    """New-order defs after the item-count draw: item loop + insert/commit."""
    defs: List[PhaseDef] = []
    for i in range(n_items):
        defs.append(_btree_lookup(f"item{i}"))
        defs.append(_row_update(f"stock{i}"))
    defs.append(_btree_lookup("district", ins=60_000))
    defs.append(_row_update("order_insert", ins=140_000))
    defs.append(_log_write())
    defs.append(_commit())
    defs.append(_respond())
    return tuple(defs)


def _payment_defs() -> Tuple[PhaseDef, ...]:
    return (
        _parse(ins=50_000),
        _btree_lookup("warehouse", ins=40_000),
        _btree_lookup("customer", ins=120_000),
        _row_update("balance", ins=90_000),
        _row_update("history_insert", ins=110_000),
        _log_write(ins=70_000),
        _commit(ins=35_000),
        _respond(),
    )


def _order_status_defs() -> Tuple[PhaseDef, ...]:
    return (
        _parse(ins=45_000),
        _btree_lookup("customer", ins=110_000),
        _btree_lookup("last_order", ins=90_000),
        PhaseDef("scan_order_lines", 180_000, 0.20, 1.50, 0.10, 0.024, 0.35, 0.60),
        _respond(ins=40_000),
    )


def _delivery_defs() -> Tuple[PhaseDef, ...]:
    defs: List[PhaseDef] = [_parse(ins=55_000)]
    for i in range(10):  # one order per district
        defs.append(_btree_lookup(f"oldest_order_d{i}", ins=110_000, chatter=False))
        defs.append(_row_update(f"deliver_d{i}", ins=240_000, chatter=False))
    defs.append(_log_write(ins=120_000))
    defs.append(_commit(ins=50_000))
    defs.append(_respond())
    return tuple(defs)


def _stock_level_defs() -> Tuple[PhaseDef, ...]:
    return (
        _parse(ins=50_000),
        _btree_lookup("district", ins=50_000),
        PhaseDef(
            "stock_join_scan", 4_500_000, 0.15, 1.45, 0.08,
            Jit(0.026, 0.10), 0.42, 0.75,
        ),
        _respond(ins=30_000),
    )


_FIXED_PLANS = {
    "payment": _payment_defs(),
    "order_status": _order_status_defs(),
    "delivery": _delivery_defs(),
    "stock_level": _stock_level_defs(),
}


def transaction_phase_defs(kind: str) -> Tuple[PhaseDef, ...]:
    """Full phase-def plan for the fixed-shape transaction types.

    ``new_order`` has no fixed plan (its item count is drawn mid-plan);
    use :data:`NEW_ORDER_HEAD` + :func:`new_order_body_defs` instead.
    """
    return _FIXED_PLANS[kind]


class TpccWorkload(BlockAheadGenerator):
    """Generator for TPC-C transactions."""

    name = "tpcc"
    sampling_period_us = 100.0
    window_instructions = 50_000
    kinds = tuple(t[0] for t in TRANSACTION_MIX)

    def __init__(self):
        super().__init__()
        self._mix_cdf = choice_cdf(np.array([t[1] for t in TRANSACTION_MIX]))
        self._fixed = {
            kind: template(
                ("tpcc", kind), lambda k=kind: phase_block(transaction_phase_defs(k))
            )
            for kind in _FIXED_PLANS
        }
        self._new_order_head = template(
            ("tpcc", "new_order_head"), lambda: phase_block(NEW_ORDER_HEAD)
        )

    def _draw_kind(self, rng: np.random.Generator) -> str:
        idx = int(self._mix_cdf.searchsorted(rng.random(), side="right"))
        return TRANSACTION_MIX[idx][0]

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> FastRequestSpec:
        """Stamp one request of transaction type ``kind``."""
        if kind == "new_order":
            phases = self._new_order_head.stamp(rng)
            n_items = int(rng.integers(8, 13))
            body = template(
                ("tpcc", "new_order_body", n_items),
                lambda: phase_block(new_order_body_defs(n_items)),
            )
            phases += body.stamp(rng)
        else:
            fixed = self._fixed.get(kind)
            if fixed is None:
                raise self._no_kind(kind)
            phases = fixed.stamp(rng)
        return FastRequestSpec(
            request_id, self.name, kind, (FastStage("mysql", phases),), {}
        )
