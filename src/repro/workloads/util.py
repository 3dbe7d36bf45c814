"""The phase-def layer shared by the workload generators.

A :class:`PhaseDef` declares one phase's nominal parameters, with the
fields jittered per request marked by :class:`Jit`.  Each generator
module exports pure def producers (no main-RNG draws), and
:class:`repro.workloads.genfast.PhaseBlock` compiles them once into
vectorized jitter tables that consume one block-drawn normal array per
request.  :func:`phase` is the validating ``Phase`` constructor: the
microbenchmarks build their phases with it, and ``PhaseBlock`` runs
every def's nominal values through it at template build.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple, Union

from repro.hardware.cpu import PhaseBehavior
from repro.workloads.base import Phase


class Jit(NamedTuple):
    """Marks a per-request jittered field of a :class:`PhaseDef`."""

    base: float
    frac: float


class PhaseDef(NamedTuple):
    """Nominal parameters of one phase, before per-request jitter.

    ``instructions`` and ``cpi`` are always jittered (by ``ins_frac`` /
    ``cpi_frac``); ``refs`` is either a plain float (constant across
    requests) or a :class:`Jit`.  ``miss``/``footprint``/``entry``/
    ``rate``/``pool`` are template constants.
    """

    name: str
    instructions: float
    ins_frac: float
    cpi: float
    cpi_frac: float
    refs: Union[float, Jit]
    miss: float
    footprint: float
    entry: Optional[str] = None
    rate: float = 0.0
    pool: Tuple[str, ...] = ()


def phase(
    name: str,
    instructions: int,
    cpi: float,
    refs: float,
    miss: float,
    footprint: float,
    entry: Optional[str] = None,
    rate: float = 0.0,
    pool: Tuple[str, ...] = (),
) -> Phase:
    """Terse phase constructor used throughout the generators.

    Validates the behavior fields up front so a bad generator constant
    fails with the *phase name* attached instead of a bare
    ``PhaseBehavior`` field error.
    """
    if refs < 0 or miss < 0 or footprint < 0:
        raise ValueError(
            f"phase {name!r}: refs/miss/footprint must be non-negative "
            f"(got refs={refs}, miss={miss}, footprint={footprint})"
        )
    try:
        behavior = PhaseBehavior(
            base_cpi=cpi,
            l2_refs_per_ins=refs,
            l2_miss_ratio=miss,
            cache_footprint=footprint,
        )
    except ValueError as exc:
        raise ValueError(f"phase {name!r}: {exc}") from None
    return Phase(
        name=name,
        instructions=int(instructions),
        behavior=behavior,
        entry_syscall=entry,
        syscall_rate_per_ins=rate,
        syscall_pool=pool,
    )
