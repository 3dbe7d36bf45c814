"""Apache web server serving the SPECweb99 static content mix.

The paper's web workload is the static portion of SPECweb99: four file
classes spanning 100 bytes to 900 KB (200 MB total dataset).  Requests are
short — "a few hundred thousand instructions" — and issue system calls very
frequently (97% probability of a syscall within 16 us of any instant,
Figure 4).  The phase structure below encodes the request lifecycle whose
syscall-entry behavior transitions the paper trains on in Table 2:
``writev`` (HTTP header write, fragmented piecemeal memory accesses -> CPI
jumps up), ``stat``/``lseek`` (metadata / seek work -> CPI drops), ``poll``
(readiness wait -> CPI rises), etc.

The phase plan for a request is produced declaratively by
:func:`request_phase_defs` — a pure function of the file's size and
fingerprint with no main-RNG draws — compiled once per catalog file into
a :mod:`repro.workloads.genfast` template and stamped with per-request
jitter.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from repro.workloads.genfast import (
    BlockAheadGenerator,
    FastRequestSpec,
    FastStage,
    choice_cdf,
    phase_block,
    template,
)
from repro.workloads.util import PhaseDef

#: SPECweb99 static file classes: (class name, min bytes, max bytes, mix).
FILE_CLASSES = (
    ("class0", 100, 900, 0.35),
    ("class1", 1_000, 9_000, 0.50),
    ("class2", 10_000, 90_000, 0.14),
    ("class3", 100_000, 900_000, 0.01),
)

#: Instructions of copy/checksum work per transferred byte.
INS_PER_BYTE = 16.0
#: Bytes sent per write() chunk.
CHUNK_BYTES = 65_536

_IO_POOL = ("poll", "gettimeofday", "read")
_BODY_POOL = ("write", "sendfile64")

_IO_RATE = 1 / 9_000


class FileFingerprint(NamedTuple):
    """Stable per-file behavioral fingerprint (same file -> same costs)."""

    parse_scale: float
    meta_scale: float
    header_cpi: float
    parse_refs: float
    header_refs: float
    body_refs: float


def file_fingerprint(file_seed: int) -> FileFingerprint:
    """Derive a file's behavioral fingerprint from its catalog seed.

    URL/metadata handling costs vary per file but are stable across
    requests for the same file — which is what makes online signature
    identification of repeated requests possible (Figure 10).
    """
    file_rng = np.random.default_rng(file_seed)
    return FileFingerprint(
        parse_scale=float(file_rng.uniform(0.8, 1.25)),
        meta_scale=float(file_rng.uniform(0.75, 1.3)),
        header_cpi=float(file_rng.uniform(3.8, 4.8)),
        parse_refs=float(file_rng.uniform(0.003, 0.007)),
        header_refs=float(file_rng.uniform(0.014, 0.026)),
        body_refs=float(file_rng.uniform(0.012, 0.020)),
    )


def request_phase_defs(file_bytes: int, fp: FileFingerprint) -> Tuple[PhaseDef, ...]:
    """Phase-def plan for serving one file.  Pure; no main-RNG draws."""
    defs = [
        PhaseDef(
            "accept_parse", 25_000 * fp.parse_scale, 0.06, 1.00, 0.08,
            fp.parse_refs, 0.10, 0.15, "read", _IO_RATE, _IO_POOL,
        ),
        PhaseDef(
            "stat_file", 14_000 * fp.meta_scale, 0.06, 0.75, 0.08,
            0.002, 0.05, 0.05, "stat", _IO_RATE, _IO_POOL,
        ),
        PhaseDef(
            "open_file", 34_000 * fp.meta_scale, 0.06, 0.82, 0.08,
            0.003, 0.08, 0.05, "open", _IO_RATE, _IO_POOL,
        ),
        # HTTP header construction: the paper observes the writev entry
        # signals a large CPI increase (+3.66 +- 2.27 in Table 2).
        PhaseDef(
            "write_headers", 14_000 * fp.parse_scale, 0.08, fp.header_cpi, 0.06,
            fp.header_refs, 0.35, 0.10, "writev", _IO_RATE, _IO_POOL,
        ),
    ]

    remaining = file_bytes
    chunk_idx = 0
    while remaining > 0:
        chunk = min(remaining, CHUNK_BYTES)
        remaining -= chunk
        if chunk_idx > 0:
            # Between chunks of large files: wait for socket readiness
            # (poll -> CPI up) then reposition (lseek -> CPI down).
            defs.append(
                PhaseDef(
                    f"poll_wait_{chunk_idx}", 20_000, 0.25, 3.4, 0.15,
                    0.006, 0.15, 0.05, "poll", _IO_RATE, _IO_POOL,
                )
            )
            defs.append(
                PhaseDef(
                    f"seek_{chunk_idx}", 10_000, 0.25, 0.65, 0.10,
                    0.002, 0.05, 0.05, "lseek", _IO_RATE, _IO_POOL,
                )
            )
        body_ins = max(4_000, int(chunk * INS_PER_BYTE))
        defs.append(
            PhaseDef(
                f"send_body_{chunk_idx}", body_ins, 0.08, 1.35, 0.08,
                fp.body_refs, 0.25, 0.40, "write", 1 / 6_500, _BODY_POOL,
            )
        )
        chunk_idx += 1

    defs.append(
        PhaseDef(
            "shutdown_conn", 12_000, 0.20, 3.6, 0.12,
            0.004, 0.10, 0.05, "shutdown", _IO_RATE, _IO_POOL,
        )
    )
    defs.append(
        PhaseDef(
            "access_log", 12_000, 0.20, 1.30, 0.10,
            0.004, 0.10, 0.05, "write", _IO_RATE, _IO_POOL,
        )
    )
    return tuple(defs)


#: Index of each file class in :data:`FILE_CLASSES`, by class name.
_CLASS_INDEX = {c[0]: idx for idx, c in enumerate(FILE_CLASSES)}


class WebServerWorkload(BlockAheadGenerator):
    """Generator for Apache/SPECweb99 static requests.

    SPECweb99 serves a *fixed* dataset (200 MB in the paper's setup), so
    the same files recur across requests with Zipf-like popularity.  The
    generator materializes a per-class file catalog up front; each file
    carries a stable behavioral fingerprint (exact size, parse/metadata
    costs), which is what makes online signature identification of
    repeated requests possible (Figure 10).
    """

    name = "webserver"
    sampling_period_us = 10.0
    #: Fixed-instruction resampling window for metric series.
    window_instructions = 10_000
    kinds = tuple(c[0] for c in FILE_CLASSES)

    #: Catalog size per class and Zipf popularity exponent.
    files_per_class = 36
    zipf_exponent = 1.0

    def __init__(self, catalog_seed: int = 909_009):
        super().__init__()
        catalog_rng = np.random.default_rng(catalog_seed)
        self._catalog = {}
        ranks = np.arange(1, self.files_per_class + 1, dtype=float)
        weights = ranks**-self.zipf_exponent
        for cls_name, lo, hi, _ in FILE_CLASSES:
            sizes = catalog_rng.integers(lo, hi + 1, size=self.files_per_class)
            seeds = catalog_rng.integers(1, 2**31, size=self.files_per_class)
            self._catalog[cls_name] = list(zip(sizes.tolist(), seeds.tolist()))
        self._catalog_seed = catalog_seed
        mix = np.array([c[3] for c in FILE_CLASSES])
        self._cls_cdf = choice_cdf(mix / mix.sum())
        self._file_cdf = choice_cdf(weights / weights.sum())

    def _draw_kind(self, rng: np.random.Generator) -> str:
        return self.kinds[int(self._cls_cdf.searchsorted(rng.random(), side="right"))]

    def _build_template(self, kind, file_idx):
        file_bytes, file_seed = self._catalog[kind][file_idx]
        block = phase_block(
            request_phase_defs(file_bytes, file_fingerprint(file_seed))
        )
        return (block, file_bytes, f"{kind}/{file_idx}")

    def build(
        self, rng: np.random.Generator, request_id: int, kind: str
    ) -> FastRequestSpec:
        """Stamp one request for a file of class ``kind``; draws the file."""
        cls_idx = _CLASS_INDEX.get(kind)
        if cls_idx is None:
            raise self._no_kind(kind)
        file_idx = int(self._file_cdf.searchsorted(rng.random(), side="right"))
        block, file_bytes, file_id = template(
            ("webserver", self._catalog_seed, cls_idx, file_idx),
            lambda: self._build_template(kind, file_idx),
        )
        return FastRequestSpec(
            request_id,
            self.name,
            kind,
            (FastStage("apache", block.stamp(rng)),),
            {"file_bytes": file_bytes, "file_id": file_id},
        )
