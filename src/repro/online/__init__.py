"""Streaming online-analysis runtime over the simulator's event stream.

Everything in :mod:`repro.core` operates on *finished* request traces; this
package runs the paper's online claims the way a production server would —
incrementally, on live per-request sample events, with bounded memory:

* :mod:`repro.online.windows` — incremental fixed-instruction windowing of
  the streaming counter feed;
* :mod:`repro.online.pipeline` — the three-stage pipeline (prefix
  identification with commit tracking, per-class vaEWMA prediction error,
  centroid/quantile anomaly detection scored against injected faults);
* :mod:`repro.online.checkpoint` — versioned JSON snapshots with a
  byte-identical restore contract;
* :mod:`repro.online.report` — the scored detection report;
* :mod:`repro.online.cli` — the ``repro-online`` entry point.
"""

from repro.online.checkpoint import (
    checkpoint_from_json,
    checkpoint_to_json,
    load_checkpoint,
    save_checkpoint,
)
from repro.online.pipeline import OnlineConfig, OnlinePipeline, train_identifier
from repro.online.report import DetectionReport, build_report
from repro.online.windows import IncrementalWindower

__all__ = [
    "DetectionReport",
    "IncrementalWindower",
    "OnlineConfig",
    "OnlinePipeline",
    "build_report",
    "checkpoint_from_json",
    "checkpoint_to_json",
    "load_checkpoint",
    "save_checkpoint",
    "train_identifier",
]
