"""``repro.serve`` — the live sharded multi-client analysis service.

The streaming runtime (:mod:`repro.online`) consumes one event stream
in-process.  This package promotes it to an actual service: N simulated
application instances stream canonical-JSONL obs events over asyncio
sockets to a sharded pool of :class:`~repro.online.pipeline.OnlinePipeline`
workers, routed by consistent hashing on request id, with credit-based
backpressure, periodic worker checkpointing (the byte-identical
``repro-online-checkpoint`` format) and kill/failover, and an
aggregation tier merging per-worker detection reports into a fleet-wide
view.

Layers, bottom up:

* :mod:`repro.serve.protocol` — length-prefixed wire frames with a
  protocol-version handshake and loud malformed-frame errors;
* :mod:`repro.serve.router` — the consistent-hash ring assigning request
  ids to worker shards (minimal movement on add/remove);
* :mod:`repro.serve.worker` — the shard worker: per-instance pipelines,
  periodic atomic checkpoints, decision logs, worker reports;
* :mod:`repro.serve.instance` — the simulated application instance and
  its streaming client (retained-tail replay across reconnects);
* :mod:`repro.serve.aggregator` — fleet-wide merge of worker reports
  (canonical JSON + ASCII render);
* :mod:`repro.serve.service` — subprocess worker pool, failover
  supervisor, and the load-test harness;
* :mod:`repro.serve.cli` — the ``repro-serve`` command (serve /
  load-test / report).

Determinism contract: per-instance decision streams — and the aggregated
fleet report — are a pure function of the instance specs and seeds.
Killing a worker mid-run and letting failover replay the tail yields
byte-identical decisions (see ``tests/serve/test_failover.py``).
"""

from repro.serve.aggregator import FleetReport, merge_worker_reports
from repro.serve.protocol import PROTOCOL_VERSION, PeerClosedError, ProtocolError
from repro.serve.router import HashRing

__all__ = [
    "FleetReport",
    "HashRing",
    "PROTOCOL_VERSION",
    "PeerClosedError",
    "ProtocolError",
    "merge_worker_reports",
]
