"""The end-to-end benchmark's five workloads.

Each workload builds its inputs from the seed in :meth:`Scenario.setup`,
runs one fixed-size round of program work in :meth:`Scenario.execute`
(the only code the benchmark times), and checks and hashes that round's
outputs in :meth:`Scenario.inspect`.  Every round of a run repeats the
same inputs, so every round must produce the same digest.

``repro`` is imported inside the methods, never at module level, so a
set-up measured in a fresh process includes importing the program.
Modelled L2 caches start empty in every simulation (each builds a fresh
``SimConfig``); nothing is warmed before statistics are taken.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Composable fault schedules (see docs/faults.md) for the analysis
#: workloads: faults give the detector and attributor something to find.
ONLINE_FAULTS = "lock_stall:0.1+cache_thrash:0.1+gc_pause:0.05"
SERVE_FAULTS = "lock_stall:0.1+gc_pause:0.05"


@dataclass
class Round:
    """One round's checked outcome."""

    kind: str
    traced: bool
    wall_s: float
    #: Work items the round completed (requests, events, distance pairs).
    items: int
    #: Seconds the throughput metric divides ``items`` by.
    busy_s: float
    digest: str
    problems: List[str] = field(default_factory=list)
    #: Per-layer counts and other per-round numbers, by metric name.
    values: Dict[str, float] = field(default_factory=dict)
    #: Machine speed while the round ran, relative to the reference
    #: speed (below 1 on a slowed-down host); set by ``run.py``.
    speed: float = 1.0
    #: Per-response latencies (ms), pooled across rounds for tails.
    latencies: List[float] = field(default_factory=list)


class Scenario:
    """One benchmark workload: seeded inputs, a round, its checks."""

    name = ""
    why = ""
    #: Round kinds a run cycles through; the first one is also the
    #: warm-up round's and the one traced for per-layer numbers.
    kinds = ("main",)
    #: Name of the workload-specific throughput metric in the report.
    throughput_name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work_dir = work_dir

    def setup(self) -> None:
        pass

    def input_digest(self) -> str:
        raise NotImplementedError

    def execute(self, kind: str, tracer):
        raise NotImplementedError

    def inspect(self, kind: str, outputs, wall_s: float, traced: bool) -> Round:
        raise NotImplementedError

    # Per-round end-to-end values (None: the round's kind does not
    # count toward the metric).  Host times are scaled to the reference
    # machine speed.

    def throughput(self, r: Round) -> Optional[float]:
        """Work items per second of the round's busy time."""
        return r.items / (r.busy_s * r.speed)

    def latency_ms(self, r: Round) -> Optional[float]:
        """Host latency of one response: one whole round here."""
        return r.wall_s * r.speed * 1e3

    def raw_throughput(self, r: Round) -> Optional[float]:
        """Unscaled work items per second, as a user on this host sees it."""
        return r.items / r.busy_s

    def report(self, rounds: List[Round]) -> Dict[str, tuple]:
        """Workload-specific named metrics: name -> (value, unit)."""
        return {}

    def layer_extras(self, rounds: List[Round]) -> Dict[str, float]:
        """Per-layer values taken from untraced rounds."""
        return {}

    def close(self) -> None:
        pass


# -- simulation workloads -------------------------------------------------

def _hash_sim(h, result) -> None:
    """Feed one simulation's counters, cycles and latency summary to ``h``."""
    h.update(
        repr(
            (
                result.workload_name,
                result.wall_cycles,
                result.requests_shed,
                sorted(result.sampler_stats.as_dict().items()),
                sorted(getattr(result.scheduler, "stats", {}).items()),
            )
        ).encode()
    )
    h.update(result.busy_cycles_per_core.tobytes())
    h.update(result.timeline_cycles.tobytes())
    for trace in result.traces:
        h.update(
            repr(
                (
                    trace.spec.request_id,
                    trace.spec.kind,
                    trace.arrival_cycle,
                    trace.completion_cycle,
                )
            ).encode()
        )
        for array in (
            trace.start, trace.end, trace.core, trace.raw_instructions,
            trace.raw_cycles, trace.raw_l2_refs, trace.raw_l2_misses,
        ):
            h.update(array.tobytes())
    if result.latency is not None:
        h.update(json.dumps(result.latency.summary(), sort_keys=True).encode())


class _Simulation(Scenario):
    """Rounds of whole simulations; throughput is simulated requests/s."""

    throughput_name = "sim_requests_per_s"
    #: (app, requests offered) per simulation in one round.
    PLAN: tuple = ()

    def input_digest(self) -> str:
        return hashlib.sha256(repr((self.name, self.seed, self.PLAN)).encode()).hexdigest()

    def inspect(self, kind, results, wall_s, traced) -> Round:
        h = hashlib.sha256()
        problems = []
        samples = dispatches = preemptions = 0
        records = shed = completed = 0
        for (app, offered), result in zip(self.PLAN, results):
            _hash_sim(h, result)
            done = len(result.traces)
            completed += done
            shed += result.requests_shed
            if done + result.requests_shed != offered:
                problems.append(
                    f"{app}: completed {done} + shed {result.requests_shed} "
                    f"!= offered {offered}"
                )
            if result.latency is not None:
                records += result.latency.completed
                if result.latency.completed != done:
                    problems.append(f"{app}: latency records != completed")
            samples += result.sampler_stats.total_samples
            stats = getattr(result.scheduler, "stats", {})
            dispatches += stats.get("dispatches", 0)
            preemptions += stats.get("preemptions", 0)
        return Round(
            kind=kind, traced=traced, wall_s=wall_s, items=completed,
            busy_s=wall_s, digest=h.hexdigest(), problems=problems,
            values={
                "kernel.samples": samples,
                "kernel.dispatches": dispatches,
                "kernel.preemptions": preemptions,
                "traffic.latency_records": records,
                "traffic.shed": shed,
            },
        )


class SimClosed(_Simulation):
    name = "sim_closed"
    why = (
        "closed loop over all five server apps: kernel and block-ahead "
        "generation do the work; traffic, online, core and serve stay idle"
    )
    #: Requests per app per round (8 closed-loop clients each).
    PLAN = (("tpcc", 400), ("webserver", 400), ("tpch", 200), ("rubis", 300),
            ("webwork", 60))

    def execute(self, kind, tracer):
        from repro.kernel.sampling import SamplingPolicy
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.workloads.registry import make_workload

        results = []
        for app, requests in self.PLAN:
            workload = make_workload(app)
            config = SimConfig(
                sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
                num_requests=requests,
                concurrency=8,
                seed=self.seed,
            )
            results.append(ServerSimulator(workload, config).run())
        return results


class SimOpen(_Simulation):
    name = "sim_open"
    why = (
        "open-loop Poisson tpcc just above capacity with jsq dispatch, "
        "shedding, syscall sampling and contention easing: per-request "
        "generation path, traffic layer and latency store"
    )
    PLAN = (("tpcc", 1000),)
    ARRIVALS = "poisson:2400"
    DISPATCH = "jsq"
    ADMISSION_LIMIT = 32
    SAMPLING = (8.0, 60.0)

    def execute(self, kind, tracer):
        from repro.kernel.contention import ContentionEasingScheduler
        from repro.kernel.sampling import SamplingPolicy
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.traffic import TrafficConfig, parse_arrivals, parse_dispatch
        from repro.workloads.registry import make_workload

        ((app, requests),) = self.PLAN
        config = SimConfig(
            sampling=SamplingPolicy.syscall_triggered(*self.SAMPLING),
            scheduler=ContentionEasingScheduler(
                high_usage_threshold=0.01, adaptive_threshold=True
            ),
            num_requests=requests,
            concurrency=8,
            seed=self.seed,
            traffic=TrafficConfig(
                arrivals=parse_arrivals(self.ARRIVALS),
                dispatch=parse_dispatch(self.DISPATCH),
                admission_limit=self.ADMISSION_LIMIT,
            ),
        )
        return [ServerSimulator(make_workload(app), config).run()]

    def inspect(self, kind, results, wall_s, traced):
        round_ = super().inspect(kind, results, wall_s, traced)
        summary = results[0].latency.summary()
        round_.values["sim_latency_p99_us"] = summary["latency_us"]["p99"]
        round_.values["sim_shed_frac"] = summary["shed"] / self.PLAN[0][1]
        return round_

    def report(self, rounds):
        first = rounds[0].values
        return {
            "sim_latency_p99_us": (first["sim_latency_p99_us"], "us"),
            "sim_shed_frac": (first["sim_shed_frac"], "frac"),
        }


# -- online replay ----------------------------------------------------------

class OnlineReplay(Scenario):
    name = "online_replay"
    why = (
        "replays a recorded faulted tpcc event stream through a fresh "
        "online pipeline with attribution: the online layer does the work"
    )
    throughput_name = "online_events_per_s"
    REQUESTS = 1500
    TRAIN = 24

    def setup(self):
        from repro.kernel.sampling import SamplingPolicy
        from repro.kernel.simulator import ServerSimulator, SimConfig
        from repro.obs.trace import TraceCollector
        from repro.online.pipeline import SUBSCRIBED_KINDS, train_identifier
        from repro.workloads.registry import make_faulted_workload, make_workload

        workload = make_faulted_workload("tpcc", ONLINE_FAULTS)
        collector = TraceCollector(capacity=None, kinds=SUBSCRIBED_KINDS)
        ServerSimulator(
            workload,
            SimConfig(
                sampling=SamplingPolicy.interrupt(workload.sampling_period_us),
                num_requests=self.REQUESTS,
                concurrency=8,
                seed=self.seed,
                collector=collector,
            ),
        ).run()
        self.events = collector.events
        self.completed = sum(e.kind == "request_completed" for e in self.events)
        self.identifier = train_identifier(
            make_workload("tpcc"), num_requests=self.TRAIN, seed=self.seed + 10_000
        )

    def input_digest(self):
        h = hashlib.sha256()
        for event in self.events:
            h.update(json.dumps(event.to_dict(), sort_keys=True).encode())
        h.update(json.dumps(self.identifier.to_state(), sort_keys=True).encode())
        return h.hexdigest()

    def execute(self, kind, tracer):
        from repro.online.pipeline import OnlineConfig, OnlinePipeline
        from repro.online.report import build_report

        pipeline = OnlinePipeline(
            config=OnlineConfig(attribute=True), identifier=self.identifier
        )
        pipeline.process_events(self.events)
        with tracer.span("online.report"):
            report = build_report(pipeline)
            text = report.to_json()
        return pipeline, report, text

    def inspect(self, kind, outputs, wall_s, traced):
        pipeline, report, text = outputs
        summary = report.summary
        problems = []
        if pipeline.events_seen != len(self.events):
            problems.append(
                f"pipeline saw {pipeline.events_seen} of {len(self.events)} events"
            )
        if summary["population"] != self.completed:
            problems.append(
                f"report covers {summary['population']} of {self.completed} "
                "completed requests"
            )
        precision, recall = summary["precision"], summary["recall"]
        population = summary["population"] or 1
        return Round(
            kind=kind, traced=traced, wall_s=wall_s, items=len(self.events),
            busy_s=wall_s, digest=hashlib.sha256(text.encode()).hexdigest(),
            problems=problems,
            values={
                "online.events": pipeline.events_seen,
                "online.windows": pipeline.windows_seen,
                "online.flags": summary["flagged"],
                "online.commit_frac": summary["committed"] / population,
                "detect_f1": (
                    2 * precision * recall / (precision + recall)
                    if precision + recall > 0 else 0.0
                ),
                "attr_accuracy": report.attribution["accuracy"],
            },
        )

    def report(self, rounds):
        first = rounds[0].values
        return {
            "detect_f1": (first["detect_f1"], "frac"),
            "attr_accuracy": (first["attr_accuracy"], "frac"),
        }


# -- classification ---------------------------------------------------------

def _subsample(sequence: list, limit: int) -> list:
    """Evenly thin a syscall sequence to ``limit`` names (as figure 7 does)."""
    import numpy as np

    if len(sequence) <= limit:
        return sequence
    index = np.linspace(0, len(sequence) - 1, limit).astype(int)
    return [sequence[i] for i in index]


class Classify(Scenario):
    name = "classify"
    why = (
        "figure 7's differencing and k-medoids over simulated request sets "
        "of four apps: the core distance layer does the work"
    )
    throughput_name = "classify_pairs_per_s"
    #: Requests per app: figure 7's set shapes at about a quarter of its
    #: counts (levenshtein cost grows with the square of the count).
    #: webserver is left out: its heavy-tailed file sizes put a series of
    #: ~1200 windows into some seeds' sets, and since batched DTW pads a
    #: bank to its longest series, such a seed's round ran 40% longer.
    SIZES = (("tpcc", 30), ("tpch", 18), ("rubis", 24), ("webwork", 14))
    MEASURES = ("levenshtein", "l1", "dtw", "dtw_penalty")
    K = 10
    #: Syscall sequences are thinned to this many names (figure 7 keeps
    #: 300).  Levenshtein cost grows with sequence length; at 300 it took
    #: 79% of a 1.2-s round, and with only ~10 rounds a run the median
    #: spread up to 8.6% across seeds.
    MAX_EVENTS = 150

    def setup(self):
        import numpy as np

        from repro.core.distances import (
            l1_distance, levenshtein_distance, unequal_length_penalty,
        )
        from repro.core.dtw import dtw_distance
        from repro.core.kernels import PenaltyDtw
        from repro.experiments.common import simulate
        from repro.workloads.registry import make_workload

        self.sets = []
        for app, requests in self.SIZES:
            traces = simulate(app, num_requests=requests, seed=self.seed).traces
            window = make_workload(app).window_instructions
            rng = np.random.default_rng(self.seed)
            series = [t.series("cpi", window).values for t in traces]
            syscalls = [
                _subsample(t.spec.syscall_sequence(rng), self.MAX_EVENTS)
                for t in traces
            ]
            penalty = unequal_length_penalty(np.concatenate(series), rng)

            def l1(a, b, p=penalty):
                return l1_distance(a, b, penalty=p)

            self.sets.append(
                {
                    "app": app,
                    "series": series,
                    "syscalls": syscalls,
                    "penalty": penalty,
                    "cpu_times": np.array([t.cpu_time_us() for t in traces]),
                    # measure -> (items, distance, serial per-pair oracle)
                    "measures": {
                        "levenshtein": (
                            syscalls, levenshtein_distance, levenshtein_distance,
                        ),
                        "l1": (series, l1, l1),
                        "dtw": (
                            series, PenaltyDtw(0.0),
                            lambda a, b: dtw_distance(a, b, 0.0),
                        ),
                        "dtw_penalty": (
                            series, PenaltyDtw(penalty),
                            lambda a, b, p=penalty: dtw_distance(a, b, p),
                        ),
                    },
                }
            )

    def input_digest(self):
        h = hashlib.sha256()
        for item in self.sets:
            h.update(repr((item["app"], item["penalty"], item["syscalls"])).encode())
            h.update(item["cpu_times"].tobytes())
            for values in item["series"]:
                h.update(values.tobytes())
        return h.hexdigest()

    def execute(self, kind, tracer):
        import numpy as np

        from repro.core.clustering import distance_matrix, k_medoids
        from repro.core.distengine import DistanceEngine

        # jobs=1: a second worker process would share the two vCPUs with
        # this one and make the round time depend on the scheduler.
        engine = DistanceEngine(jobs=1)
        out = []
        for item in self.sets:
            for measure in self.MEASURES:
                items, distance, _ = item["measures"][measure]
                with tracer.span(f"core.{measure}"):
                    matrix = distance_matrix(items, distance, engine=engine)
                with tracer.span("core.k_medoids"):
                    clusters = k_medoids(
                        matrix, k=min(self.K, len(items)),
                        rng=np.random.default_rng(self.seed),
                    )
                out.append((item, measure, matrix, clusters))
        return out

    def inspect(self, kind, outputs, wall_s, traced):
        import numpy as np

        from repro.core.clustering import divergence_from_centroid

        h = hashlib.sha256()
        problems = []
        pairs = 0
        divergences = []
        for item, measure, matrix, clusters in outputs:
            n = matrix.shape[0]
            pairs += n * (n - 1) // 2
            h.update(matrix.tobytes())
            h.update(clusters.medoids.tobytes())
            h.update(clusters.labels.tobytes())
            where = f"{item['app']}/{measure}"
            if not (np.all(np.isfinite(matrix)) and np.all(matrix >= 0)):
                problems.append(f"{where}: non-finite or negative distance")
            if not np.array_equal(matrix, matrix.T) or np.any(np.diag(matrix)):
                problems.append(f"{where}: matrix not symmetric with zero diagonal")
            if len(set(clusters.medoids.tolist())) != len(clusters.medoids):
                problems.append(f"{where}: repeated medoid")
            items, _, oracle = item["measures"][measure]
            # Upper-triangle pairs, in the engine's argument order (DTW is
            # symmetric only up to rounding).
            for i, j in ((0, n - 1), (1, n // 2)):
                expected = float(oracle(items[i], items[j]))
                if matrix[i, j] != expected:
                    problems.append(
                        f"{where}: d({i},{j}) = {float(matrix[i, j])!r}, serial "
                        f"reference {expected!r}"
                    )
            if measure == "dtw_penalty":
                divergences.append(
                    divergence_from_centroid(item["cpu_times"], clusters)
                )
        return Round(
            kind=kind, traced=traced, wall_s=wall_s, items=pairs,
            busy_s=wall_s, digest=h.hexdigest(), problems=problems,
            values={
                "core.pairs": pairs,
                "classify_divergence_pct": 100.0 * float(np.mean(divergences)),
            },
        )

    def report(self, rounds):
        return {
            "classify_divergence_pct": (
                rounds[0].values["classify_divergence_pct"], "%"
            ),
        }


# -- serve fleet ------------------------------------------------------------

def _peak_rss_mb(pid: int) -> Optional[float]:
    """A live process's peak resident set (Linux ``VmHWM``), in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def _percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of a sorted list (0.0 when empty)."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1)))]


class ServeFleet(Scenario):
    name = "serve_fleet"
    why = (
        "two instances stream recorded faulted tpcc events to one worker "
        "process over unix sockets: protocol, routing, checkpoints, merge"
    )
    throughput_name = "serve_events_per_s"
    #: Closed-credit rounds measure capacity; paced rounds measure ack
    #: latency at a fixed rate below it.
    kinds = ("closed", "paced")
    INSTANCES = 2
    REQUESTS = 300
    TRAIN = 24
    #: Events/s per instance in paced rounds (under half of capacity).
    PACED_RATE = 5000.0

    def setup(self):
        from repro.online.pipeline import train_identifier
        from repro.serve.instance import InstanceSpec, generate_instance_events
        from repro.serve.worker import save_bank
        from repro.workloads.registry import make_workload

        self.specs = [
            InstanceSpec(
                instance=index, workload="tpcc", requests=self.REQUESTS,
                seed=self.seed + 1000 * index, faults=SERVE_FAULTS,
            )
            for index in range(self.INSTANCES)
        ]
        self.streams = [generate_instance_events(spec) for spec in self.specs]
        self.completed = sum(
            e.kind == "request_completed" for events in self.streams for e in events
        )
        identifier = train_identifier(
            make_workload("tpcc"), num_requests=self.TRAIN, seed=self.seed + 10_000
        )
        os.makedirs(self.work_dir, exist_ok=True)
        self.bank_path = os.path.join(self.work_dir, "bank.json")
        save_bank(identifier, self.bank_path)
        self._rounds = 0

    def input_digest(self):
        h = hashlib.sha256()
        for events in self.streams:
            for event in events:
                h.update(json.dumps(event.to_dict(), sort_keys=True).encode())
        with open(self.bank_path, "rb") as fh:
            h.update(fh.read())
        return h.hexdigest()

    def execute(self, kind, tracer):
        self._rounds += 1
        run_dir = os.path.join(self.work_dir, f"round-{self._rounds}")
        try:
            return asyncio.run(self._fleet(kind, tracer, run_dir))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    async def _fleet(self, kind, tracer, run_dir):
        from repro.serve.aggregator import merge_worker_reports
        from repro.serve.instance import InstanceClient
        from repro.serve.service import PoolConfig, WorkerPool

        rate = self.PACED_RATE if kind == "paced" else None
        pool = WorkerPool(
            PoolConfig(
                run_dir=run_dir, workers=1, bank_path=self.bank_path,
                attribute=True,
            )
        )
        with tracer.span("serve.pool_start"):
            await pool.start()
        try:
            clients = [
                InstanceClient(
                    spec, events, pool.ring, pool.socket_paths,
                    rate_events_per_s=rate,
                )
                for spec, events in zip(self.specs, self.streams)
            ]
            with tracer.span("serve.stream"):
                started = time.perf_counter()
                stats = await asyncio.gather(*(c.run() for c in clients))
                stream_s = time.perf_counter() - started
            with tracer.span("serve.collect"):
                responses = await pool.collect_reports()
            worker_rss = [_peak_rss_mb(p.pid) for p in pool.processes.values()]
        finally:
            with tracer.span("serve.stop"):
                await pool.stop()
        with tracer.span("serve.merge"):
            text = merge_worker_reports(
                [response["report"] for response in responses]
            ).to_json()
        return {
            "stats": stats,
            "stream_s": stream_s,
            "text": text,
            "restarts": sum(pool.restarts.values()),
            "worker_rss_mb": max((r for r in worker_rss if r is not None), default=0.0),
            "rate": rate,
        }

    def inspect(self, kind, out, wall_s, traced):
        stats = out["stats"]
        problems = []
        sent = sum(s.events_sent for s in stats)
        expected = sum(len(events) for events in self.streams)
        if sent != expected:
            problems.append(f"sent {sent} of {expected} events")
        for label, value in (
            ("shed events", sum(s.events_shed for s in stats)),
            ("reconnects", sum(s.reconnects for s in stats)),
            ("worker restarts", out["restarts"]),
        ):
            if value:
                problems.append(f"{value} {label} in block mode")
        population = json.loads(out["text"])["summary"]["population"]
        if population != self.completed:
            problems.append(
                f"fleet report covers {population} of {self.completed} requests"
            )
        frames = sum(s.frames_sent for s in stats)
        values = {
            "serve.frames": frames,
            "serve.events_per_frame": sent / frames if frames else 0.0,
            "serve.checkpoint_acks": sum(s.checkpoint_acks for s in stats),
            "serve.reconnects": sum(s.reconnects for s in stats),
            "serve.restarts": out["restarts"],
            "serve.worker_rss_mb": out["worker_rss_mb"],
        }
        latencies = []
        if out["rate"]:
            latencies = sorted(x * 1e3 for s in stats for x in s.ack_latencies)
            per_instance = max(len(events) for events in self.streams)
            values["serve.ack_p50_ms"] = _percentile(latencies, 0.50)
            values["serve.send_lag_s"] = out["stream_s"] - per_instance / out["rate"]
        return Round(
            kind=kind, traced=traced, wall_s=wall_s, items=sent,
            busy_s=out["stream_s"],
            digest=hashlib.sha256(out["text"].encode()).hexdigest(),
            problems=problems, values=values, latencies=latencies,
        )

    # Two processes share the host here, so one process's speed does not
    # describe the round: paced rounds give the end-to-end numbers (they
    # repeat within a few percent), and the closed-credit capacity, which
    # spread 16-27% across runs, stays a per-layer number.

    def throughput(self, r):
        """Events delivered per second at the fixed paced rate."""
        return r.items / r.busy_s if r.kind == "paced" else None

    def latency_ms(self, r):
        """Median ack latency of a paced round, from scheduled send."""
        return r.values["serve.ack_p50_ms"] if r.kind == "paced" else None

    def raw_throughput(self, r):
        return r.items / r.busy_s if r.kind == "closed" else None

    def report(self, rounds):
        paced = [r for r in rounds if r.kind == "paced" and not r.traced]
        return {
            "serve_ack_p50_ms": (
                statistics.median(r.values["serve.ack_p50_ms"] for r in paced), "ms"
            ),
            "serve_ack_samples": (sum(len(r.latencies) for r in paced), "count"),
        }

    def layer_extras(self, rounds):
        untraced = [r for r in rounds if not r.traced]
        paced = [r for r in untraced if r.kind == "paced"]
        # One p99 over every paced ack of the run (thousands of samples).
        pooled = sorted(x for r in paced for x in r.latencies)
        return {
            "serve.capacity_per_s": statistics.median(
                r.items / r.busy_s for r in untraced if r.kind == "closed"
            ),
            "serve.ack_p99_ms": _percentile(pooled, 0.99),
            "serve.send_lag_s": statistics.median(
                r.values["serve.send_lag_s"] for r in paced
            ),
        }

    def close(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)


SCENARIOS = {
    cls.name: cls
    for cls in (SimClosed, SimOpen, OnlineReplay, Classify, ServeFleet)
}
