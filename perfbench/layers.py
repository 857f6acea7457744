"""Per-layer metrics from the traced run's spans (see launcher.py).

``PER_LAYER_UNITS`` is the full list ``--trace 1`` prints, in the order of
BENCHMARK.json.  A metric that has no meaning on a workload (the router's
hop on ``build``, say) prints 0; ``REQUIRED`` names, per workload, the
spans that must have fired at least once, so a wrapper that stopped
firing fails the run instead of reporting 0.

Counts are per request (on ``ingest``: per read request), except
``codec.encode_calls`` on ``build``, which is per raw report.  Times are
mean self times per call (a span's duration minus its children's) unless
the name says otherwise.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

from perfbench.loadgen import percentile

#: name -> unit, for every per-layer metric.
PER_LAYER_UNITS = {
    # server.protocol
    "protocol.decode_us": "us",
    "protocol.encode_us": "us",
    "protocol.summary_wire_us": "us",
    "protocol.response_bytes": "B",
    # server.server (public stats request and /proc)
    "server.queue_wait_ms_p50": "ms",
    "server.queue_wait_ms_p99": "ms",
    "server.request_ms_p50": "ms",
    "server.request_ms_p99": "ms",
    "server.residual_ms": "ms",
    "server.cpu_ms_per_request": "ms",
    # server.service
    "service.handle_us.summary_at": "us",
    "service.handle_us.top_destinations_at": "us",
    "service.handle_us.eta": "us",
    "service.handle_us.destination": "us",
    "service.handle_us.multi_get": "us",
    "service.handle_us.ingest": "us",
    # apps
    "apps.eta_us": "us",
    "apps.destination_us": "us",
    # inventory.backend
    "backend.get_us": "us",
    "backend.gets_per_request": "count",
    "block_cache.hit_rate": "ratio",
    "block_cache.evictions": "count",
    # inventory.sstable
    "sstable.read_block_us": "us",
    "sstable.blocks_read_per_get": "count",
    "sstable.write_s": "s",
    # inventory.codec
    "codec.decode_us": "us",
    "codec.decode_calls_per_request": "count",
    "codec.decode_bytes_per_request": "B",
    "codec.encode_us": "us",
    "codec.encode_calls": "count",
    # inventory.summary
    "summary.from_dict_us": "us",
    "summary.to_dict_us": "us",
    "summary.merge_us": "us",
    # inventory.compaction
    "compaction.merge_s": "s",
    "compaction.bytes_rewritten": "B",
    "build.write_amp": "ratio",
    # server.router / server.client
    "router.self_us": "us",
    "router.shard_calls_per_request": "count",
    "client.shard_rtt_us": "us",
    "router.cpu_ms_per_request": "ms",
    "router.failovers": "count",
    # inventory.memtable
    "memtable.from_wire_us_per_record": "us",
    "memtable.apply_us_per_record": "us",
    # inventory.wal
    "wal.append_us": "us",
    "wal.fsync_ms": "ms",
    "wal.fsyncs_per_record": "count",
    # inventory.live
    "live.ingest_wait_ms_p50": "ms",
    "live.ingest_wait_ms_p99": "ms",
    "live.get_us": "us",
    "live.backpressure_waits": "count",
    "live.backpressure_timeouts": "count",
    # inventory.maintenance
    "maintenance.flush_s": "s",
    "maintenance.flushes": "count",
    "maintenance.compactions": "count",
    "maintenance.write_amp": "ratio",
    # ais / pipeline
    "ais.read_csv_s": "s",
    "pipeline.clean_s": "s",
    "pipeline.enrich_s": "s",
    "pipeline.trips_s": "s",
    "pipeline.project_s": "s",
    "pipeline.aggregate_s": "s",
    # the benchmark itself
    "loadgen.late_p99_ms": "ms",
    "loadgen.achieved_rate": "ratio",
    "trace.overhead_share": "ratio",
    "trace.accounted_share": "ratio",
}

_STORAGE_SPANS = (
    "protocol.decode", "protocol.encode", "protocol.summary_to_wire",
    "service.handle", "backend.get", "sstable.read_block", "codec.decode",
    "codec.encode", "summary.from_dict", "summary.to_dict",
)

#: Spans that must fire at least once on each workload's traced run,
#: keyed by the process they run in.
REQUIRED = {
    "query": {"server": _STORAGE_SPANS + ("apps.eta", "apps.destination")},
    "query-routed": {
        "router": (
            "protocol.decode", "protocol.encode", "protocol.summary_to_wire",
            "protocol.summary_from_wire", "service.handle", "apps.eta",
            "apps.destination", "router.get", "router.top_destinations_at",
            "router.multi_summary_at", "client.request", "codec.decode",
            "codec.encode", "summary.from_dict", "summary.to_dict",
        ),
        # The apps run in the router; shards answer its point lookups.
        "shard": _STORAGE_SPANS,
    },
    "ingest": {
        "server": (
            "protocol.decode", "protocol.encode", "protocol.summary_to_wire",
            "service.handle", "memtable.from_wire", "memtable.to_payload",
            "memtable.apply", "wal.append", "wal.sync", "fsio.fsync",
            "live.ingest", "live.get", "backend.get", "sstable.read_block",
            "sstable.write_add", "sstable.write_close", "codec.decode",
            "codec.encode", "summary.from_dict", "summary.to_dict",
            "summary.merge", "compaction.merge", "maintenance.flush",
            "maintenance.tier",
        ),
    },
    "build": {
        "builder": (
            "ais.read_csv", "pipeline.clean", "pipeline.enrich",
            "pipeline.trips", "pipeline.project", "pipeline.aggregate",
            "sstable.write_add", "sstable.write_close", "codec.encode",
            "codec.decode", "summary.to_dict", "summary.from_dict",
            "compaction.merge",
        ),
    },
}

#: The Fig. 3 stages: the launcher's kernel spans and the program's own
#: stage spans share these names, so each kernel sum can be checked
#: against its stage.
PIPELINE_STAGES = (
    "pipeline.clean", "pipeline.enrich", "pipeline.trips", "pipeline.project",
    "pipeline.aggregate",
)


class Spans:
    """One process's spans, with self times precomputed."""

    def __init__(self, payload: dict) -> None:
        names = payload["names"]
        raw = payload["spans"]
        child_ns: dict[int, int] = defaultdict(int)
        for span_id, _, start, end, parent, _, _ in raw:
            if parent:
                child_ns[parent] += end - start
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self._index: dict[int, tuple] = {}
        self.children: dict[int, list[tuple[str, float]]] = defaultdict(list)
        for span_id, name_index, start, end, parent, request, value in raw:
            duration = end - start
            record = (
                span_id, parent, request, value,
                duration / 1e3, (duration - child_ns.get(span_id, 0)) / 1e3,
            )
            self.by_name[names[name_index]].append(record)
            self._index[span_id] = (names[name_index], record)
            if parent:
                self.children[parent].append((names[name_index], duration / 1e3))
        self.program_spans = [tuple(item) for item in payload.get("program_spans", [])]

    def request_scoped(self, ids: range | None = None) -> "Spans":
        """Only the spans that ran on behalf of a request (drops start-up
        work such as decoding a table's block index at open), and with
        ``ids`` only those of requests whose id lies in it."""
        scoped = Spans({"names": [], "spans": []})
        for name, records in self.by_name.items():
            kept = [rec for rec in records
                    if rec[2] is not None and (ids is None or rec[2] in ids)]
            if kept:
                scoped.by_name[name] = kept
        scoped._index = self._index
        return scoped

    @classmethod
    def load(cls, path: Path) -> "Spans":
        return cls(json.loads(path.read_text()))

    def count(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def fired(self, names) -> list[str]:
        """The names in ``names`` that never fired."""
        return [name for name in names if not self.by_name.get(name)]

    def self_us(self, *names: str) -> list[float]:
        return [rec[5] for name in names for rec in self.by_name.get(name, ())]

    def wall_us(self, *names: str) -> list[float]:
        return [rec[4] for name in names for rec in self.by_name.get(name, ())]

    def mean_self_us(self, *names: str) -> float:
        values = self.self_us(*names)
        return sum(values) / len(values) if values else 0.0

    def mean_wall_us(self, *names: str) -> float:
        values = self.wall_us(*names)
        return sum(values) / len(values) if values else 0.0

    def total_s(self, *names: str, outermost: bool = True) -> float:
        """Summed wall seconds; with ``outermost``, nested spans of the same
        names are not counted twice."""
        wanted = set(names)
        total = 0.0
        for name in names:
            for rec in self.by_name.get(name, ()):
                if outermost and self.has_ancestor(rec[1], wanted):
                    continue
                total += rec[4]
        return total / 1e6

    def outermost_s(self) -> float:
        """Wall seconds covered by spans that have no traced ancestor."""
        return sum(
            rec[4] for records in self.by_name.values() for rec in records if not rec[1]
        ) / 1e6

    def values(self, name: str) -> list:
        return [rec[3] for rec in self.by_name.get(name, ()) if rec[3] is not None]

    def under(self, name: str, ancestor: str) -> list[tuple]:
        """Spans ``name`` with an ``ancestor`` span somewhere above them."""
        return [
            rec for rec in self.by_name.get(name, ())
            if self.has_ancestor(rec[1], {ancestor})
        ]

    def has_ancestor(self, parent: int, names: set[str]) -> bool:
        while parent:
            entry = self._index.get(parent)
            if entry is None:
                return False
            if entry[0] in names:
                return True
            parent = entry[1][1]
        return False

    def handle_self_by_type(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = defaultdict(list)
        for rec in self.by_name.get("service.handle", ()):
            out[str(rec[3])].append(rec[5])
        return out



#: Block-cache counter names in the ``stats`` answer.
CACHE_HITS, CACHE_MISSES, CACHE_EVICTIONS = (
    "block_cache.hits", "block_cache.misses", "block_cache.evictions",
)


def self_ms_per_request(spans: Spans, requests: int) -> dict[str, float]:
    """Each span name's summed self time per request (ms): where a
    request's time goes along the blocking path."""
    if not requests:
        return {}
    return {
        name: sum(rec[5] for rec in records) / 1e3 / requests
        for name, records in sorted(spans.by_name.items())
    }


def empty() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER_UNITS}


def stats_percentiles(stats: dict, out: dict) -> None:
    """Server queue-wait and request-latency percentiles from ``stats``."""
    server = stats.get("server", {})
    queue = server.get("queue_wait_ms", {})
    latency = server.get("latency_ms", {})
    out["server.queue_wait_ms_p50"] = queue.get("p50_ms") or 0.0
    out["server.queue_wait_ms_p99"] = queue.get("p99_ms") or 0.0
    out["server.request_ms_p50"] = latency.get("p50_ms") or 0.0
    out["server.request_ms_p99"] = latency.get("p99_ms") or 0.0


def cache_metrics(stats: dict, out: dict) -> None:
    cache = stats.get("inventory", {}).get("cache", {})
    hits = cache.get(CACHE_HITS, 0)
    misses = cache.get(CACHE_MISSES, 0)
    out["block_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    out["block_cache.evictions"] = float(cache.get(CACHE_EVICTIONS, 0))


def storage_read_metrics(spans: Spans, requests: int, out: dict) -> None:
    """Backend, sstable, codec-decode and summary metrics of a read path."""
    gets = spans.count("backend.get")
    out["backend.get_us"] = spans.mean_self_us("backend.get")
    out["backend.gets_per_request"] = gets / requests if requests else 0.0
    out["sstable.read_block_us"] = spans.mean_self_us("sstable.read_block")
    out["sstable.blocks_read_per_get"] = (
        spans.count("sstable.read_block") / gets if gets else 0.0
    )
    out["codec.decode_us"] = spans.mean_self_us("codec.decode")
    out["codec.decode_calls_per_request"] = (
        spans.count("codec.decode") / requests if requests else 0.0
    )
    out["codec.decode_bytes_per_request"] = (
        sum(spans.values("codec.decode")) / requests if requests else 0.0
    )
    out["codec.encode_us"] = spans.mean_self_us("codec.encode")
    out["codec.encode_calls"] = spans.count("codec.encode") / requests if requests else 0.0
    out["summary.from_dict_us"] = spans.mean_self_us("summary.from_dict")
    out["summary.to_dict_us"] = spans.mean_self_us("summary.to_dict")
    out["summary.merge_us"] = spans.mean_self_us("summary.merge")


def serving_metrics(spans: Spans, out: dict) -> int:
    """Protocol, service and apps metrics of one serving process; returns
    the number of requests it handled."""
    requests = spans.count("service.handle")
    out["protocol.decode_us"] = spans.mean_self_us("protocol.decode")
    out["protocol.encode_us"] = spans.mean_self_us("protocol.encode")
    out["protocol.summary_wire_us"] = spans.mean_self_us(
        "protocol.summary_to_wire", "protocol.summary_from_wire"
    )
    sizes = spans.values("protocol.encode")
    out["protocol.response_bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    for kind, values in spans.handle_self_by_type().items():
        name = f"service.handle_us.{kind}"
        if name in out:
            out[name] = sum(values) / len(values)
    out["apps.eta_us"] = spans.mean_self_us("apps.eta")
    out["apps.destination_us"] = spans.mean_self_us("apps.destination")
    return requests


def router_metrics(spans: Spans, out: dict) -> None:
    requests = spans.count("service.handle")
    out["router.self_us"] = spans.mean_self_us(
        "router.get", "router.top_destinations_at", "router.multi_summary_at"
    )
    out["router.shard_calls_per_request"] = (
        spans.count("client.request") / requests if requests else 0.0
    )
    out["client.shard_rtt_us"] = spans.mean_wall_us("client.request")


def ingest_waits_ms(spans: Spans) -> list[float]:
    """Per ``LiveInventory.ingest`` call: its time outside the WAL and
    memtable work it does (valve and lock waits, and the valve's own
    diagnostic spans, which count as waiting)."""
    waits = []
    for rec in spans.by_name.get("live.ingest", ()):
        work = sum(wall for name, wall in spans.children.get(rec[0], ())
                   if name.startswith(("wal.", "memtable.")))
        waits.append((rec[4] - work) / 1e3)
    return waits


def ingest_metrics(spans: Spans, out: dict) -> None:
    """Write-path metrics of a live server."""
    out["memtable.from_wire_us_per_record"] = spans.mean_self_us("memtable.from_wire")
    out["memtable.apply_us_per_record"] = spans.mean_self_us("memtable.apply")
    out["wal.append_us"] = spans.mean_self_us("wal.append")
    wal_fsyncs = spans.under("fsio.fsync", "wal.sync")
    out["wal.fsync_ms"] = (
        sum(rec[4] for rec in wal_fsyncs) / len(wal_fsyncs) / 1e3 if wal_fsyncs else 0.0
    )
    appends = spans.count("wal.append")
    out["wal.fsyncs_per_record"] = len(wal_fsyncs) / appends if appends else 0.0
    waits = ingest_waits_ms(spans)
    out["live.ingest_wait_ms_p50"] = percentile(waits, 0.5) if waits else 0.0
    out["live.ingest_wait_ms_p99"] = percentile(waits, 0.99) if waits else 0.0
    out["live.get_us"] = spans.mean_self_us("live.get")
    out["maintenance.flush_s"] = spans.total_s("maintenance.flush")
    maintenance_bytes = sum(
        rec[3] or 0
        for rec in spans.by_name.get("sstable.write_close", ())
        if spans.has_ancestor(rec[1], {"maintenance.flush", "maintenance.tier"})
    )
    # A WAL entry is the payload plus an 8-byte length+CRC header.
    wal_bytes = sum(size + 8 for size in spans.values("wal.append"))
    out["maintenance.write_amp"] = maintenance_bytes / wal_bytes if wal_bytes else 0.0
    out["compaction.merge_s"] = spans.total_s("compaction.merge")
    out["compaction.bytes_rewritten"] = float(sum(spans.values("compaction.merge")))
    out["sstable.write_s"] = spans.total_s("sstable.write_add", "sstable.write_close")


def build_metrics(spans: Spans, raw_reports: int, final_bytes: int, out: dict) -> list[str]:
    """Build-path metrics; returns problems of the program-span cross-check."""
    out["ais.read_csv_s"] = spans.total_s("ais.read_csv")
    problems = []
    program = defaultdict(float)
    for name, wall_s in spans.program_spans:
        program[name] += wall_s
    for stage in PIPELINE_STAGES:
        seconds = spans.total_s(stage)
        out[f"{stage}_s"] = seconds
        # The wrappers time the stage's kernels, which run inside the
        # program's own stage span: they can only be shorter.
        if stage not in program:
            problems.append(f"program span {stage} missing")
        elif seconds > program[stage] * 1.05 + 0.01:
            problems.append(
                f"{stage}: wrappers {seconds:.3f}s exceed the program's "
                f"span {program[stage]:.3f}s"
            )
    out["sstable.write_s"] = spans.total_s("sstable.write_add", "sstable.write_close")
    out["codec.encode_us"] = spans.mean_self_us("codec.encode")
    out["codec.encode_calls"] = spans.count("codec.encode") / raw_reports if raw_reports else 0.0
    out["codec.decode_us"] = spans.mean_self_us("codec.decode")
    out["summary.from_dict_us"] = spans.mean_self_us("summary.from_dict")
    out["summary.to_dict_us"] = spans.mean_self_us("summary.to_dict")
    out["summary.merge_us"] = spans.mean_self_us("summary.merge")
    out["compaction.merge_s"] = spans.total_s("compaction.merge")
    out["compaction.bytes_rewritten"] = float(sum(spans.values("compaction.merge")))
    written = sum(spans.values("sstable.write_close"))
    out["build.write_amp"] = written / final_bytes if final_bytes else 0.0
    return problems
