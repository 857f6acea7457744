"""Traced launcher: run one ``repro`` CLI command with timing spans.

Usage::

    PYTHONPATH=src python3 perfbench/launcher.py SPANS.json serve --inventory t.sst ...

The launcher wraps the public entry points of each layer (see
``TARGETS``) with a span recorder, then calls ``repro.cli.main`` with the
remaining arguments.  A span is ``(id, name, start_ns, end_ns, parent_id,
request_id, value)``: the parent is the innermost open span on the same
thread, the request id is the protocol request's ``id`` (set by
``InventoryService.handle`` for everything it calls, and read from the
frame for the protocol functions), and ``value`` is a per-name detail such
as a byte count or a request type.  Spans stay in memory and are written
to SPANS.json when the command returns (SIGINT and SIGTERM both stop a
server gracefully, so its spans are written too).

Functions imported elsewhere with ``from ... import`` are rebound in every
``repro`` module that looked them up, so the wrapper is what those modules
call.  A target that cannot be found is a hard error: a renamed entry point
must fail the traced run, not silently report zero.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: (module, attribute path, span name, kind).  ``kind`` picks how the
#: span's request id and value are read: see ``_DETAILS``.
TARGETS: tuple[tuple[str, str, str, str], ...] = (
    # server.protocol
    ("repro.server.protocol", "decode_payload", "protocol.decode", "decoded"),
    ("repro.server.protocol", "encode_frame", "protocol.encode", "encoded"),
    ("repro.server.protocol", "summary_to_wire", "protocol.summary_to_wire", ""),
    ("repro.server.protocol", "summary_from_wire", "protocol.summary_from_wire", ""),
    # server.service
    ("repro.server.service", "InventoryService.handle", "service.handle", "request"),
    # apps
    ("repro.apps.eta", "EtaEstimator.estimate", "apps.eta", ""),
    ("repro.apps.destination", "DestinationPredictor.predict_track", "apps.destination", ""),
    # inventory.backend / sstable / codec / summary / compaction
    ("repro.inventory.backend", "SSTableInventory.get", "backend.get", ""),
    ("repro.inventory.sstable", "SSTableReader.read_block", "sstable.read_block", ""),
    ("repro.inventory.sstable", "SSTableWriter.add", "sstable.write_add", ""),
    ("repro.inventory.sstable", "SSTableWriter.close", "sstable.write_close", "table"),
    ("repro.inventory.codec", "decode", "codec.decode", "arg_len"),
    ("repro.inventory.codec", "encode", "codec.encode", "result_len"),
    ("repro.inventory.summary", "CellSummary.from_dict", "summary.from_dict", ""),
    ("repro.inventory.summary", "CellSummary.to_dict", "summary.to_dict", ""),
    ("repro.inventory.summary", "CellSummary.merge", "summary.merge", ""),
    ("repro.inventory.compaction", "merge_tables", "compaction.merge", "inputs"),
    # server.router / server.client
    ("repro.server.router", "ShardedInventory.get", "router.get", ""),
    ("repro.server.router", "ShardedInventory.top_destinations_at", "router.top_destinations_at", ""),
    ("repro.server.router", "ShardedInventory.multi_summary_at", "router.multi_summary_at", ""),
    ("repro.server.client", "InventoryClient.request", "client.request", ""),
    # inventory.memtable / wal / live / maintenance
    ("repro.inventory.memtable", "IngestRecord.from_wire", "memtable.from_wire", ""),
    ("repro.inventory.memtable", "IngestRecord.to_payload", "memtable.to_payload", ""),
    ("repro.inventory.memtable", "Memtable.apply", "memtable.apply", ""),
    ("repro.inventory.wal", "WalWriter.append", "wal.append", "arg_len"),
    ("repro.inventory.wal", "WalWriter.sync", "wal.sync", ""),
    ("repro.inventory.fsio", "fsync_file", "fsio.fsync", ""),
    ("repro.inventory.live", "LiveInventory.ingest", "live.ingest", ""),
    ("repro.inventory.live", "LiveInventory.get", "live.get", ""),
    ("repro.inventory.maintenance", "MaintenanceScheduler.__init__", "maintenance", "jobs"),
    # ais / pipeline (the Fig. 3 stages)
    ("repro.ais.csvio", "read_csv", "ais.read_csv", "eager"),
    ("repro.pipeline.cleaning", "validate", "pipeline.clean", ""),
    ("repro.pipeline.cleaning", "key_by_mmsi", "pipeline.clean", ""),
    ("repro.pipeline.cleaning", "sort_and_dedupe", "pipeline.clean", ""),
    ("repro.pipeline.cleaning", "feasibility_filter", "pipeline.clean", ""),
    ("repro.pipeline.vectorized", "enrich_track_batch", "pipeline.enrich", ""),
    ("repro.pipeline.vectorized", "annotate_trips_batch", "pipeline.trips", ""),
    ("repro.pipeline.vectorized", "project_batch", "pipeline.project", ""),
    ("repro.pipeline.vectorized", "aggregate_partition", "pipeline.aggregate", "eager"),
    ("repro.pipeline.features", "merge_summaries", "pipeline.aggregate", ""),
)

#: Diagnostic spans on private methods, recorded when they exist (a
#: refactor that removes one drops its span instead of failing the run):
#: the ingest valve and the table-size scan it makes under the maintenance
#: lock.
OPTIONAL_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.inventory.live", "LiveInventory._wait_for_capacity", "live.valve", ""),
    ("repro.inventory.live", "LiveInventory._table_sizes", "live.table_sizes", ""),
)

#: Modules imported before wrapping, so every ``from ... import`` site
#: already holds the original object when the rebinding scan runs.
PRELOAD = (
    "repro.cli",
    "repro.server",
    "repro.server.router",
    "repro.server.sharding",
    "repro.inventory.live",
    "repro.pipeline.run",
)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.program_spans: list[tuple[str, float]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.request = None
        return local

    def wrap(self, fn, name: str, kind: str):
        """``fn`` with a span around every call."""
        if kind == "eager":
            fn = _eager(fn)
        recorder = self

        def traced(*args, **kwargs):
            local = recorder._state()
            stack = local.stack
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            outer_request = local.request
            request = outer_request
            if kind == "request" and len(args) > 1 and isinstance(args[1], dict):
                request = local.request = args[1].get("id")
            stack.append(span_id)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                local.request = outer_request
                request, value = _DETAILS.get(kind, _no_detail)(args, result, request)
                recorder.spans.append(
                    (span_id, name, start, end, parent, request, value)
                )

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path) -> None:
        """Write every recorded span (and the program's own pipeline spans)."""
        names = sorted({span[1] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        payload = {
            "pid": os.getpid(),
            "names": names,
            "spans": [
                [s[0], index[s[1]], s[2], s[3], s[4], s[5], s[6]]
                for s in self.spans
            ],
            "program_spans": self.program_spans,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")))
        tmp.replace(path)


def _eager(generator_fn):
    """``generator_fn`` returning a list, so its span covers every item."""

    def call(*args, **kwargs):
        return list(generator_fn(*args, **kwargs))

    return call


def _no_detail(args, result, request):
    return request, None


def _decoded(args, result, request):
    # The loop thread decodes frames outside any handler: the frame's id
    # is the request this span belongs to.
    if isinstance(result, dict):
        request = result.get("id")
    return request, None


def _encoded(args, result, request):
    message = args[0] if args else None
    if isinstance(message, dict):
        request = message.get("id")
    return request, len(result) if isinstance(result, bytes) else None


def _request_type(args, result, request):
    message = args[1] if len(args) > 1 else None
    kind = message.get("type") if isinstance(message, dict) else None
    return request, kind if isinstance(kind, str) else "?"


def _arg_len(args, result, request):
    payload = args[-1] if args else None
    return request, len(payload) if isinstance(payload, (bytes, bytearray)) else None


def _result_len(args, result, request):
    return request, len(result) if isinstance(result, (bytes, bytearray)) else None


def _table_bytes(args, result, request):
    writer = args[0] if args else None
    try:
        return request, os.path.getsize(writer.path)
    except (AttributeError, OSError):
        return request, None


def _input_bytes(args, result, request):
    inputs = args[0] if args else ()
    total = 0
    for path in inputs:
        try:
            total += os.path.getsize(path)
        except OSError:
            pass
    return request, total


_DETAILS = {
    "decoded": _decoded,
    "encoded": _encoded,
    "request": _request_type,
    "arg_len": _arg_len,
    "result_len": _result_len,
    "table": _table_bytes,
    "inputs": _input_bytes,
}


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    if inspect.isclass(owner):
        raw = owner.__dict__.get(attr)
    else:
        raw = getattr(owner, attr, None)
    return owner, attr, raw


def _wrap_jobs(recorder: SpanRecorder, original):
    """``MaintenanceScheduler.__init__`` whose job bodies are traced
    (the jobs dict is the scheduler's public constructor argument)."""

    def init(self, jobs, *args, **kwargs):
        traced = {
            kind: recorder.wrap(body, f"maintenance.{kind}", "")
            for kind, body in jobs.items()
        }
        original(self, traced, *args, **kwargs)

    return init


def install(recorder: SpanRecorder) -> int:
    """Wrap every target; returns the number of rebound import sites."""
    for module_name in PRELOAD:
        importlib.import_module(module_name)
    rebound = 0
    optional = set(OPTIONAL_TARGETS)
    for target in TARGETS + OPTIONAL_TARGETS:
        module_name, path, name, kind = target
        owner, attr, raw = _resolve(module_name, path)
        if raw is None:
            if target in optional:
                continue
            raise SystemExit(f"launcher: {module_name}.{path} not found; a traced "
                             f"layer's entry point moved")
        if kind == "jobs":
            setattr(owner, attr, _wrap_jobs(recorder, raw))
            continue
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(raw.__func__, name, kind)))
            continue
        wrapped = recorder.wrap(raw, name, kind)
        setattr(owner, attr, wrapped)
        if inspect.isclass(owner):
            continue
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)
                    rebound += 1
    return rebound


class _PipelineSink:
    """Collects the program's own ``pipeline.*`` spans (the build's
    existing Fig. 3 instrumentation) for the cross-check."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder

    def record(self, record: dict) -> None:
        name = record.get("name", "")
        if name.startswith("pipeline."):
            self._recorder.program_spans.append((name, float(record["wall_s"])))


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS.json <repro command> [args...]",
              file=sys.stderr)
        return 2
    out = Path(argv[0])
    recorder = SpanRecorder()
    install(recorder)
    if argv[1] == "build":
        from repro.obs import trace as obs

        obs.configure(_PipelineSink(recorder))

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    from repro import cli

    try:
        code = cli.main(argv[1:])
    except KeyboardInterrupt:
        code = 0
    finally:
        recorder.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
