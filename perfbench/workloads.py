"""The four workloads: ``query``, ``query-routed``, ``ingest``, ``build``.

Each takes a :class:`Context` and returns an :class:`Outcome` whose
``metrics`` hold every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``).  Why each workload exists and how it is
sized is in README.md; the numbers below are those sizes.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import layers
from perfbench.inputs import (
    RANKING_SEED,
    World,
    ZipfKeys,
    ingest_records,
    request_stream,
    shuffled_archive,
    table_keys,
    tracks_from_archive,
)
from perfbench.loadgen import (
    Connection,
    Outcome as LoopOutcome,
    closed_loop,
    frame,
    open_loop,
    percentile,
    tail,
)
from perfbench.procs import ProcessGroup, cpu_plan, repro_argv


@dataclass(frozen=True)
class Sizes:
    """Input sizes and rates of one benchmark scale."""

    #: ``query`` / ``query-routed`` world: its table is ~2.9x the server's
    #: default 4 MiB block cache (256 blocks x 16 KiB).
    serve_world: World
    #: ``ingest`` archive: more records than the write path acks in a run.
    ingest_world: World
    #: ``build`` archive: small enough for several builds per run.
    build_world: World
    #: Open-loop offered rate of both serving workloads (requests/s): about
    #: a seventh of ``query-routed``'s closed-loop capacity on a 2-CPU box.
    #: Closer to saturation a swing in capacity multiplies the queueing
    #: delay, which would measure the host's noise rather than the program.
    query_rate: float
    #: Open-loop ``summary_at`` reads per second during ``ingest``.
    read_rate: float
    #: ``serve --live --flush-records``: a run completes several flushes.
    flush_records: int
    #: A run with fewer flushes / tier compactions measured the wrong thing.
    min_flushes: int
    min_compactions: int
    #: Requests (or keys) compared against the reference per check.
    check_samples: int
    #: Deployments started per run for the ``setup_s`` median.
    setup_repeats: int
    #: Archives generated per ``build`` run for its ``setup_s`` median: a
    #: sub-second step, so more of them.
    archive_repeats: int


FULL = Sizes(
    serve_world=World(vessels=24, days=12),
    ingest_world=World(vessels=24, days=10),
    build_world=World(vessels=12, days=7),
    query_rate=25.0,
    read_rate=100.0,
    flush_records=1024,
    min_flushes=4,
    min_compactions=1,
    check_samples=60,
    setup_repeats=3,
    archive_repeats=5,
)
SMOKE = Sizes(
    serve_world=World(vessels=8, days=7),
    ingest_world=World(vessels=8, days=7),
    build_world=World(vessels=8, days=7),
    query_rate=50.0,
    read_rate=20.0,
    flush_records=256,
    min_flushes=2,
    min_compactions=0,
    check_samples=10,
    setup_repeats=1,
    archive_repeats=1,
)

#: Ingest batch size (records per ``ingest`` frame), as ``repro ingest``.
INGEST_BATCH = 256
#: Request deadline of the live server: above the longest write stall, so
#: a stall is measured as latency instead of an ambiguous deadline error.
LIVE_REQUEST_TIMEOUT_S = 120.0
#: An open-loop run is invalid when the sender's median lateness exceeds
#: this: it then could not keep to its schedule.  Not a tail: a virtual
#: machine's host preempts the generator for tens of milliseconds at times, and
#: the requests due meanwhile are still timed from their due time.
MAX_LATE_P50_MS = 5.0
#: Closed/open rounds per serving run.  Alternating the two loops spreads a
#: transient slowdown of the shared host over both metrics; each metric
#: pools its loop's answers over every round.
ROUNDS = 5
#: Share of a round spent in the closed loop (the rest is open loop).
CLOSED_SHARE = 0.5
#: Request-id ranges: ids are unique per phase so spans group per request.
_ID_BASE = {"closed": 2_000_000, "open": 3_000_000,
            "traced": 4_000_000, "check": 5_000_000, "read": 6_000_000,
            "write": 7_000_000}


@dataclass
class Outcome:
    """What a workload reports back to run.py."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    samples: dict[str, int] = field(default_factory=dict)
    errors: dict[str, int] = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def count(self, loop: LoopOutcome) -> None:
        self.attempted += loop.attempted
        self.failed += loop.failed
        for code, n in loop.errors.items():
            self.errors[code] = self.errors.get(code, 0) + n


class Context:
    """One run: its seed, scale, work directory, processes and flags."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.workdir = workdir
        self.sizes = SMOKE if smoke else FULL
        self.server_cpu, self.generator_cpu = cpu_plan()
        os.sched_setaffinity(0, {self.generator_cpu})
        self.group = ProcessGroup(workdir, self.server_cpu)
        self.group.keep_busy()
        #: Command templates of every program run (for the stamp).
        self.flags: dict[str, list[str]] = {}

    def path(self, name: str) -> Path:
        return self.workdir / name

    def repro(self, name: str, args: list, spans: Path | None = None):
        """Run ``repro <args>`` to completion: (seconds, peak RSS MiB, output)."""
        args = [str(arg) for arg in args]
        self.flags.setdefault(name, [_template(arg, self.workdir) for arg in args])
        return self.group.run(name, repro_argv(args, spans))

    def start(self, name: str, args: list, spans: Path | None = None):
        """Start a ``repro`` server and wait until it answers a ping."""
        args = [str(arg) for arg in args]
        self.flags.setdefault(name, [_template(arg, self.workdir) for arg in args])
        child = self.group.start(name, repro_argv(args, spans))
        child.wait_serving()
        return child

    def close(self) -> None:
        self.group.close()


def _template(arg: str, workdir: Path) -> str:
    """A flag with the run's work directory and ports made generic, so
    stamps of two runs compare equal when their flags do."""
    arg = arg.replace(str(workdir), "<work>")
    return re.sub(r"127\.0\.0\.1:\d+", "127.0.0.1:<port>", arg)


class SetupClock:
    """``setup_s``: one-time steps plus the median of repeated ones."""

    def __init__(self) -> None:
        self.once: dict[str, float] = {}
        self.repeated: dict[str, list[float]] = {}

    @contextlib.contextmanager
    def step(self, name: str):
        started = time.perf_counter()
        yield
        self.once[name] = time.perf_counter() - started

    @contextlib.contextmanager
    def repeat(self, name: str):
        started = time.perf_counter()
        yield
        self.repeated.setdefault(name, []).append(time.perf_counter() - started)

    def total(self) -> float:
        return sum(self.once.values()) + sum(
            statistics.median(values) for values in self.repeated.values()
        )

    def details(self) -> dict:
        return {"once_s": self.once, "repeated_s": self.repeated}


class HostSpeed:
    """How fast the host runs the server core right now, from a fixed
    pure-Python loop timed on that core while the servers are idle.

    The virtual machine's host changes speed by up to 1.7x between runs
    and within them, and the closed-loop serving capacity, which keeps
    the server core saturated, moves with it.  That capacity is therefore
    reported at the reference speed: the measured rate times ``factor()``,
    the median loop time over ``REFERENCE_MS``.  The loop runs in the
    generator, not in the program, so a change to the program cannot move
    it.  Every other figure is reported as measured: over ten runs each,
    scaling the ``ingest`` and ``build`` rates by the loop widened their
    spread, and at low load the latencies did not follow the loop."""

    #: The loop's time at the reference speed (about this 2-vCPU
    #: machine's median); only the scale of the reported figures hangs on it.
    REFERENCE_MS = 10.0
    _LOOP = 100_000

    def __init__(self, cpu: int) -> None:
        self.cpu = cpu
        self.samples_ms: list[float] = []

    def sample(self) -> None:
        """Time the loop three times on the server core; keep the median."""
        home = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {self.cpu})
        try:
            times = []
            for _ in range(3):
                started = time.perf_counter()
                total = 0
                for i in range(self._LOOP):
                    total += i * i % 7
                times.append((time.perf_counter() - started) * 1e3)
        finally:
            os.sched_setaffinity(0, home)
        self.samples_ms.append(statistics.median(times))

    def factor(self) -> float:
        return statistics.median(self.samples_ms) / self.REFERENCE_MS

    def details(self) -> dict:
        return {"loop_ms": self.samples_ms, "factor": self.factor()}


# -- serving: query and query-routed ----------------------------------------------


class Deployment:
    """The serving processes of one run and the port clients talk to."""

    def __init__(self, ctx: Context, table: Path, routed: bool,
                 spans_dir: Path | None = None) -> None:
        self.children = []
        self.ctx = ctx
        self.spans: dict[str, Path] = {}
        if not routed:
            self.front = self._start("serve", ["serve", "--inventory", table,
                                               "--port", "0"], spans_dir)
            return
        from repro.server.sharding import load_placement, placement_path

        placement = load_placement(placement_path(table))
        shard_flags = []
        for index, spec in enumerate(placement.shards):
            shard = self._start(
                f"shard-{index}",
                ["serve", "--inventory", table.with_name(spec.table), "--port", "0"],
                spans_dir,
            )
            shard_flags += ["--shard", f"{spec.name}=127.0.0.1:{shard.port}"]
        self.front = self._start(
            "route",
            ["route", "--placement", placement_path(table), "--port", "0", *shard_flags],
            spans_dir,
        )

    def _start(self, name, args, spans_dir):
        spans = None if spans_dir is None else spans_dir / f"{name}.json"
        child = self.ctx.start(name, args, spans)
        if spans is not None:
            self.spans[name] = spans
        self.children.append(child)
        return child

    @property
    def port(self) -> int:
        return self.front.port

    def stop(self) -> None:
        # Front first, so no request is in flight when the shards drain.
        for child in reversed(self.children):
            self.ctx.group.stop(child)


def _validator(requests: list[dict]):
    def validate(index: int, result: dict) -> str | None:
        if not isinstance(result, dict):
            return "wrong_answer"
        kind = requests[index]["type"]
        if kind == "summary_at":
            good = result.get("summary") is not None
        elif kind == "multi_get":
            summaries = result.get("summaries")
            good = isinstance(summaries, list) and len(summaries) == len(
                requests[index]["keys"]
            ) and all(item is not None for item in summaries)
        elif kind == "top_destinations_at":
            good = isinstance(result.get("destinations"), list)
        elif kind == "eta":
            good = "eta" in result
        else:
            good = isinstance(result.get("ranking"), list)
        return None if good else "wrong_answer"

    return validate


def _frames(requests: list[dict], phase: str) -> tuple[list[bytes], list[int]]:
    ids = [_ID_BASE[phase] + i for i in range(len(requests))]
    return [frame(i, r) for i, r in zip(ids, requests)], ids


def _open(port: int, frames: list[bytes], ids: list[int], validate, rate: float,
          seconds: float, first: int = 0) -> LoopOutcome:
    """Open loop over the request stream starting at index ``first``."""
    n = len(frames)
    with Connection(port) as conn:
        outcome = open_loop(conn, lambda i: (ids[(first + i) % n], frames[(first + i) % n]),
                            lambda i, result: validate((first + i) % n, result), rate, seconds)
    outcome.indices = [(first + i) % n for i in outcome.indices]
    return outcome


def _latencies(requests: list[dict], loop: LoopOutcome, kind: str) -> list[float]:
    return [ms for index, ms in zip(loop.indices, loop.latencies_ms)
            if requests[index]["type"] == kind]


def _round_stats(closed: LoopOutcome, opened: LoopOutcome) -> dict:
    """One round's figures over every request type (report details)."""
    return {
        "throughput_per_s": len(closed.latencies_ms) / closed.elapsed_s,
        "p50_ms": percentile(opened.latencies_ms, 0.5),
        "closed_p50_ms": percentile(closed.latencies_ms, 0.5),
    }


def _by_type(requests: list[dict], rounds) -> dict:
    """Open-loop p50 and tail per request type, over every round."""
    out = {}
    for kind in sorted({request["type"] for request in requests}):
        values = [ms for _, opened in rounds for ms in _latencies(requests, opened, kind)]
        out[kind] = {"p50_ms": percentile(values, 0.5), "tail": tail(values)}
    return out


def _stats(port: int) -> dict:
    with Connection(port) as conn:
        response = conn.call({"id": 9, "type": "stats"})
    if not response.get("ok"):
        raise RuntimeError(f"stats failed: {response}")
    return response["result"]


def _table_bytes(table: Path) -> int:
    """The table plus its sidecar(s): what ``repro build`` leaves behind."""
    from repro.inventory.sstable import route_index_path

    total = table.stat().st_size
    sidecar = route_index_path(table)
    if sidecar.exists():
        total += sidecar.stat().st_size
    return total


def _raw_reports(build_output: str) -> int:
    raw = _funnel(build_output).get("raw")
    if raw is None:
        raise RuntimeError(f"build printed no raw count:\n{build_output}")
    return raw


def _funnel(build_output: str) -> dict[str, int]:
    """The funnel counts ``repro build`` prints, one ``  stage  count`` line each."""
    funnel = {}
    for line in build_output.splitlines():
        parts = line.split()
        if len(parts) == 2 and line.startswith("  ") and parts[1].replace(",", "").isdigit():
            funnel[parts[0]] = int(parts[1].replace(",", ""))
    return funnel


def serving(ctx: Context, routed: bool) -> Outcome:
    sizes = ctx.sizes
    out = Outcome()
    clock = SetupClock()
    archive = ctx.path("archive.csv")
    table = ctx.path("inventory.sst")
    with clock.step("generate"):
        ctx.repro("generate", sizes.serve_world.generate_args(archive))
    with clock.step("build"):
        build_args = ["build", "--archive", archive, "--out", table]
        if routed:
            build_args += ["--shards", "2"]
        _, _, build_output = ctx.repro("build", build_args)
    with clock.step("inputs"):
        keys = table_keys(table)
        tracks = tracks_from_archive(archive)
        count = int(sizes.query_rate * ctx.seconds) + 2048
        requests = request_stream(keys, tracks, ctx.seed, count)
    deployment = None
    for attempt in range(sizes.setup_repeats):
        with clock.repeat("deploy"):
            deployment = Deployment(ctx, table, routed)
        if attempt < sizes.setup_repeats - 1:
            deployment.stop()
    out.details["setup"] = clock.details()
    out.details["table_bytes"] = table.stat().st_size
    out.details["cache_bytes"] = 256 * 16 * 1024
    out.details["keys"] = len(keys)
    out.details["zipf_head_share_256"] = ZipfKeys(
        keys, random.Random(RANKING_SEED)).head_share(256)
    raw = _raw_reports(build_output)
    if ctx.trace:
        return _serving_traced(ctx, out, deployment, table, requests, routed)
    warm_s = min(1.0, 0.1 * ctx.seconds)

    frames, ids = _frames(requests, "closed")
    open_frames, open_ids = _frames(requests, "open")
    validate = _validator(requests)
    host = HostSpeed(ctx.server_cpu)
    host.sample()
    closed_loop(deployment.port, frames, ids, validate, warm_s)
    round_s = (ctx.seconds - warm_s) / ROUNDS
    rounds = []
    for round_index in range(ROUNDS):
        closed = closed_loop(deployment.port, frames, ids, validate, CLOSED_SHARE * round_s,
                             first_index=(round_index + 1) * len(requests) // (ROUNDS + 1))
        host.sample()
        opened = _open(deployment.port, open_frames, open_ids, validate, sizes.query_rate,
                       (1.0 - CLOSED_SHARE) * round_s,
                       first=round_index * len(requests) // ROUNDS)
        host.sample()
        out.count(closed)
        out.count(opened)
        _check_open_loop(opened, out)
        rounds.append((closed, opened))
    ctx.group.check_alive()
    rss = deployment.front.peak_rss_mb()
    deployment.stop()
    out.samples = {"closed": sum(len(c.latencies_ms) for c, _ in rounds),
                   "open": sum(len(o.latencies_ms) for _, o in rounds), "rounds": ROUNDS}
    out.details["rounds"] = [_round_stats(c, o) for c, o in rounds]
    out.details["by_type"] = _by_type(requests, rounds)
    opened_ms = [ms for _, opened in rounds for ms in opened.latencies_ms]
    out.details["tail"] = tail(opened_ms)
    out.details["host"] = host.details()
    measured_rate = out.samples["closed"] / sum(c.elapsed_s for c, _ in rounds)
    out.details["measured_throughput_per_s"] = measured_rate
    out.metrics = {
        "setup_s": clock.total(),
        "throughput_per_s": measured_rate * host.factor(),
        "p50_ms": percentile(opened_ms, 0.5),
        "bytes_per_record": _table_bytes(table) / raw,
        "peak_rss_mb": rss,
    }
    out.details["loadgen_late_p99_ms"] = max(percentile(o.lateness_ms, 0.99) for _, o in rounds)
    if routed:
        _check_routed(ctx, table, requests, out)
    else:
        _check_query(ctx, table, deployment, requests, out)
    return out


def _check_open_loop(opened: LoopOutcome, out: Outcome) -> None:
    late = percentile(opened.lateness_ms, 0.5)
    if late > MAX_LATE_P50_MS:
        out.problems.append(
            f"open-loop sender fell behind: median lateness {late:.1f} ms "
            f"> {MAX_LATE_P50_MS} ms"
        )


def _sample(requests: list[dict], n: int) -> list[int]:
    """Indices of ``n`` requests spread over the stream, every type included."""
    by_type: dict[str, list[int]] = {}
    for index, request in enumerate(requests):
        by_type.setdefault(request["type"], []).append(index)
    per_type = max(1, n // len(by_type))
    return sorted(i for indices in by_type.values() for i in indices[:per_type])


def _check_query(ctx: Context, table: Path, deployment, requests, out: Outcome) -> None:
    """Remote answers equal an in-process service over the same table."""
    from repro.inventory import SSTableInventory
    from repro.server import InventoryService

    sample = _sample(requests, ctx.sizes.check_samples)
    deployment = Deployment(ctx, table, routed=False)
    try:
        with SSTableInventory(table, cache_blocks=256) as backend, Connection(deployment.port) as conn:
            service = InventoryService(backend)
            for index in sample:
                request = dict(requests[index], id=_ID_BASE["check"] + index)
                remote = conn.call(request)
                local = json.loads(json.dumps(service.handle(request)))
                if not remote.get("ok") or remote.get("result") != local:
                    out.problems.append(f"query: request {index} ({request['type']}) "
                                        f"differs from the in-process answer")
    finally:
        deployment.stop()
    out.details["checked"] = len(sample)


def _check_routed(ctx: Context, table: Path, requests, out: Outcome) -> None:
    """Routed answers are byte-identical to the single-node server's."""
    sample = _sample(requests, ctx.sizes.check_samples)
    routed = Deployment(ctx, table, routed=True)
    single = Deployment(ctx, table, routed=False)
    try:
        with Connection(routed.port) as via_router, Connection(single.port) as direct:
            for index in sample:
                payload = frame(_ID_BASE["check"] + index, requests[index])
                via_router.send(payload)
                direct.send(payload)
                if via_router.recv_raw() != direct.recv_raw():
                    out.problems.append(f"query-routed: request {index} "
                                        f"({requests[index]['type']}) is not "
                                        f"byte-identical to the single node's")
    finally:
        routed.stop()
        single.stop()
    out.details["checked"] = len(sample)


def _serving_traced(ctx, out, deployment, table, requests, routed) -> Outcome:
    """Each half is one open loop at the workload's rate against a freshly
    started deployment, with no warm-up: the client's latencies, the
    server's cumulative ``stats`` digests and the spans then describe the
    same requests (the digests also hold the one readiness ping)."""
    sizes = ctx.sizes
    half = 0.5 * ctx.seconds
    validate = _validator(requests)
    metrics = layers.empty()
    open_frames, open_ids = _frames(requests, "open")
    traced_frames, traced_ids = _frames(requests, "traced")
    # Untraced half: client latency, server stats and CPU per request.
    fronts = {child.name: child for child in deployment.children}
    cpu0 = {name: child.cpu_seconds() for name, child in fronts.items()}
    plain = _open(deployment.port, open_frames, open_ids, validate, sizes.query_rate, half)
    cpu = {name: child.cpu_seconds() - cpu0[name] for name, child in fronts.items()}
    plain_stats = _stats(deployment.port)
    shard_stats = {}
    if routed:
        for child in deployment.children[:-1]:
            shard_stats[child.name] = _stats(child.port)
    ctx.group.check_alive()
    deployment.stop()
    out.count(plain)
    _check_open_loop(plain, out)
    n = max(1, len(plain.latencies_ms))
    layers.stats_percentiles(plain_stats, metrics)
    client_p50 = percentile(plain.latencies_ms, 0.5)
    metrics["server.residual_ms"] = client_p50 - metrics["server.request_ms_p50"]
    if routed:
        metrics["router.cpu_ms_per_request"] = cpu["route"] * 1e3 / n
        metrics["server.cpu_ms_per_request"] = (
            sum(v for k, v in cpu.items() if k != "route") * 1e3 / n
        )
        shard_cache = [stats["inventory"].get("cache", {}) for stats in shard_stats.values()]
        merged = {key: sum(cache.get(key, 0) for cache in shard_cache)
                  for key in (layers.CACHE_HITS, layers.CACHE_MISSES, layers.CACHE_EVICTIONS)}
        layers.cache_metrics({"inventory": {"cache": merged}}, metrics)
        shards = plain_stats["inventory"].get("shards", {})
        metrics["router.failovers"] = float(_failovers(shards))
    else:
        metrics["server.cpu_ms_per_request"] = cpu["serve"] * 1e3 / n
        layers.cache_metrics(plain_stats, metrics)
    metrics["loadgen.late_p99_ms"] = percentile(plain.lateness_ms, 0.99)
    metrics["loadgen.achieved_rate"] = (len(plain.latencies_ms) / plain.elapsed_s) / plain.offered_rate

    # Traced half: the same stream through launcher-wrapped processes.
    spans_dir = ctx.path("spans")
    spans_dir.mkdir(exist_ok=True)
    traced_dep = Deployment(ctx, table, routed, spans_dir=spans_dir)
    traced = _open(traced_dep.port, traced_frames, traced_ids, validate, sizes.query_rate, half)
    traced_stats = _stats(traced_dep.port)
    ctx.group.check_alive()
    traced_dep.stop()
    out.count(traced)
    _check_open_loop(traced, out)
    # The front process keeps the open loop's requests only; the shards see
    # the router's own request ids, all of them on behalf of that loop.
    front_name = traced_dep.front.name
    traced_range = range(_ID_BASE["traced"], _ID_BASE["traced"] + len(requests))
    spans = {name: layers.Spans.load(path).request_scoped(
                 traced_range if name == front_name else None)
             for name, path in traced_dep.spans.items()}
    traced_mean = statistics.fmean(traced.latencies_ms) if traced.latencies_ms else 0.0
    metrics["trace.overhead_share"] = (
        percentile(traced.latencies_ms, 0.5) / client_p50 - 1.0 if client_p50 else 0.0
    )
    required = layers.REQUIRED[ctx.workload]
    if routed:
        router = spans["route"]
        shard_names = [name for name in spans if name != "route"]
        _require(out, router, required["router"], "route")
        for name in shard_names:
            _require(out, spans[name], required["shard"], name)
        handled = layers.serving_metrics(router, metrics)
        layers.router_metrics(router, metrics)
        # Storage lives in the shards: pool their spans per request.
        requests_routed = router.count("service.handle")
        shard_metrics = layers.empty()
        pooled = _pool([spans[name] for name in shard_names])
        layers.storage_read_metrics(pooled, requests_routed, shard_metrics)
        for name in ("backend.get_us", "backend.gets_per_request", "sstable.read_block_us",
                     "sstable.blocks_read_per_get", "codec.decode_calls_per_request",
                     "codec.decode_bytes_per_request", "summary.merge_us"):
            metrics[name] = shard_metrics[name]
        both = _pool([router, *(spans[name] for name in shard_names)])
        for metric, span in (("codec.decode_us", "codec.decode"),
                             ("codec.encode_us", "codec.encode"),
                             ("summary.from_dict_us", "summary.from_dict"),
                             ("summary.to_dict_us", "summary.to_dict")):
            metrics[metric] = both.mean_self_us(span)
        metrics["codec.encode_calls"] = both.count("codec.encode") / max(1, requests_routed)
        metrics["protocol.summary_wire_us"] = both.mean_self_us(
            "protocol.summary_to_wire", "protocol.summary_from_wire")
        front = router
    else:
        server = spans["serve"]
        _require(out, server, required["server"], "serve")
        handled = layers.serving_metrics(server, metrics)
        layers.storage_read_metrics(server, handled, metrics)
        front = server
    # Means add up where percentiles do not: the client's mean latency is
    # the handler (traced spans: every self time on the blocking path) plus
    # what the client saw beyond the server's own request time (socket,
    # frames, event loop), plus the server's queueing and thread hand-off,
    # which no span covers.  For the router, the shards' time sits inside
    # its client.request spans.
    server_mean = traced_stats["server"]["latency_ms"].get("mean_ms") or 0.0
    handle_mean = front.mean_wall_us("service.handle") / 1e3
    metrics["trace.accounted_share"] = (
        (handle_mean + traced_mean - server_mean) / traced_mean if traced_mean else 0.0
    )
    out.details.update({
        "traced_p50_ms": percentile(traced.latencies_ms, 0.5),
        "untraced_p50_ms": client_p50,
        "traced_client_mean_ms": traced_mean,
        "traced_server_mean_ms": server_mean,
        "handle_mean_ms": handle_mean,
        "blocking_path_self_ms_per_request": layers.self_ms_per_request(front, handled),
    })
    out.samples = {"untraced_open": len(plain.latencies_ms), "traced_open": len(traced.latencies_ms)}
    out.metrics = metrics
    if routed:
        _check_routed(ctx, table, requests, out)
    else:
        _check_query(ctx, table, deployment, requests, out)
    return out


def _pool(span_sets: list) -> "layers.Spans":
    """Several processes' spans as one set (ids are per process, so the
    pool keeps only per-name records, which is all the means need)."""
    pooled = layers.Spans({"names": [], "spans": []})
    for spans in span_sets:
        for name, records in spans.by_name.items():
            pooled.by_name[name].extend(records)
    return pooled


def _failovers(shard_stats: dict) -> int:
    """The router's failover counter from its ``stats`` answer."""
    from repro.server.router import FAILOVER

    return int(shard_stats.get("counters", {}).get(FAILOVER, 0))


def _require(out: Outcome, spans, names, process: str) -> None:
    for name in spans.fired(names):
        out.problems.append(f"traced {process}: wrapper {name} never fired")


def query(ctx: Context) -> Outcome:
    return serving(ctx, routed=False)


def query_routed(ctx: Context) -> Outcome:
    return serving(ctx, routed=True)


# -- ingest -----------------------------------------------------------------------


def _live_args(ctx: Context, directory: Path) -> list:
    return [
        "serve", "--live", directory, "--resolution", "6", "--port", "0",
        "--flush-records", str(ctx.sizes.flush_records),
        "--request-timeout", str(LIVE_REQUEST_TIMEOUT_S),
    ]


def _ingest_frames(records: list[dict]) -> list[bytes]:
    """The ingest frames, encoded up front: encoding 256 records holds the
    generator's interpreter lock for milliseconds, which would make the
    concurrent open-loop reader late."""
    return [
        frame(_ID_BASE["write"] + n, {"type": "ingest",
                                      "records": records[begin : begin + INGEST_BATCH]})
        for n, begin in enumerate(range(0, len(records), INGEST_BATCH))
    ]


class _Writer(threading.Thread):
    """Closed-loop ingest of the pre-encoded batches; the acked prefix of
    the records is what the concurrent reader may ask about."""

    def __init__(self, port: int, frames: list[bytes], records: int) -> None:
        super().__init__(name="perfbench-writer")
        self.port = port
        self.frames = frames
        self.records = records
        self.acked = 0
        self.stop_flag = threading.Event()
        self.first_ack = threading.Event()
        self.outcome = LoopOutcome()
        self.error: BaseException | None = None

    def run(self) -> None:
        try:
            with Connection(self.port, timeout=LIVE_REQUEST_TIMEOUT_S + 30) as conn:
                started = time.perf_counter()
                for n, payload in enumerate(self.frames):
                    if self.stop_flag.is_set():
                        break
                    size = min(INGEST_BATCH, self.records - n * INGEST_BATCH)
                    sent = time.perf_counter()
                    self.outcome.attempted += 1
                    conn.send(payload)
                    response = json.loads(conn.recv_raw())
                    done = time.perf_counter()
                    if not response.get("ok"):
                        self.outcome.fail(str((response.get("error") or {}).get("code")))
                        continue
                    if response["result"]["ingest"].get("accepted") != size:
                        self.outcome.fail("partial_ack")
                        continue
                    self.acked = n * INGEST_BATCH + size
                    self.outcome.latencies_ms.append((done - sent) * 1e3)
                    self.first_ack.set()
                self.outcome.elapsed_s = time.perf_counter() - started
        except BaseException as exc:  # surfaced by the caller after join
            self.error = exc
            self.first_ack.set()


def _ingest_phase(ctx: Context, port: int, records: list[dict], frames: list[bytes],
                  seconds: float, phase: str):
    """Writer + open-loop reader for ``seconds``: (writer, reader outcome)."""
    writer = _Writer(port, frames, len(records))
    writer.start()
    try:
        writer.first_ack.wait(60)
        rng = random.Random(ctx.seed + 7)
        base = _ID_BASE[phase]

        def make(i: int):
            record = records[rng.randrange(max(1, writer.acked))]
            return base + i, frame(base + i, {"type": "summary_at",
                                              "lat": record["lat"], "lon": record["lon"]})

        def validate(index: int, result: dict) -> str | None:
            return None if isinstance(result, dict) and result.get("summary") else "wrong_answer"

        with Connection(port) as conn:
            reads = open_loop(conn, make, validate, ctx.sizes.read_rate, seconds)
    finally:
        writer.stop_flag.set()
        writer.join(LIVE_REQUEST_TIMEOUT_S + 60)
    if writer.error is not None:
        raise writer.error
    return writer, reads


def ingest(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    out = Outcome()
    clock = SetupClock()
    archive = ctx.path("feed.csv")
    with clock.step("generate"):
        ctx.repro("generate", sizes.ingest_world.generate_args(archive))
    with clock.step("inputs"):
        records = ingest_records(archive)
        frames = _ingest_frames(records)
    live = None
    for attempt in range(sizes.setup_repeats):
        directory = ctx.path(f"live-{attempt}")
        with clock.repeat("deploy"):
            live = ctx.start("serve-live", _live_args(ctx, directory))
        if attempt < sizes.setup_repeats - 1:
            ctx.group.stop(live)
    out.details["setup"] = clock.details()
    out.details["records_available"] = len(records)
    if ctx.trace:
        return _ingest_traced(ctx, out, live, records, frames)

    writer, reads = _ingest_phase(ctx, live.port, records, frames, ctx.seconds, "read")
    stats = _stats(live.port)["inventory"]["ingest"]
    ctx.group.check_alive()
    rss = live.peak_rss_mb()
    _check_ingest(ctx, live.port, records[: writer.acked], stats, out)
    ctx.group.stop(live)
    disk = sum(path.stat().st_size for path in directory.iterdir() if path.is_file())
    out.count(writer.outcome)
    out.count(reads)
    _check_open_loop(reads, out)
    _check_cycles(ctx, stats, out)
    acks = writer.outcome.latencies_ms
    out.samples = {"batches": len(acks), "reads": len(reads.latencies_ms)}
    out.details.update({
        "acked_records": writer.acked,
        "flushes": stats["flushes"],
        "compactions": stats["compactions"],
        "backpressure_waits": stats["backpressure_waits"],
        "read_tail": tail(reads.latencies_ms),
        "batch_p50_ms": percentile(acks, 0.5),
        "batch_tail": tail(acks),
        "max_batch_ms": max(acks) if acks else 0.0,
        "loadgen_late_p99_ms": percentile(reads.lateness_ms, 0.99),
    })
    out.metrics = {
        "setup_s": clock.total(),
        "throughput_per_s": writer.acked / writer.outcome.elapsed_s,
        # As measured: this p50 sits just above the interpreter's 5 ms
        # thread switch interval (a read waits for the write batch holding
        # the lock), a wall-clock constant, and it held within 4 % over ten
        # runs in which the host's speed swung by a quarter.
        "p50_ms": percentile(reads.latencies_ms, 0.5),
        "bytes_per_record": disk / writer.acked,
        "peak_rss_mb": rss,
    }
    return out


def _check_cycles(ctx: Context, stats: dict, out: Outcome) -> None:
    if stats["flushes"] < ctx.sizes.min_flushes or stats["compactions"] < ctx.sizes.min_compactions:
        out.problems.append(
            f"ingest completed {stats['flushes']} flushes and "
            f"{stats['compactions']} compactions; the run needs at least "
            f"{ctx.sizes.min_flushes} and {ctx.sizes.min_compactions}"
        )


def _check_ingest(ctx: Context, port: int, acked: list[dict], stats: dict, out: Outcome) -> None:
    """The server holds exactly the acked records: its count matches, and
    sampled keys' record counts equal an in-process Memtable fold."""
    from repro.hexgrid import cell_to_latlng
    from repro.inventory.memtable import IngestRecord, Memtable

    if stats["records_ingested"] != len(acked):
        out.problems.append(f"ingest: server counted {stats['records_ingested']} "
                            f"records, {len(acked)} were acked")
    memtable = Memtable(6)
    for record in acked:
        memtable.apply(IngestRecord.from_wire(record))
    keys = sorted(
        (key for key in memtable.groups if key.origin is None),
        key=lambda key: (key.cell, key.vessel_type or ""),
    )
    sample = random.Random(ctx.seed).sample(keys, min(len(keys), 4 * ctx.sizes.check_samples))
    from repro.server.protocol import summary_from_wire

    with Connection(port) as conn:
        for n, key in enumerate(sample):
            lat, lon = cell_to_latlng(key.cell)
            request = {"id": _ID_BASE["check"] + n, "type": "summary_at", "lat": lat, "lon": lon}
            if key.vessel_type is not None:
                request["vessel_type"] = key.vessel_type
            response = conn.call(request)
            wire = response.get("result", {}).get("summary") if response.get("ok") else None
            remote = None if wire is None else summary_from_wire(wire).records
            if remote != memtable.groups[key].records:
                out.problems.append(f"ingest: key {key} holds {remote} records, "
                                    f"the in-process fold {memtable.groups[key].records}")
    out.details["checked"] = len(sample)


def _ingest_traced(ctx: Context, out: Outcome, live, records: list[dict],
                   frames: list[bytes]) -> Outcome:
    metrics = layers.empty()
    half = 0.5 * ctx.seconds
    cpu0 = live.cpu_seconds()
    writer, reads = _ingest_phase(ctx, live.port, records, frames, half, "read")
    cpu = live.cpu_seconds() - cpu0
    plain_stats = _stats(live.port)
    ctx.group.check_alive()
    _check_ingest(ctx, live.port, records[: writer.acked], plain_stats["inventory"]["ingest"], out)
    ctx.group.stop(live)
    out.count(writer.outcome)
    out.count(reads)
    _check_open_loop(reads, out)
    plain_rate = writer.acked / writer.outcome.elapsed_s
    layers.stats_percentiles(plain_stats, metrics)
    metrics["server.residual_ms"] = percentile(reads.latencies_ms, 0.5) - metrics["server.request_ms_p50"]
    metrics["server.cpu_ms_per_request"] = cpu * 1e3 / max(1, writer.outcome.attempted + reads.attempted)
    metrics["loadgen.late_p99_ms"] = percentile(reads.lateness_ms, 0.99)
    metrics["loadgen.achieved_rate"] = (len(reads.latencies_ms) / reads.elapsed_s) / reads.offered_rate

    spans_dir = ctx.path("spans")
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / "serve-live.json"
    traced_live = ctx.start("serve-live-traced", _live_args(ctx, ctx.path("live-traced")), spans_path)
    t_writer, t_reads = _ingest_phase(ctx, traced_live.port, records, frames, half, "traced")
    traced_stats = _stats(traced_live.port)
    ingest_stats = traced_stats["inventory"]["ingest"]
    ctx.group.check_alive()
    _check_ingest(ctx, traced_live.port, records[: t_writer.acked], ingest_stats, out)
    ctx.group.stop(traced_live)
    out.count(t_writer.outcome)
    out.count(t_reads)
    _check_open_loop(t_reads, out)
    # The traced half's spans must cover flushes and a tier compaction.
    _check_cycles(ctx, ingest_stats, out)
    spans = layers.Spans.load(spans_path)
    _require(out, spans, layers.REQUIRED["ingest"]["server"], "serve-live")
    handled = layers.serving_metrics(spans, metrics)
    reads_handled = len(spans.handle_self_by_type().get("summary_at", ()))
    layers.storage_read_metrics(spans, max(1, reads_handled), metrics)
    layers.ingest_metrics(spans, metrics)
    layers.cache_metrics(traced_stats, metrics)
    metrics["live.backpressure_waits"] = float(ingest_stats["backpressure_waits"])
    metrics["live.backpressure_timeouts"] = float(ingest_stats["backpressure_timeouts"])
    metrics["maintenance.flushes"] = float(ingest_stats["flushes"])
    metrics["maintenance.compactions"] = float(ingest_stats["compactions"])
    traced_rate = t_writer.acked / t_writer.outcome.elapsed_s
    metrics["trace.overhead_share"] = plain_rate / traced_rate - 1.0 if traced_rate else 0.0
    # The share of LiveInventory.ingest time spent in its traced children
    # (WAL, memtable, record encoding); the rest is valve and lock waits.
    ingests = spans.by_name.get("live.ingest", ())
    ingest_wall = sum(rec[4] for rec in ingests)
    metrics["trace.accounted_share"] = (
        1.0 - sum(rec[5] for rec in ingests) / ingest_wall if ingest_wall else 0.0
    )
    valve = [rec[4] / 1e3 for rec in spans.by_name.get("live.valve", ())]
    sizes_under_valve = spans.under("live.table_sizes", "live.valve")
    out.details["valve"] = {
        "calls": len(valve),
        "p50_ms": percentile(valve, 0.5) if valve else None,
        "p99_ms": percentile(valve, 0.99) if valve else None,
        "max_ms": max(valve, default=None),
        "table_sizes_calls": len(sizes_under_valve),
        "table_sizes_max_ms": max((rec[4] / 1e3 for rec in sizes_under_valve), default=None),
        "ingest_wait_max_ms": max(layers.ingest_waits_ms(spans), default=None),
    }
    out.details.update({"handled": handled, "plain_rate": plain_rate, "traced_rate": traced_rate,
                        "traced_flushes": ingest_stats["flushes"],
                        "traced_compactions": ingest_stats["compactions"]})
    out.samples = {"untraced_reads": len(reads.latencies_ms), "traced_reads": len(t_reads.latencies_ms),
                   "traced_batches": len(t_writer.outcome.latencies_ms)}
    out.metrics = metrics
    return out


# -- build ------------------------------------------------------------------------


def build(ctx: Context) -> Outcome:
    sizes = ctx.sizes
    out = Outcome()
    clock = SetupClock()
    world = ctx.path("world.csv")
    archive = ctx.path("archive.csv")
    for _ in range(sizes.archive_repeats):
        with clock.repeat("generate"):
            ctx.repro("generate", sizes.build_world.generate_args(world))
            shuffled_archive(world, archive, ctx.seed)
    out.details["setup"] = clock.details()
    if ctx.trace:
        return _build_traced(ctx, out, archive)

    walls, rss, tables = [], [], []
    started = time.perf_counter()
    output = ""
    while not walls or time.perf_counter() - started < ctx.seconds:
        table = ctx.path(f"built-{len(walls)}.sst")
        wall, peak, output = ctx.repro("build", ["build", "--archive", archive, "--out", table])
        walls.append(wall)
        rss.append(peak)
        tables.append(table)
        out.attempted += 1
    raw = _raw_reports(output)
    final = tables[-1]
    _check_build(ctx, archive, final, output, out)
    out.samples = {"builds": len(walls)}
    out.details["table_bytes"] = final.stat().st_size
    out.details["raw_reports"] = raw
    out.details["build_s"] = walls
    out.metrics = {
        "setup_s": clock.total(),
        "throughput_per_s": raw * len(walls) / sum(walls),
        "p50_ms": percentile(walls, 0.5) * 1e3,
        "bytes_per_record": _table_bytes(final) / raw,
        "peak_rss_mb": max(rss),
    }
    return out


def _check_build(ctx: Context, archive: Path, table: Path, output: str, out: Outcome) -> None:
    """Funnel counts and entries equal an in-memory build of the same
    archive, and ``repro fsck`` passes on the table."""
    from repro import PipelineConfig, build_inventory
    from repro.ais import read_csv
    from repro.cli import _fleet_sidecar, _read_fleet
    from repro.inventory import SSTableInventory
    from repro.world.ports import PORTS

    result = build_inventory(list(read_csv(archive)), _read_fleet(_fleet_sidecar(archive)),
                             PORTS, PipelineConfig())
    printed = _funnel(output)
    for stage, count in result.funnel.items():
        if printed.get(stage) != count:
            out.problems.append(f"build: funnel {stage} printed {printed.get(stage)}, "
                                f"in-memory {count}")
    expected = dict(result.inventory.items())
    with SSTableInventory(table) as backend:
        stored = list(backend.items())
    if len(stored) != len(expected):
        out.problems.append(f"build: {len(stored)} entries, in-memory {len(expected)}")
    for key, summary in stored:
        if key not in expected or expected[key].to_dict() != summary.to_dict():
            out.problems.append(f"build: entry {key} differs from the in-memory build")
            break
    ctx.repro("fsck", ["fsck", "--inventory", table])
    out.details["checked_entries"] = len(stored)


def _build_traced(ctx: Context, out: Outcome, archive: Path) -> Outcome:
    metrics = layers.empty()
    plain_wall, _, output = ctx.repro("build", ["build", "--archive", archive,
                                                "--out", ctx.path("plain.sst")])
    spans_path = ctx.path("build-spans.json")
    table = ctx.path("traced.sst")
    traced_wall, _, traced_output = ctx.repro(
        "build-traced", ["build", "--archive", archive, "--out", table], spans=spans_path)
    out.attempted = 2
    _check_build(ctx, archive, table, traced_output, out)
    raw = _raw_reports(output)
    spans = layers.Spans.load(spans_path)
    _require(out, spans, layers.REQUIRED["build"]["builder"], "build")
    out.problems += layers.build_metrics(spans, raw, table.stat().st_size, metrics)
    metrics["trace.overhead_share"] = traced_wall / plain_wall - 1.0
    # The rest of the wall time is interpreter start-up, imports and the
    # engine's own bookkeeping between kernels.
    metrics["trace.accounted_share"] = spans.outermost_s() / traced_wall
    out.details.update({"plain_build_s": plain_wall, "traced_build_s": traced_wall,
                        "program_spans_s": _summed(spans.program_spans)})
    out.samples = {"builds": 2}
    out.metrics = metrics
    return out


def _summed(named_seconds) -> dict[str, float]:
    """Seconds per name, summed over (name, seconds) pairs."""
    totals: dict[str, float] = {}
    for name, seconds in named_seconds:
        totals[name] = totals.get(name, 0.0) + seconds
    return totals


WORKLOADS = {
    "query": query,
    "query-routed": query_routed,
    "ingest": ingest,
    "build": build,
}

