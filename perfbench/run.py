"""Cross-process inventory benchmark (see perfbench/README.md).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

Workloads: ``query``, ``query-routed``, ``ingest``, ``build``.  The run
generates its inputs from the seed, starts the real ``repro`` CLI
processes pinned to one core (the load generator pins itself to the
other), measures for ``--seconds``, checks the answers, stops and reaps
every process, and prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then through ``perfbench/launcher.py`` and reports
the per-layer metrics.  The line before it (``report: {...}``) carries the
stamp, sample counts and check details; the same report is written under
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro" / "cli.py").is_file():
    print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import stamp as stamps  # noqa: E402
from perfbench.workloads import WORKLOADS, Context  # noqa: E402

#: Unit of every metric this benchmark can print (BENCHMARK.json mirrors it).
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "bytes_per_record": "B",
    "peak_rss_mb": "MB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds (the benchmark's own tests); the "
                             "result is stamped as a smoke run")
    return parser.parse_args(argv)


def _terminate(signum, frame):
    # Unwind through the finally below, so every started process is reaped.
    sys.exit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    # Servers are stopped with SIGINT (the CLI's graceful drain).  A shell
    # without job control starts background commands with SIGINT ignored,
    # and an ignored signal stays ignored across exec; a handled one is
    # reset to the default, so the children get their own SIGINT handling.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from perfbench.layers import PER_LAYER_UNITS

    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        smoke=args.smoke,
        workdir=workdir,
    )
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        ctx.close()
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    problems = outcome.problems + ctx.group.died
    if outcome.failed:
        problems.append(f"{outcome.failed} of {outcome.attempted} operations failed: "
                        f"{outcome.errors}")
    report = {
        "stamp": stamps.stamp(ctx),
        "wall_s": time.perf_counter() - started,
        "problems": problems,
        "samples": outcome.samples,
        "errors": outcome.errors,
        "details": outcome.details,
        "metrics": metrics,
    }
    stamps.save(ROOT, report)
    print("report: " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": max(1, int(outcome.attempted)),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
