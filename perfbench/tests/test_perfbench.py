"""The benchmark's own tests, on tiny worlds (``--smoke``).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import launcher, layers, loadgen  # noqa: E402
from perfbench.procs import ProcessGroup, child_env, port_open, repro_argv  # noqa: E402
from perfbench.run import E2E_UNITS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True,
        text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = json.loads(lines[-2][len("report: "):])
    return {"result": result, "report": report}


# -- names ------------------------------------------------------------------------


def test_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER_UNITS


def test_required_spans_are_launcher_targets():
    traced = {name for _, _, name, _ in launcher.TARGETS} | {
        "maintenance.flush", "maintenance.tier",
    }
    for per_process in layers.REQUIRED.values():
        for names in per_process.values():
            assert set(names) <= traced


# -- wrappers ---------------------------------------------------------------------

_REBOUND_PROBE = """
import sys
from perfbench import launcher
recorder = launcher.SpanRecorder()
launcher.install(recorder)
import repro.inventory.backend as backend, repro.inventory.live as live
import repro.server.service as service, repro.cli as cli, repro.pipeline.run as run
for module, name in ((backend, "decode"), (live, "encode"), (service, "summary_to_wire"),
                     (cli, "read_csv"), (run, "merge_tables")):
    assert hasattr(getattr(module, name), "__wrapped__"), (module.__name__, name)
print("ok")
"""


def test_from_imports_are_wrapped_where_looked_up():
    done = subprocess.run([sys.executable, "-c", _REBOUND_PROBE], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "ok", done.stderr


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_wrapper_fires_on_traced_smoke_run(workload):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "4",
                    "--trace", "1", "--smoke")
    assert out["report"]["problems"] == []
    assert out["result"]["correct"] is True
    assert set(out["result"]["metrics"]) == set(layers.PER_LAYER_UNITS)
    assert out["report"]["stamp"]["mode"] == "smoke"


def test_e2e_smoke_run_prints_every_metric():
    out = run_bench("--workload", "query", "--seed", "1", "--seconds", "3",
                    "--trace", "0", "--smoke")
    assert out["result"]["correct"] is True
    metrics = out["result"]["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == E2E_UNITS
    assert all(m["value"] > 0 for m in metrics.values())


# -- open loop --------------------------------------------------------------------


def _slow_first_server(delay_s: float):
    """A frame server that holds its first answer for ``delay_s``."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        reader = conn.makefile("rb")
        first = True
        while True:
            header = reader.read(4)
            if len(header) < 4:
                break
            payload = reader.read(struct.unpack(">I", header)[0])
            if first:
                time.sleep(delay_s)
                first = False
            request = json.loads(payload)
            body = json.dumps({"id": request["id"], "ok": True, "result": {}}).encode()
            conn.sendall(struct.pack(">I", len(body)) + body)
        conn.close()
        listener.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return listener.getsockname()[1], thread


def test_open_loop_times_from_the_due_time():
    port, thread = _slow_first_server(0.3)
    with loadgen.Connection(port) as conn:
        outcome = loadgen.open_loop(
            conn, lambda i: (i, loadgen.frame(i, {"type": "ping"})),
            lambda i, result: None, rate=50.0, seconds=0.2,
        )
    thread.join(5)
    assert outcome.attempted == 10 and outcome.failed == 0
    # Request 5 was due 100 ms after request 0 but queued behind its
    # 300 ms stall: timed from its due time it waited ~200 ms, while the
    # sender itself was never late.
    assert outcome.latencies_ms[5] > 150.0
    assert max(outcome.lateness_ms) < 50.0


# -- reaping ----------------------------------------------------------------------


def test_servers_are_reaped_and_ports_freed_when_a_check_fails(tmp_path):
    archive = tmp_path / "a.csv"
    table = tmp_path / "t.sst"
    for args in (["generate", "--seed", "42", "--vessels", "8", "--days", "7",
                  "--out", str(archive)],
                 ["build", "--archive", str(archive), "--out", str(table)]):
        subprocess.run(repro_argv(args), check=True, env=child_env(), capture_output=True,
                       timeout=300)
    children = []
    with pytest.raises(AssertionError):
        with ProcessGroup(tmp_path, server_cpu=0) as group:
            keeper = group.keep_busy()
            deadline = time.monotonic() + 10
            while os.sched_getscheduler(keeper.pid) != os.SCHED_IDLE:
                assert time.monotonic() < deadline, "the idle keeper never took SCHED_IDLE"
                time.sleep(0.01)
            for name in ("a", "b"):
                child = group.start(name, repro_argv(["serve", "--inventory", str(table),
                                                      "--port", "0"]))
                child.wait_serving()
                children.append(child)
            assert False, "a failing check"
    assert len(children) == 2
    assert keeper.proc.poll() is not None
    for child in children:
        assert child.proc.poll() is not None
        assert not port_open(child.port)
