"""Child processes of one benchmark run: start, pin, probe, reap.

Every ``repro`` process the benchmark starts goes through
:class:`ProcessGroup`, which pins it to the server core, records its CPU
affinity for the result stamp, and on exit stops it (SIGINT, the CLI's
graceful drain), waits for it, kills it if the drain hangs and checks that
its port is free again.  ``with ProcessGroup() as group:`` reaps even when a
check inside the block raises.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"

_SERVING = re.compile(r"serving on ([\d.]+):(\d+)")
#: Keeps the server core busy at the lowest priority (SCHED_IDLE), so that
#: core never goes idle.  A virtual CPU woken from idle waits for the
#: host's scheduler, and that delay swings with the host's load: at
#: 25 requests/s the routed p50 read 5.8-6.6 ms with window swings up to
#: 16 ms, and 4.0-4.2 ms with this process running.  Any thread of the
#: servers preempts it at once, and it holds no memory to speak of.
_IDLE_KEEPER = (
    "import os, signal\n"
    "signal.signal(signal.SIGINT, signal.SIG_DFL)\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while True:\n"
    "    pass\n"
)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_plan() -> tuple[int, int]:
    """(server core, generator core): the first two CPUs this process may
    use; both are the same core on a one-CPU machine."""
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[0], cpus[1] if len(cpus) > 1 else cpus[0]


def child_env() -> dict[str, str]:
    """The environment every child runs with: the checkout's ``src`` on
    the import path and no inherited tracing of Python itself."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDEVMODE", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def repro_argv(args: list[str], spans: Path | None = None) -> list[str]:
    """The argv that runs ``repro <args>``, through the traced launcher
    when ``spans`` names its output file."""
    if spans is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(LAUNCHER), str(spans), *args]


class Child:
    """One started process, with its log file and bound address."""

    def __init__(self, name: str, proc: subprocess.Popen, log: Path) -> None:
        self.name = name
        self.proc = proc
        self.log = log
        self.port: int | None = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def alive(self) -> bool:
        return self.proc.poll() is None

    def wait_serving(self, timeout: float = 60.0) -> int:
        """Block until the log names the bound port and it answers a ping."""
        from perfbench.loadgen import Connection

        deadline = time.monotonic() + timeout
        while self.port is None:
            if not self.alive():
                raise RuntimeError(f"{self.name} exited early:\n{self.log_text()}")
            match = _SERVING.search(self.log_text())
            if match:
                self.port = int(match.group(2))
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} did not start:\n{self.log_text()}")
            time.sleep(0.005)
        while True:
            try:
                with Connection(self.port, timeout=5.0) as conn:
                    if conn.call({"id": 0, "type": "ping"}).get("ok"):
                        return self.port
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"{self.name} never answered a ping")
            time.sleep(0.005)

    def log_text(self) -> str:
        try:
            return self.log.read_text(errors="replace")
        except OSError:
            return ""

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the live process, in MiB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError(f"no VmHWM for {self.name}")

    def cpu_seconds(self) -> float:
        """user + system CPU time of the live process so far."""
        with open(f"/proc/{self.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class ProcessGroup:
    """Owns every child of a run; ``close`` stops and reaps them all."""

    def __init__(self, workdir: Path, server_cpu: int) -> None:
        self.workdir = workdir
        self.server_cpu = server_cpu
        self.children: list[Child] = []
        self.affinity: dict[str, list[int]] = {}
        self.died: list[str] = []

    def start(self, name: str, argv: list[str]) -> Child:
        """Start ``argv`` pinned to the server core, output to a log."""
        log = self.workdir / f"{name}.log"
        cpu = self.server_cpu
        pin = (lambda: os.sched_setaffinity(0, {cpu})) if threading.active_count() == 1 else None
        with open(log, "wb") as out:
            proc = subprocess.Popen(
                argv,
                cwd=self.workdir,
                stdout=out,
                stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
                env=child_env(),
                preexec_fn=pin,
            )
        if pin is None:
            os.sched_setaffinity(proc.pid, {cpu})
        child = Child(name, proc, log)
        self.children.append(child)
        self.affinity[name] = sorted(os.sched_getaffinity(proc.pid))
        return child

    def keep_busy(self) -> Child:
        """Start the idle keeper on the server core (stopped by ``close``;
        if it cannot take the idle priority it exits, and
        ``check_alive`` reports it)."""
        return self.start("idle-keeper", [sys.executable, "-c", _IDLE_KEEPER])

    def run(self, name: str, argv: list[str], timeout: float = 170.0) -> tuple[float, float, str]:
        """Run a command to completion: (wall seconds, peak RSS MiB, output).

        Raises when it exits non-zero."""
        child = self.start(name, argv)
        started = time.perf_counter()
        try:
            _, status, usage = _wait4(child.proc, timeout)
        finally:
            self.children.remove(child)
        wall = time.perf_counter() - started
        output = child.log_text()
        if status != 0:
            raise RuntimeError(f"{name} failed (status {status}):\n{output}")
        return wall, usage.ru_maxrss / 1024.0, output

    def stop(self, child: Child, timeout: float = 30.0) -> None:
        """Graceful stop (SIGINT), then kill; waits and checks the port."""
        if child.alive():
            child.proc.send_signal(signal.SIGINT)
            try:
                child.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                child.proc.kill()
                child.proc.wait(10)
        elif child.proc.returncode not in (0, None):
            self.died.append(f"{child.name} exited with {child.proc.returncode}")
        if child in self.children:
            self.children.remove(child)
        if child.port is not None:
            wait_port_free(child.port)

    def check_alive(self) -> None:
        """Record every child that died while it should have been serving."""
        for child in self.children:
            if not child.alive():
                self.died.append(f"{child.name} exited with {child.proc.returncode}")

    def close(self) -> None:
        for child in list(self.children):
            self.stop(child)

    def __enter__(self) -> "ProcessGroup":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _wait4(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` with a deadline: the child's own rusage (peak RSS)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return pid, proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            raise RuntimeError(f"{proc.args[:4]} timed out after {timeout}s")
        time.sleep(0.002)


def port_open(port: int) -> bool:
    with socket.socket() as sock:
        sock.settimeout(0.5)
        return sock.connect_ex(("127.0.0.1", port)) == 0


def wait_port_free(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while port_open(port):
        if time.monotonic() > deadline:
            raise RuntimeError(f"port {port} still accepts connections")
        time.sleep(0.01)
