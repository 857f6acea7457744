"""The load generator: framed connections, a closed loop and an open loop.

Frames are the server's wire format, built and parsed with the program's
own ``repro.server.protocol`` functions, so the generator speaks whatever
that module speaks.  Request ids are unique across a run (each loop draws
from its own id range), so spans recorded in the servers can be grouped
per request.

- :func:`closed_loop` — N connections polled by one thread; a connection
  sends its next request only after the previous answer lands.
- :func:`open_loop` — one thread, one connection; request *i* is due at
  ``start + i / rate`` and is sent then, whatever the server is doing.
  Latency is measured from the due time, so a stall also delays every
  request queued behind it; the sender's own lateness is reported.
"""

from __future__ import annotations

import contextlib
import gc
import json
import selectors
import socket
import struct
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.server import protocol

_LENGTH = struct.Struct(">I")
#: The open loop polls instead of sleeping this close to a due time (at
#: the rates used here: always, on the core the generator owns).
SPIN_S = 0.1


class Connection:
    """One blocking TCP connection speaking length-prefixed frames."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.timeout = timeout
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def recv_raw(self) -> bytes:
        """The next response payload (JSON bytes, without the prefix)."""
        while True:
            payload = self.pop_payload()
            if payload is not None:
                return payload
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk

    def pop_payload(self) -> bytes | None:
        """A complete payload already buffered, or None."""
        if len(self._buffer) < 4:
            return None
        (length,) = _LENGTH.unpack_from(self._buffer)
        if len(self._buffer) < 4 + length:
            return None
        payload = bytes(self._buffer[4 : 4 + length])
        del self._buffer[: 4 + length]
        return payload

    def feed(self) -> bool:
        """Read what the socket has (non-blocking use); False on EOF."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            return False
        self._buffer += chunk
        return True

    def call(self, message: dict) -> dict:
        self.send(protocol.encode_frame(message))
        return protocol.decode_payload(self.recv_raw())

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@contextlib.contextmanager
def collector_paused():
    """No cyclic garbage collection while a loop runs: a full collection
    over the request stream's objects would stall the generator for
    milliseconds and show up as server latency (responses are freed by
    reference counting either way)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def frame(request_id: int, request: dict) -> bytes:
    return protocol.encode_frame({"id": request_id, **request})


@dataclass
class Outcome:
    """What one loop saw: latencies of good answers, and failures."""

    latencies_ms: list[float] = field(default_factory=list)
    #: Stream index of each answer in ``latencies_ms``.
    indices: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    elapsed_s: float = 0.0
    lateness_ms: list[float] = field(default_factory=list)
    offered_rate: float = 0.0

    def fail(self, code: str) -> None:
        self.failed += 1
        self.errors[code] = self.errors.get(code, 0) + 1

    def merge(self, other: "Outcome") -> None:
        self.latencies_ms += other.latencies_ms
        self.indices += other.indices
        self.attempted += other.attempted
        self.failed += other.failed
        for code, count in other.errors.items():
            self.errors[code] = self.errors.get(code, 0) + count
        self.lateness_ms += other.lateness_ms


#: Checks one decoded response against what was asked; returns an error
#: code ("wrong_answer", a protocol error code) or None when it is good.
Validator = Callable[[int, dict], "str | None"]


def judge(response: dict, index: int, validate: Validator) -> str | None:
    if not response.get("ok"):
        error = response.get("error") or {}
        return str(error.get("code", "error"))
    return validate(index, response.get("result"))


def closed_loop(
    port: int,
    frames: list[bytes],
    ids: list[int],
    validate: Validator,
    seconds: float,
    connections: int = 2,
    first_index: int = 0,
) -> Outcome:
    """``connections`` connections, each sending the stream's next frame
    (cycling through ``frames`` from ``first_index``) as soon as its own
    previous answer lands, until ``seconds`` have passed.

    One thread polls every connection: a thread blocked in ``recv`` takes
    ~0.5 ms to wake on a virtual CPU, which would be charged to the server
    as latency and lost capacity."""
    outcome = Outcome()
    n = len(frames)
    conns = [Connection(port) for _ in range(connections)]
    selector = selectors.DefaultSelector()
    in_flight: dict[int, tuple[int, float]] = {}
    next_index = first_index

    def send(slot: int) -> None:
        nonlocal next_index
        index = next_index % n
        next_index += 1
        outcome.attempted += 1
        in_flight[slot] = (index, time.perf_counter())
        conns[slot].send(frames[index])

    try:
        with collector_paused():
            started = time.perf_counter()
            stop_at = started + seconds
            for slot, conn in enumerate(conns):
                selector.register(conn.sock, selectors.EVENT_READ, slot)
                send(slot)
            while in_flight:
                for key, _ in selector.select(0):
                    slot = key.data
                    conn = conns[slot]
                    # Readable, so this recv returns at once.
                    if not conn.feed():
                        outcome.fail("connection_closed")
                        in_flight.pop(slot)
                        selector.unregister(conn.sock)
                        continue
                    payload = conn.pop_payload()
                    if payload is None:
                        continue
                    done = time.perf_counter()
                    index, sent = in_flight.pop(slot)
                    response = json.loads(payload)
                    if response.get("id") != ids[index]:
                        outcome.fail("id_mismatch")
                    else:
                        code = judge(response, index, validate)
                        if code is None:
                            outcome.latencies_ms.append((done - sent) * 1e3)
                            outcome.indices.append(index)
                        else:
                            outcome.fail(code)
                    if done < stop_at:
                        send(slot)
            outcome.elapsed_s = time.perf_counter() - started
    finally:
        selector.close()
        for conn in conns:
            conn.close()
    return outcome


def open_loop(
    conn: Connection,
    make: Callable[[int], tuple[int, bytes]],
    validate: Validator,
    rate: float,
    seconds: float,
    drain_s: float = 60.0,
) -> Outcome:
    """Send ``make(i)`` = (request id, frame) at ``start + i / rate`` for
    ``seconds``.

    One thread: it sends each frame at its due time and reads responses in
    between.  Each request is timed from its due time, not its send time;
    ``make`` runs at the due time (so ingest can pick a key among the
    records acknowledged so far)."""
    outcome = Outcome(offered_rate=rate)
    count = max(1, int(rate * seconds))
    position: dict[int, int] = {}
    due: list[float] = []
    pending = 0
    selector = selectors.DefaultSelector()
    conn.sock.setblocking(False)
    selector.register(conn.sock, selectors.EVENT_READ)
    start = time.perf_counter() + 0.01
    next_index = 0
    paused = collector_paused()
    paused.__enter__()
    try:
        while next_index < count or pending:
            now = time.perf_counter()
            if next_index < count:
                due_at = start + next_index / rate
                if now >= due_at:
                    request_id, payload = make(next_index)
                    position[request_id] = next_index
                    due.append(due_at)
                    sent = time.perf_counter()
                    outcome.lateness_ms.append((sent - due_at) * 1e3)
                    conn.sock.settimeout(conn.timeout)
                    conn.send(payload)
                    conn.sock.setblocking(False)
                    outcome.attempted += 1
                    pending += 1
                    next_index += 1
                    continue
                wait = due_at - now
            else:
                wait = start + count / rate + drain_s - now
                if wait <= 0:
                    outcome.failed += pending
                    outcome.errors["no_response"] = pending
                    break
            # Busy-poll near a due time: waking a sleeping
            # thread costs ~0.5 ms on a virtual CPU, which would show up
            # both as sender lateness and as response latency.
            if selector.select(wait - SPIN_S if wait > SPIN_S else 0):
                if not conn.feed():
                    outcome.failed += pending
                    outcome.errors["connection_closed"] = pending
                    break
                arrived = time.perf_counter()
                while (payload := conn.pop_payload()) is not None:
                    response = json.loads(payload)
                    index = position.pop(response.get("id"), None)
                    pending -= 1
                    if index is None:
                        outcome.fail("id_mismatch")
                        continue
                    code = judge(response, index, validate)
                    if code is None:
                        outcome.latencies_ms.append((arrived - due[index]) * 1e3)
                        outcome.indices.append(index)
                    else:
                        outcome.fail(code)
    finally:
        paused.__exit__(None, None, None)
        selector.unregister(conn.sock)
        selector.close()
        conn.sock.settimeout(conn.timeout)
    outcome.elapsed_s = time.perf_counter() - start
    return outcome


def tail(values: list[float], beyond: int = 10) -> dict:
    """The highest percentile (in hundredths) that still has ``beyond``
    samples above it, with the sample count: ``{"q", "ms", "n"}``, where
    ``q`` and ``ms`` are None when there are too few samples."""
    n = len(values)
    if n <= beyond:
        return {"q": None, "ms": None, "n": n}
    q = int((1.0 - beyond / n) * 100) / 100
    return {"q": q, "ms": percentile(values, q), "n": n}


def percentile(values: list[float], q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; NaN when empty."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
