"""The benchmark's load client: one connection, pre-encoded frames.

Two generators share one receive path:

* :func:`closed_loop` keeps up to ``window`` requests outstanding and
  refills as responses complete, so it measures capacity;
* :func:`paced` sends on a fixed schedule (request ``i`` is due at
  ``t0 + i / rate``) whether or not responses have come back, and each
  request is later timed from when it was *due*, so a stall in the
  server is charged to every request that was due during it.

Nothing is decoded while the clock runs: every response byte is kept in
one buffer and each received chunk is stamped once, right after
``recv`` returns.  Frames are matched to requests afterwards by id
(:func:`response_times`).  Frames carry ids ``0..len(frames)-1``; a
phase longer than the frame list cycles it, so the ``k``-th response
for id ``j`` answers sequence number ``k * len(frames) + j``.  The
client's garbage collector is paused while a phase runs, so its pauses
are not charged to the server.
"""

from __future__ import annotations

import contextlib
import gc
import json
import select
import socket
import struct
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

_LEN = struct.Struct("<I")
#: binary DECIDE_RESP / ERROR heads after the length word
_RESP_ID = struct.Struct("<xQ")
_ERROR_ID = struct.Struct("<xBQ")
_FRAME_DECIDE_RESP = 0x11
_FRAME_ERROR = 0x12
_FRAME_HELLO_ACK = 0x02
#: the paced generator wakes at least this often while requests are due
TICK_S = 50e-6
#: how long past its last due time a paced phase waits for responses
#: (a server at a third of its usual capacity still answers them all)
DRAIN_S = 15.0
#: how long a blocking receive waits before the connection counts as lost
TIMEOUT_S = 30.0


@dataclass
class Exchange:
    """Everything one phase sent and received on its connection."""

    binary: bool
    #: requests handed to the socket
    sent: int = 0
    #: complete response frames received
    completed: int = 0
    #: every response byte, in arrival order
    received: bytearray = field(default_factory=bytearray)
    #: (receive time, end offset in ``received``, complete frames so far)
    #: per chunk
    chunks: List[Tuple[float, int, int]] = field(default_factory=list)
    #: paced only: (send time, first sequence number, count) per batch
    batches: List[Tuple[float, int, int]] = field(default_factory=list)
    #: when the phase started (paced: when request 0 was due); paced
    #: only: the rate
    t0: float = 0.0
    rate: float = 0.0
    elapsed: float = 0.0
    #: client process CPU seconds over the phase
    cpu_s: float = 0.0
    #: most requests outstanding at once
    backlog_max: int = 0
    #: requests never answered (paced deadline passed or connection lost)
    unanswered: int = 0
    dropped: bool = False


class _FrameCounter:
    """Counts complete frames as bytes arrive, without copying them."""

    def __init__(self, binary: bool):
        self.binary = binary
        self.scan = 0
        self.count = 0

    def feed(self, buffer: bytearray, chunk: bytes) -> None:
        if not self.binary:
            self.count += chunk.count(b"\n")
            return
        scan = self.scan
        end = len(buffer)
        unpack = _LEN.unpack_from
        count = 0
        while end - scan >= 4:
            (length,) = unpack(buffer, scan)
            if end - scan - 4 < length:
                break
            scan += 4 + length
            count += 1
        self.scan = scan
        self.count += count


def connect(host: str, port: int, hello: bytes = b"") -> socket.socket:
    """A TCP connection; a binary ``hello`` is sent and its ack awaited."""
    sock = socket.create_connection((host, port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    if hello:
        sock.sendall(hello)
        buffer = b""
        while len(buffer) < 4 or len(buffer) < 4 + _LEN.unpack_from(buffer)[0]:
            chunk = sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed during hello")
            buffer += chunk
        if buffer[4] != _FRAME_HELLO_ACK:
            raise ConnectionError(f"expected hello ack, got {buffer[4]:#x}")
    return sock


@contextlib.contextmanager
def _gc_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _frames(frames: Sequence[bytes], start: int, stop: int) -> bytes:
    n = len(frames)
    return b"".join([frames[i % n] for i in range(start, stop)])


@_gc_paused()
def closed_loop(
    sock: socket.socket,
    frames: Sequence[bytes],
    binary: bool,
    window: int,
    seconds: Optional[float] = None,
    limit: Optional[int] = None,
) -> Exchange:
    """Keep ``window`` requests in flight until ``seconds`` or ``limit``.

    With neither bound the phase would never end, so one is required.
    Sending stops at the first bound reached; outstanding requests are
    then drained, and ``elapsed`` runs to the last response.  A receive
    that waits :data:`TIMEOUT_S` ends the phase as a dropped connection.
    """
    if seconds is None and limit is None:
        raise ValueError("closed_loop needs seconds or limit")
    clock = time.perf_counter
    sock.settimeout(TIMEOUT_S)
    result = Exchange(binary=binary)
    counter = _FrameCounter(binary)
    received = result.received
    chunks = result.chunks
    total = limit if limit is not None else float("inf")
    cpu_start = time.process_time()
    started = result.t0 = clock()
    stop_at = started + seconds if seconds is not None else float("inf")
    sent = 0
    sending = True
    recv = sock.recv
    try:
        while True:
            outstanding = sent - counter.count
            if sending and (sent >= total or clock() >= stop_at):
                sending = False
            if sending and outstanding < window:
                count = int(min(window - outstanding, total - sent))
                sock.sendall(_frames(frames, sent, sent + count))
                sent += count
                if sent - counter.count > result.backlog_max:
                    result.backlog_max = sent - counter.count
            elif outstanding == 0:
                break
            chunk = recv(1 << 16)
            now = clock()
            if not chunk:
                raise ConnectionError("server closed the connection")
            received += chunk
            counter.feed(received, chunk)
            chunks.append((now, len(received), counter.count))
    except (ConnectionError, socket.timeout):
        result.dropped = True
    result.elapsed = clock() - started
    result.cpu_s = time.process_time() - cpu_start
    result.sent = sent
    result.completed = counter.count
    result.unanswered = sent - counter.count
    return result


@_gc_paused()
def paced(
    sock: socket.socket,
    frames: Sequence[bytes],
    binary: bool,
    rate: float,
    seconds: float,
    cycle: bool = True,
) -> Exchange:
    """Open loop: request ``i`` is due at ``t0 + i / rate``.

    Due requests are handed to a non-blocking socket in one batch per
    wakeup; the loop wakes on input, on room to write, or every
    :data:`TICK_S` while requests are due, so a request can wait up to
    that long in the generator (recorded as lag).  Without ``cycle`` the
    phase ends early when the frames run out.  Requests still unanswered
    :data:`DRAIN_S` after the last due time count as ``unanswered``.
    """
    clock = time.perf_counter
    total = int(rate * seconds)
    if not cycle:
        total = min(total, len(frames))
    sock.setblocking(False)
    result = Exchange(binary=binary, rate=rate)
    counter = _FrameCounter(binary)
    received = result.received
    chunks = result.chunks
    batches = result.batches
    pending = bytearray()
    sent = 0
    cpu_start = time.process_time()
    t0 = result.t0 = clock() + 0.005
    deadline = t0 + (total - 1) / rate + DRAIN_S
    try:
        while True:
            now = clock()
            if sent < total and now >= t0:
                due = min(total, int((now - t0) * rate) + 1)
                if due > sent:
                    pending += _frames(frames, sent, due)
                    batches.append((now, sent, due - sent))
                    sent = due
            if pending:
                try:
                    written = sock.send(pending)
                    del pending[:written]
                except BlockingIOError:
                    pass
            backlog = sent - counter.count
            if backlog > result.backlog_max:
                result.backlog_max = backlog
            if sent == total and counter.count >= total:
                break
            if now > deadline:
                break
            if sent < total:
                timeout = max(TICK_S, t0 + sent / rate - now)
            else:
                timeout = deadline - now
            readable, _, _ = select.select(
                [sock], [sock] if pending else [], [], timeout
            )
            if readable:
                try:
                    chunk = sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                stamp = clock()
                if not chunk:
                    raise ConnectionError("server closed the connection")
                received += chunk
                counter.feed(received, chunk)
                chunks.append((stamp, len(received), counter.count))
    except ConnectionError:
        result.dropped = True
    finally:
        sock.settimeout(TIMEOUT_S)
    result.elapsed = clock() - t0
    result.cpu_s = time.process_time() - cpu_start
    result.sent = sent
    result.completed = counter.count
    result.unanswered = total - counter.count
    return result


# -- reading an exchange after the clock stops ---------------------------


def iter_frames(exchange: Exchange) -> Iterator[Tuple[int, int]]:
    """``(start, end)`` of each response body in ``exchange.received``.

    Binary bodies exclude the length word; NDJSON bodies exclude the
    newline.
    """
    buffer = exchange.received
    end = len(buffer)
    pos = 0
    if exchange.binary:
        unpack = _LEN.unpack_from
        while end - pos >= 4:
            (length,) = unpack(buffer, pos)
            if end - pos - 4 < length:
                return
            yield pos + 4, pos + 4 + length
            pos += 4 + length
    else:
        find = buffer.find
        newline = find(b"\n")
        while newline >= 0:
            yield pos, newline
            pos = newline + 1
            newline = find(b"\n", pos)


def frame_id(exchange: Exchange, start: int, end: int) -> Tuple[object, bool]:
    """``(request id, ok)`` of one response body."""
    buffer = exchange.received
    if exchange.binary:
        kind = buffer[start]
        if kind == _FRAME_DECIDE_RESP:
            return _RESP_ID.unpack_from(buffer, start)[0], True
        if kind == _FRAME_ERROR:
            flags, request_id = _ERROR_ID.unpack_from(buffer, start)
            return (request_id if flags & 1 else None), False
        payload = json.loads(bytes(buffer[start + 1:end]))
    else:
        payload = json.loads(bytes(buffer[start:end]))
    return payload.get("id"), bool(payload.get("ok"))


def response_times(
    exchange: Exchange, cycle_length: int
) -> List[Optional[float]]:
    """``receive - due`` seconds per sequence number of a paced exchange.

    ``None`` marks a request with no matching response.
    """
    ends = [end for _, end, _ in exchange.chunks]
    stamps = [stamp for stamp, _, _ in exchange.chunks]
    seen = [0] * cycle_length
    latencies: List[Optional[float]] = [None] * exchange.sent
    t0 = exchange.t0
    rate = exchange.rate
    for start, end in iter_frames(exchange):
        request_id, _ = frame_id(exchange, start, end)
        if not isinstance(request_id, int) or not 0 <= request_id < cycle_length:
            continue
        sequence = seen[request_id] * cycle_length + request_id
        seen[request_id] += 1
        if sequence >= exchange.sent:
            continue
        # the chunk that completed the frame (an NDJSON frame ends with
        # the newline one byte past its body)
        stamp = stamps[bisect_left(ends, end if exchange.binary else end + 1)]
        latencies[sequence] = stamp - (t0 + sequence / rate)
    return latencies


def window_rates(exchange: Exchange, window_s: float) -> List[float]:
    """Responses completed per second in each whole ``window_s`` window
    from the start of the phase to its last response."""
    stamps = [stamp for stamp, _, _ in exchange.chunks]
    rates: List[float] = []
    done = 0
    k = 1
    while stamps and exchange.t0 + k * window_s <= stamps[-1]:
        index = bisect_right(stamps, exchange.t0 + k * window_s)
        now = exchange.chunks[index - 1][2] if index else 0
        rates.append((now - done) / window_s)
        done = now
        k += 1
    return rates


def send_lags(exchange: Exchange) -> List[float]:
    """How late the generator handed each request to the socket."""
    lags: List[float] = []
    t0 = exchange.t0
    rate = exchange.rate
    for stamp, first, count in exchange.batches:
        lags.extend(stamp - (t0 + i / rate) for i in range(first, first + count))
    return lags
