import contextlib
import socket
import struct
import threading
import time

import pytest

from bench import client
from bench.common import percentile

LEN = struct.Struct("<I")


def request_frame(request_id: int) -> bytes:
    body = bytes((0x10,)) + struct.pack("<Q", request_id)
    return LEN.pack(len(body)) + body


def response_frame(request_id: int) -> bytes:
    body = bytes((0x11,)) + struct.pack("<QHH", request_id, 0, 0)
    return LEN.pack(len(body)) + body


class StubServer(threading.Thread):
    """Answers each binary frame with a response carrying its id; before
    answering request ``stall_at`` it stops for ``stall_s`` seconds."""

    def __init__(self, stall_at=None, stall_s=0.0):
        super().__init__(daemon=True)
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.stall_at = stall_at
        self.stall_s = stall_s

    def run(self):
        conn, _ = self.listener.accept()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with conn, contextlib.suppress(ConnectionError):
            buffer = b""
            while True:
                chunk = conn.recv(1 << 16)
                if not chunk:
                    return
                buffer += chunk
                out = []
                while len(buffer) >= 4 and len(buffer) >= 4 + LEN.unpack_from(buffer)[0]:
                    length = LEN.unpack_from(buffer)[0]
                    (request_id,) = struct.unpack_from("<Q", buffer, 5)
                    buffer = buffer[4 + length:]
                    if request_id == self.stall_at:
                        conn.sendall(b"".join(out))
                        out = []
                        time.sleep(self.stall_s)
                    out.append(response_frame(request_id))
                conn.sendall(b"".join(out))

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.join(timeout=10)
        self.listener.close()
        assert not self.is_alive()


def test_paced_latency_is_timed_from_due_and_includes_a_stall():
    rate, seconds, stall_at, stall_s = 2000.0, 0.4, 200, 0.05
    frames = [request_frame(i) for i in range(int(rate * seconds))]
    with StubServer(stall_at=stall_at, stall_s=stall_s) as stub:
        sock = client.connect("127.0.0.1", stub.port)
        try:
            exchange = client.paced(sock, frames, True, rate, seconds, cycle=False)
        finally:
            sock.close()
    assert exchange.sent == exchange.completed == len(frames)
    latencies = client.response_times(exchange, len(frames))
    assert None not in latencies and len(latencies) == len(frames)
    # request 200 is due at 100 ms and waits out the whole stall; requests
    # due later in the stall wait for what remains of it
    assert latencies[stall_at] >= 0.045
    assert latencies[stall_at + 40] >= 0.045 - 40 / rate
    assert max(latencies[:stall_at]) < 0.02
    assert max(latencies[-100:]) < 0.02
    # the generator kept sending through the stall, so the backlog grew
    assert exchange.backlog_max >= 0.04 * rate
    lags = client.send_lags(exchange)
    assert len(lags) == len(frames)
    assert 0 <= percentile(lags, 99) < 0.02


def test_closed_loop_keeps_the_window_and_stops_at_the_limit():
    frames = [request_frame(i) for i in range(50)]
    with StubServer() as stub:
        sock = client.connect("127.0.0.1", stub.port)
        try:
            # cycles the 50 frames: ids repeat, sequence numbers do not
            exchange = client.closed_loop(sock, frames, True, window=8, limit=120)
        finally:
            sock.close()
    assert exchange.sent == exchange.completed == 120
    assert exchange.backlog_max == 8
    ids = [client.frame_id(exchange, s, e)[0] for s, e in client.iter_frames(exchange)]
    assert ids == [i % 50 for i in range(120)]


def test_closed_loop_against_a_stuck_server_ends_as_dropped(monkeypatch):
    monkeypatch.setattr(client, "TIMEOUT_S", 0.2)
    frames = [request_frame(i) for i in range(10)]
    with StubServer(stall_at=5, stall_s=1.0) as stub:
        sock = client.connect("127.0.0.1", stub.port)
        try:
            exchange = client.closed_loop(sock, frames, True, window=10, limit=10)
        finally:
            sock.close()
    assert exchange.dropped
    assert (exchange.completed, exchange.unanswered) == (5, 5)


def test_window_rates_count_completions_per_whole_window():
    exchange = client.Exchange(binary=True, t0=10.0)
    # (stamp, end offset, frames complete): 30 frames in the first 0.1 s,
    # none in the second (a stall), 50 in the third, then a partial window
    exchange.chunks = [
        (10.02, 0, 10), (10.09, 0, 30), (10.25, 0, 60), (10.29, 0, 80),
        (10.35, 0, 90),
    ]
    rates = client.window_rates(exchange, 0.1)
    assert rates == pytest.approx([300.0, 0.0, 500.0])
