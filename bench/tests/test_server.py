"""A stall during a paced step queues requests; none is refused."""

import os
import signal
import threading
import time

from bench import client, serve


def test_a_stalled_server_refuses_no_paced_request():
    inputs, _ = serve._setup_stateful(0)
    rate, seconds, stall_s = 45_000.0, 1.5, 0.1
    frames = inputs.frames[: int(rate * seconds)]
    with serve.Server() as server:
        sock = client.connect(server.host, server.port)

        def stall():
            time.sleep(0.5)
            os.kill(server.process.pid, signal.SIGSTOP)
            time.sleep(stall_s)
            os.kill(server.process.pid, signal.SIGCONT)

        pauser = threading.Thread(target=stall)
        pauser.start()
        try:
            exchange = client.paced(sock, frames, False, rate, seconds, cycle=False)
        finally:
            pauser.join()
            sock.close()
    # 4,500 requests were due during the stall, four times the default
    # queue depth; every one is answered, late
    assert exchange.sent == len(frames)
    assert exchange.unanswered == 0
    assert serve._errors(exchange) == 0
    latencies = client.response_times(exchange, len(frames))
    assert max(latencies) >= stall_s / 2
