"""Load generation: keep-alive ``http.client`` connections, a closed
loop and an open loop.

One generator process, at most ``nproc`` sender threads, one connection
per thread.  The open loop times every request from when it was *due*,
so a stall counts against every request queued behind it, and records
how late each send left (the generator's lag).
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass, field


# ``http.client`` costs about 90 us of client time per request more
# than a raw-socket client (a keep-alive round trip to a trivial local
# server took 165 us against 75 us on a 2-core x86 VM at 2.1 GHz).  At
# the ``max_ok_rps`` ladder's top rung of 2,000 req/s that is under a
# fifth of one core, so the stdlib client is fast enough.


def connection(port: int, timeout: float = 10.0) -> http.client.HTTPConnection:
    """A keep-alive connection to the server on ``port``; it connects on
    first use and again after a failure."""
    return http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: bytes | None = None):
    """``(status, body)``; raises ``OSError`` on transport failure, after
    closing ``conn`` so that its next request reconnects."""
    headers = {"Content-Type": "application/json"} if body is not None else {}
    try:
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        conn.close()
        raise OSError(f"{method} {path}: transport failure") from None


@dataclass
class Sample:
    """One sent request of the open loop."""

    lag: float  # seconds the send left after its due time
    latency: float  # seconds from due time to the full response
    service: float  # seconds from send to the full response
    status: int  # 0 = transport failure
    body: bytes = b""


@dataclass
class ClosedLoopResult:
    seconds: float
    sent: int = 0
    failed: int = 0
    kept: list = field(default_factory=list)  # (request index, body)


def closed_loop(port: int, requests, n_conns: int, seconds: float,
                keep_every: int = 0) -> ClosedLoopResult:
    """Each of ``n_conns`` threads sends its next request as soon as
    the previous one completes, cycling through ``requests``
    (``(method, path, body)`` tuples) until ``seconds`` have passed."""
    lock = threading.Lock()
    out = ClosedLoopResult(seconds=0.0)
    start = time.perf_counter()
    stop_at = start + seconds

    def client(offset: int) -> None:
        conn = connection(port)
        sent = failed = 0
        kept = []
        i = offset
        try:
            while time.perf_counter() < stop_at:
                method, path, body = requests[i % len(requests)]
                try:
                    status, payload = request(conn, method, path, body)
                except OSError:
                    status, payload = 0, b""
                sent += 1
                if not 200 <= status < 300:
                    failed += 1
                elif keep_every and sent % keep_every == 0:
                    kept.append((i % len(requests), payload))
                i += n_conns
        finally:
            conn.close()
            with lock:
                out.sent += sent
                out.failed += failed
                out.kept.extend(kept)

    threads = [threading.Thread(target=client, args=(k,)) for k in range(n_conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    out.seconds = time.perf_counter() - start
    return out


def open_loop(port: int, schedule, n_threads: int, keep=lambda i: False):
    """Send ``schedule`` — ``(due offset s, method, path, body)`` in due
    order — from ``n_threads`` threads, request ``i`` on thread
    ``i % n_threads``.  Returns one :class:`Sample` per request, in
    schedule order; ``keep(i)`` selects which bodies are retained."""
    samples: list = [None] * len(schedule)
    start = time.perf_counter() + 0.1

    def sender(k: int) -> None:
        conn = connection(port)
        try:
            try:
                conn.connect()  # before the first due time, not on it
            except OSError:
                pass  # the first request reconnects and records the failure
            for i in range(k, len(schedule), n_threads):
                offset, method, path, body = schedule[i]
                due = start + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                try:
                    status, payload = request(conn, method, path, body)
                except OSError:
                    status, payload = 0, b""
                done = time.perf_counter()
                samples[i] = Sample(
                    lag=sent - due,
                    latency=done - due,
                    service=done - sent,
                    status=status,
                    body=payload if keep(i) else b"",
                )
        finally:
            conn.close()

    threads = [threading.Thread(target=sender, args=(k,)) for k in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples


def lag_growth(samples) -> float:
    """Median send lag of the last quarter minus that of the first
    quarter, in seconds: positive and large when the generator (or the
    server it waits on) falls further behind as the phase goes on."""
    lags = [s.lag for s in samples]
    q = max(1, len(lags) // 4)
    first = sorted(lags[:q])[q // 2]
    last = sorted(lags[-q:])[q // 2]
    return last - first
