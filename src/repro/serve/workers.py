"""Pre-fork worker pool: N processes serving one mmap'd score store.

One Python process cannot scale the audit API past a single core — the
GIL serializes handler threads, so a multi-core box serves batch-score
traffic no faster than a laptop.  :class:`WorkerPool` is the classic
pre-fork answer, shaped around what the rest of this package already
provides:

* **Shared pages, not copies** — every worker loads the *same* saved
  single-shard bundle with ``mmap=True``.  The claim columns, margins,
  and (since bundles persist them) the derived serving arrays are
  page-cache-backed and read-only: N workers cost one copy of the store
  in physical memory, and a forked worker is serving microseconds after
  ``exec``-free startup.  The :attr:`~repro.serve.store.ClaimScoreStore.etag`
  of the mapped bundle doubles as the fleet-consistency fingerprint.
* **Kernel-balanced accept** — each worker binds its own listening
  socket on the shared port with ``SO_REUSEPORT``, so the kernel spreads
  connections across workers with no userspace proxy.  The parent holds
  a bound-but-never-listening *probe* socket on the same port: it
  receives no connections, but it keeps the port reserved across worker
  deaths (nothing else can steal the address between a crash and the
  respawn).  Where ``SO_REUSEPORT`` is unavailable the pool falls back
  to the older pre-fork shape: the parent binds + listens once and every
  worker ``accept``\\ s on the inherited socket.
* **Two-phase hot swap** — :meth:`WorkerPool.activate` first asks every
  worker to *stage* the target version (validate, warm, and report the
  store's etag), aborts with nothing changed unless every worker staged
  a byte-identical store, and only then tells each worker to *commit*
  (the registry's atomic pointer flip).  Any single response therefore
  reflects exactly one version — the per-request snapshot guarantees of
  :class:`~repro.serve.registry.ModelRegistry` hold per worker, and the
  stage barrier guarantees no worker can ever commit a version the rest
  of the fleet does not have.
* **Supervision** — a monitor thread watches process sentinels and
  respawns dead workers with exponential backoff
  (``pool_worker_restarts_total``, ``pool_workers``); a respawned worker
  comes up already serving the pool's *current* default version, so a
  kill during a swap heals into the post-swap world.
* **Fleet metrics** — ``GET /metrics`` answered by any worker reports
  the whole pool: the worker upcalls the parent over its event pipe, the
  parent gathers every worker's
  :meth:`~repro.obs.metrics.MetricsRegistry.export_state` dump over the
  command pipes and merges them with
  :func:`~repro.obs.metrics.merge_states` (counters summed, histograms
  merged bucket-wise, gauges labelled per worker), and the reply rides
  back on the event pipe.  The upcall is deadlock-free by construction:
  HTTP handlers run on each worker's daemon threads while the control
  loop answering parent RPCs owns the worker's main thread.

Control plane
-------------

Each worker owns two duplex pipes.  The **command** pipe is the parent's
RPC channel (``ping`` / ``stage`` / ``commit`` / ``metrics`` / ``chaos``
/ ``describe`` / ``shutdown``), serialized by a per-worker lock with a
poll timeout so a dead worker degrades a fleet operation instead of
hanging it.  The **event** pipe carries worker-initiated traffic: the
``ready`` handshake after the server is listening, and the
``metrics_request`` upcall described above.

The pool prefers the ``fork`` start method (instant startup, inherited
mapped pages); on platforms without it, specs and sockets travel through
the spawn pickler instead.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _sentinel_wait

from repro.obs.metrics import MetricsRegistry, get_metrics, merge_states
from repro.serve.resilience import ResilienceConfig

__all__ = ["WorkerPool", "WorkerVersionSpec", "reuse_port_available"]

#: How long a worker must survive before its respawn backoff resets.
_BACKOFF_RESET_S = 5.0


def reuse_port_available() -> bool:
    """Whether this platform supports ``SO_REUSEPORT`` load balancing."""
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    except OSError:  # pragma: no cover - platform-dependent
        return False
    return True


@dataclass(frozen=True)
class WorkerVersionSpec:
    """One model version every worker of the pool serves.

    ``path`` names a saved sharded store bundle
    (:meth:`~repro.serve.store.ClaimScoreStore.save_sharded`); workers
    load it with ``mmap=True`` so the pool shares one physical copy.
    ``chaos_plan`` (a :func:`~repro.serve.resilience.chaos_plan` name)
    and ``breaker`` (:class:`~repro.serve.resilience.CircuitBreaker`
    kwargs) exist for the fault-injection harness — plans are rebuilt
    *inside* each worker, since a fault plan's counters cannot cross a
    process boundary.
    """

    name: str
    path: str
    chaos_plan: str | None = None
    breaker: dict | None = None


class _Worker:
    """Parent-side record of one worker slot (respawns reuse the slot)."""

    __slots__ = (
        "index",
        "process",
        "cmd",
        "cmd_lock",
        "evt",
        "evt_thread",
        "ready",
        "started_at",
        "backoff_s",
    )

    def __init__(self, index: int):
        self.index = index
        self.process = None
        self.cmd = None
        self.cmd_lock = threading.Lock()
        self.evt = None
        self.evt_thread = None
        self.ready = threading.Event()
        self.started_at = 0.0
        self.backoff_s = 0.0


class WorkerPool:
    """N pre-forked HTTP workers over shared mmap'd score stores.

    ``specs`` lists every version the fleet serves; ``default`` (first
    spec when omitted) is active at startup and after every respawn.
    ``reuse_port=None`` auto-detects ``SO_REUSEPORT`` and falls back to
    the inherited-socket accept model; pass ``False`` to force the
    fallback (the tests do, to pin it).

    Use as a context manager or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self,
        specs: list[WorkerVersionSpec],
        n_workers: int = 2,
        default: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        resilience: ResilienceConfig | None = None,
        reuse_port: bool | None = None,
        metrics: MetricsRegistry | None = None,
        restart_backoff_s: float = 0.05,
        max_backoff_s: float = 1.0,
    ):
        if not specs:
            raise ValueError("a WorkerPool needs at least one version spec")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError("version spec names must be unique")
        self.specs = list(specs)
        self.n_workers = int(n_workers)
        self.host = host
        self.port = int(port)
        self.resilience = resilience
        self._default = default if default is not None else names[0]
        if self._default not in names:
            raise ValueError(f"default {self._default!r} is not a spec name")
        self.reuse_port = (
            reuse_port_available() if reuse_port is None else bool(reuse_port)
        )
        self._restart_backoff_s = float(restart_backoff_s)
        self._max_backoff_s = float(max_backoff_s)
        #: The pool's own registry: supervision + swap counters live
        #: here and ride into the fleet ``/metrics`` under
        #: ``worker="parent"`` gauge labels.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._workers_g = self.metrics.gauge("pool_workers")
        self._restarts_c = self.metrics.counter("pool_worker_restarts_total")
        self._swaps_committed = self.metrics.counter(
            "pool_swaps_total", outcome="committed"
        )
        self._swaps_aborted = self.metrics.counter(
            "pool_swaps_total", outcome="aborted"
        )
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - no-fork platforms
            self._ctx = multiprocessing.get_context()
        self._workers: list[_Worker] = []
        self._workers_lock = threading.Lock()
        self._swap_lock = threading.Lock()
        self._parent_sock: socket.socket | None = None
        self._monitor_thread: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def default_name(self) -> str:
        return self._default

    def start(self, ready_timeout_s: float = 60.0) -> "WorkerPool":
        """Bind the port, fork the fleet, wait for every worker's ready
        handshake, then start the supervision monitor."""
        if self._started:
            raise RuntimeError("pool already started")
        self._started = True
        self._parent_sock = self._bind_parent_socket()
        self.port = self._parent_sock.getsockname()[1]
        self._workers = [_Worker(i) for i in range(self.n_workers)]
        for worker in self._workers:
            self._spawn(worker)
        deadline = time.monotonic() + ready_timeout_s
        for worker in self._workers:
            remaining = deadline - time.monotonic()
            if not worker.ready.wait(max(0.0, remaining)):
                process = worker.process
                alive = process is not None and process.is_alive()
                self.stop()
                raise RuntimeError(
                    f"worker {worker.index} never reported ready "
                    + ("(still starting)" if alive else
                       f"(exitcode {getattr(process, 'exitcode', None)})")
                )
        self._workers_g.set(self.n_workers)
        self._monitor_thread = threading.Thread(
            target=self._monitor, name="pool-monitor", daemon=True
        )
        self._monitor_thread.start()
        return self

    def stop(self) -> None:
        """Shut the fleet down: polite RPC first, then force."""
        self._stop_event.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=5.0)
            self._monitor_thread = None
        with self._workers_lock:
            workers = list(self._workers)
        for worker in workers:
            self._rpc(worker, {"op": "shutdown"}, timeout=2.0)
        for worker in workers:
            process = worker.process
            if process is not None:
                process.join(timeout=2.0)
                if process.is_alive():  # pragma: no cover - force path
                    process.kill()
                    process.join(timeout=2.0)
            for conn in (worker.cmd, worker.evt):
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - already closed
                        pass
        if self._parent_sock is not None:
            self._parent_sock.close()
            self._parent_sock = None
        self._workers_g.set(0)

    # -- socket plumbing ----------------------------------------------------

    def _bind_parent_socket(self) -> socket.socket:
        """The parent's end of the shared port.

        ``SO_REUSEPORT`` mode: a bound, **non-listening** probe — it gets
        no connections (only listening sockets join the kernel's reuse
        group for TCP) but pins the address so the port cannot be stolen
        while a dead worker is between crash and respawn, and resolves
        ``port=0`` once for the whole fleet.  Fallback mode: the one
        listening socket every worker inherits and accepts on.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            if self.reuse_port:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
                sock.bind((self.host, self.port))
            else:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                sock.bind((self.host, self.port))
                sock.listen(128)
        except OSError:
            sock.close()
            raise
        return sock

    # -- process supervision ------------------------------------------------

    def _spawn(self, worker: _Worker) -> None:
        """(Re)start one worker slot with fresh control pipes."""
        cmd_parent, cmd_child = self._ctx.Pipe()
        evt_parent, evt_child = self._ctx.Pipe()
        listen_sock = None if self.reuse_port else self._parent_sock
        process = self._ctx.Process(
            target=_worker_main,
            args=(
                worker.index,
                self.specs,
                self._default,
                self.host,
                self.port,
                self.reuse_port,
                listen_sock,
                self.resilience,
                cmd_child,
                evt_child,
            ),
            name=f"audit-worker-{worker.index}",
            daemon=True,
        )
        process.start()
        cmd_child.close()
        evt_child.close()
        worker.process = process
        worker.cmd = cmd_parent
        worker.evt = evt_parent
        worker.ready = threading.Event()
        worker.started_at = time.monotonic()
        worker.evt_thread = threading.Thread(
            target=self._evt_loop,
            args=(worker, evt_parent),
            name=f"pool-evt-{worker.index}",
            daemon=True,
        )
        worker.evt_thread.start()

    def _evt_loop(self, worker: _Worker, conn) -> None:
        """Drain one worker's event pipe: the ready handshake, and the
        fleet-metrics upcall (answered on the same pipe)."""
        while True:
            try:
                event = conn.recv()
            except (EOFError, OSError):
                return
            kind = event.get("event")
            if kind == "ready":
                worker.ready.set()
            elif kind == "metrics_request":
                try:
                    conn.send({"view": self._fleet_view()})
                except (BrokenPipeError, OSError):  # pragma: no cover
                    return

    def _monitor(self) -> None:
        """Watch process sentinels; respawn dead workers with backoff.

        Every slot is watched, dead or alive: a dead process's sentinel
        stays ready, so a worker that died while another slot was being
        respawned is respawned on the next pass instead of dropping out.
        """
        while not self._stop_event.is_set():
            with self._workers_lock:
                sentinels = {
                    w.process.sentinel: w
                    for w in self._workers
                    if w.process is not None
                }
            if not sentinels:
                if self._stop_event.wait(0.05):
                    return
                continue
            for sentinel in _sentinel_wait(list(sentinels), timeout=0.2):
                if self._stop_event.is_set():
                    return
                self._respawn(sentinels[sentinel])

    def _respawn(self, worker: _Worker) -> None:
        process = worker.process
        if process is not None:
            process.join(timeout=1.0)
        for conn in (worker.cmd, worker.evt):
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
        self._restarts_c.inc()
        self._workers_g.set(self._live_count())
        # Exponential backoff, reset after a stable stretch: a worker
        # crash-looping on startup must not busy-spin the fork path.
        if time.monotonic() - worker.started_at > _BACKOFF_RESET_S:
            worker.backoff_s = 0.0
        delay = worker.backoff_s or self._restart_backoff_s
        worker.backoff_s = min(self._max_backoff_s, delay * 2)
        if self._stop_event.wait(delay):
            return
        self._spawn(worker)
        # Wait for the ready handshake, but stop waiting when the
        # replacement dies first: the monitor's next pass respawns it.
        deadline = time.monotonic() + 30.0
        while not worker.ready.wait(timeout=0.05):
            if (
                not worker.process.is_alive()
                or self._stop_event.is_set()
                or time.monotonic() > deadline
            ):
                break
        self._workers_g.set(self._live_count())

    def _live_count(self) -> int:
        with self._workers_lock:
            return sum(
                1
                for w in self._workers
                if w.process is not None and w.process.is_alive()
            )

    def worker_pids(self) -> list[int]:
        """PIDs of the currently-live workers (chaos tests kill these)."""
        with self._workers_lock:
            return [
                w.process.pid
                for w in self._workers
                if w.process is not None and w.process.is_alive()
            ]

    # -- RPC ----------------------------------------------------------------

    def _rpc(self, worker: _Worker, message: dict, timeout: float = 10.0):
        """One command-pipe round trip; ``None`` when the worker is gone
        or silent past the timeout (callers degrade, never hang)."""
        conn = worker.cmd
        if conn is None:
            return None
        with worker.cmd_lock:
            try:
                conn.send(message)
                if conn.poll(timeout):
                    return conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return None
        return None

    def _ready_workers(self) -> list[_Worker]:
        with self._workers_lock:
            return [
                w
                for w in self._workers
                if w.process is not None
                and w.process.is_alive()
                and w.ready.is_set()
            ]

    def ping(self) -> list[int]:
        """PIDs of workers answering their command pipe right now."""
        pids = []
        for worker in self._ready_workers():
            reply = self._rpc(worker, {"op": "ping"}, timeout=5.0)
            if reply is not None and reply.get("ok"):
                pids.append(reply["pid"])
        return pids

    def describe(self) -> list[dict]:
        """Each live worker's view of itself (pid, default, versions)."""
        out = []
        for worker in self._ready_workers():
            reply = self._rpc(worker, {"op": "describe"}, timeout=5.0)
            if reply is not None and reply.get("ok"):
                reply.pop("ok")
                out.append({"index": worker.index, **reply})
        return out

    def chaos_counts(self) -> dict:
        """Summed per-version fault-plan counts across live workers."""
        total: dict = {}
        for worker in self._ready_workers():
            reply = self._rpc(worker, {"op": "chaos"}, timeout=5.0)
            if reply is None or not reply.get("ok"):
                continue
            for name, seams in reply["counts"].items():
                into = total.setdefault(name, {})
                for seam, counts in seams.items():
                    seam_into = into.setdefault(seam, {"fired": 0, "calls": 0})
                    seam_into["fired"] += counts.get("fired", 0)
                    seam_into["calls"] += counts.get("calls", 0)
        return total

    # -- two-phase hot swap -------------------------------------------------

    def activate(self, name: str) -> dict:
        """Fleet-wide two-phase default swap.

        Phase one *stages* ``name`` on every worker: each validates it
        knows the version, warms its store, and reports the store etag.
        Any failure — or any two workers staging **different** store
        bytes — aborts with every worker still on the old default.
        Phase two *commits*: each worker's registry performs its atomic
        pointer flip.  A commit RPC lost to a worker death is tolerated:
        the respawn comes up on the new default (recorded before the
        commit round exactly so crash-during-swap heals forward).
        """
        with self._swap_lock:
            workers = self._ready_workers()
            if not workers:
                self._swaps_aborted.inc()
                raise RuntimeError("no live workers to swap")
            staged = []
            for worker in workers:
                reply = self._rpc(worker, {"op": "stage", "name": name})
                if reply is None or not reply.get("ok"):
                    self._swaps_aborted.inc()
                    detail = (
                        "no reply" if reply is None else reply.get("error")
                    )
                    raise RuntimeError(
                        f"swap to {name!r} aborted: worker {worker.index} "
                        f"failed to stage ({detail}); default unchanged"
                    )
                staged.append(reply["desc"])
            etags = {desc["etag"] for desc in staged}
            if len(etags) != 1:
                self._swaps_aborted.inc()
                raise RuntimeError(
                    f"swap to {name!r} aborted: workers staged "
                    f"{len(etags)} distinct store builds; default unchanged"
                )
            self._default = name
            for worker in workers:
                reply = self._rpc(worker, {"op": "commit", "name": name})
                if reply is not None and not reply.get("ok"):
                    # A live worker refusing a version it just staged is
                    # a bug, not a transient — surface it loudly.
                    self._swaps_committed.inc()
                    raise RuntimeError(
                        f"worker {worker.index} failed to commit staged "
                        f"version {name!r}: {reply.get('error')}"
                    )
            self._swaps_committed.inc()
            return staged[0]

    # -- fleet metrics ------------------------------------------------------

    def _fleet_view(self) -> dict | None:
        """Merged ``export_state`` dumps for the whole pool, or ``None``
        when aggregation fails (workers then fall back to local views)."""
        service_states, process_states, labels = [], [], []
        for worker in self._ready_workers():
            reply = self._rpc(worker, {"op": "metrics"}, timeout=5.0)
            if reply is None or not reply.get("ok"):
                continue
            service_states.append(reply["service"])
            process_states.append(reply["process"])
            labels.append({"worker": worker.index})
        if not service_states:
            return None
        service_states.append(self.metrics.export_state())
        process_states.append(get_metrics().export_state())
        labels.append({"worker": "parent"})
        try:
            return {
                "service": merge_states(service_states, labels),
                "process": merge_states(process_states, labels),
                "workers": len(service_states) - 1,
            }
        except ValueError:  # pragma: no cover - defensive
            return None

    def fleet_metrics(self) -> dict | None:
        """The merged fleet view (what workers serve on ``GET /metrics``)."""
        return self._fleet_view()


# -- worker process ----------------------------------------------------------


def _worker_main(  # pragma: no cover - runs in forked subprocesses
    index: int,
    specs: list[WorkerVersionSpec],
    default_name: str,
    host: str,
    port: int,
    reuse_port: bool,
    listen_sock,
    resilience,
    cmd,
    evt,
) -> None:
    """One worker: mmap the stores, serve HTTP on daemon threads, answer
    parent RPCs on the main thread."""
    from repro.serve.http import AuditHTTPServer
    from repro.serve.registry import ModelRegistry
    from repro.serve.resilience import CircuitBreaker, chaos_plan
    from repro.serve.service import AuditService
    from repro.serve.store import ClaimScoreStore

    plans: dict = {}
    registry = ModelRegistry()
    for spec in specs:
        store = ClaimScoreStore.load_sharded(spec.path, mmap=True)
        plan = chaos_plan(spec.chaos_plan) if spec.chaos_plan else None
        if plan is not None:
            plans[spec.name] = plan
        breaker = (
            CircuitBreaker(**spec.breaker) if spec.breaker is not None else None
        )
        registry.add(spec.name, store, fault_plan=plan, breaker=breaker)
    registry.activate(default_name)
    service = AuditService.from_registry(registry)

    # The fleet-metrics upcall: HTTP handler threads funnel through one
    # lock so request/reply pairs on the event pipe never interleave.
    evt_lock = threading.Lock()

    def metrics_view() -> dict | None:
        with evt_lock:
            try:
                evt.send({"event": "metrics_request"})
                if evt.poll(5.0):
                    return evt.recv().get("view")
            except (EOFError, OSError):
                pass
            return None

    if reuse_port:
        server = AuditHTTPServer(
            (host, port),
            service,
            resilience=resilience,
            reuse_port=True,
            metrics_view=metrics_view,
        )
    else:
        server = AuditHTTPServer(
            (host, port),
            service,
            resilience=resilience,
            bind_and_activate=False,
            metrics_view=metrics_view,
        )
        server.adopt_socket(listen_sock)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    with evt_lock:
        evt.send(
            {"event": "ready", "pid": os.getpid(), "port": server.server_port}
        )
    try:
        while True:
            try:
                message = cmd.recv()
            except (EOFError, OSError):
                break
            op = message.get("op")
            try:
                if op == "ping":
                    reply = {"ok": True, "pid": os.getpid()}
                elif op == "stage":
                    reply = {
                        "ok": True,
                        "desc": registry.stage(message["name"]),
                    }
                elif op == "commit":
                    registry.activate(message["name"])
                    reply = {"ok": True, "default": registry.default_name}
                elif op == "metrics":
                    reply = {
                        "ok": True,
                        "service": registry.metrics.export_state(),
                        "process": get_metrics().export_state(),
                    }
                elif op == "chaos":
                    reply = {
                        "ok": True,
                        "counts": {
                            name: plan.counts() for name, plan in plans.items()
                        },
                    }
                elif op == "describe":
                    reply = {
                        "ok": True,
                        "pid": os.getpid(),
                        "default": registry.default_name,
                        "versions": registry.names(),
                    }
                elif op == "shutdown":
                    cmd.send({"ok": True})
                    break
                else:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
            except Exception as exc:
                reply = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
            try:
                cmd.send(reply)
            except (BrokenPipeError, OSError):
                break
    finally:
        server.shutdown()
        server.server_close()
        service.close()
