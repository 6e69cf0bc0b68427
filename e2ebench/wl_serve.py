"""``serve``: the store's read side through the pre-fork worker pool.

Set-up builds two single-shard store versions, ``a`` and ``b``, once in
a fresh process, then starts ``WorkerPool(n_workers = nproc - 1)`` on
them ``SETUP_REPEATS`` times; ``setup_s`` is the import time plus the
median pool start.  Then:

* **bulk** — a closed loop on ``nproc`` keep-alive connections, each
  posting 1,000 uniform keys per ``POST /v2/claims:batchScore``;
* **point** — an open loop at one fixed absolute rate on a precomputed
  schedule: ~90% ``GET /v2/claims/{pid}/{cell}/{tech}`` with
  provider-skewed keys (a hot set smaller than the batcher's LRU, a
  tail larger than it), ~5% provider and state summaries, ~5% first
  pages of ``/v2/claims`` and ``/v2/analytics/priority``, while a
  thread flips the fleet default ``a`` <-> ``b`` with
  ``WorkerPool.activate`` at a fixed interval.

A traced run adds ``?trace=1`` to a sampled share of point and bulk
requests, reads the fleet ``/metrics`` before and after each phase,
and ends with a rate ladder for ``max_ok_rps``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import numpy as np

import checks
import common
import httpload
import layers
from common import Result

N_CPU = os.cpu_count() or 1
#: ``nproc - 1`` server workers and ``nproc`` sender threads, both capped
#: at 4: the generator is one Python process, and past about four busy
#: threads its GIL, not the fleet, would set the send lag.  The cap also
#: bounds the memory the fleet maps (each worker holds both versions).
#: It only binds on hosts with more than 5 cores.
N_WORKERS = max(1, min(N_CPU - 1, 4))
N_SENDERS = max(1, min(N_CPU, 4))

#: The point phase's fixed absolute rate, requests per second.  About
#: a quarter of what one connection sustains against one worker on a
#: 2-core box, so the phase measures latency, not saturation.
POINT_RATE = 300.0
#: A point request answered later than this (from its due time) or not
#: with a 2xx is a miss.
LATENCY_LIMIT_S = 0.025
#: ``max_ok_rps`` needs this share of hits and no growing lag.
OK_SHARE = 0.99
#: Median send lag may grow this much from the first to the last
#: quarter of a phase before the generator counts as fallen behind.
MAX_LAG_GROWTH_S = 0.005
SWAP_INTERVAL_S = 2.0
BULK_KEYS = 1000
BULK_BODIES = 32
#: Share of the run given to the bulk phase; the point phase gets the rest.
BULK_SHARE = 0.4
#: Point keys come from a provider-skewed hot set of this many claims
#: (the batcher's LRU holds 4,096) with this probability, else from
#: every claim uniformly.
HOT_KEYS = 1024
HOT_SHARE = 0.8
#: A traced run sends ``?trace=1`` on every this-many-th request.
TRACE_EVERY = 10
#: ``max_ok_rps`` rungs (requests per second) and seconds per rung.
LADDER = (300, 450, 600, 800, 1000, 1300, 1600, 2000)
LADDER_STEP_S = 1.0
SETUP_REPEATS = 5
#: ``op_s`` (the point p50) is left as measured.  At this fixed low rate
#: it is set by wake-ups and the loopback more than by CPU speed: over
#: ten runs in which the host sped up by a sixth, the measured p50 held
#: at 0.85 ms and the scaled one drifted up (spread 0.16 against 0.12).
HOST_SCALED = {"setup_s": -1, "claims_per_s": +1}

BUNDLES_SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "serve_bundles.py")


# -- set-up -------------------------------------------------------------------


def build_bundles(seed: int, workdir: str) -> float:
    """Build both versions in a fresh process; returns version ``a``'s
    held-out AUC."""
    subprocess.run(
        [sys.executable, BUNDLES_SCRIPT, "--seed", str(seed), "--out", workdir],
        check=True,
        timeout=170,
    )
    with open(os.path.join(workdir, "build.json"), encoding="utf-8") as fh:
        return json.load(fh)["auc"]


def start_fleet(workdir: str):
    """Start the pool on the saved versions and warm the lazily built
    per-version tables."""
    from repro.serve.workers import WorkerPool, WorkerVersionSpec

    specs = [
        WorkerVersionSpec(name=name, path=os.path.join(workdir, name))
        for name in ("a", "b")
    ]
    pool = WorkerPool(specs, n_workers=N_WORKERS).start()
    conn = httpload.connection(pool.port)
    try:
        for name in ("b", "a"):
            for _ in range(N_WORKERS):
                status, _ = httpload.request(conn, "GET", "/v2/analytics/priority?limit=1")
                if status != 200:
                    raise RuntimeError(f"warm-up priority page answered {status}")
            pool.activate(name)
    except BaseException:
        pool.stop()
        raise
    finally:
        conn.close()
    return pool


# -- inputs -------------------------------------------------------------------


class Inputs:
    """Every request of a run, generated from the seed and the store's
    claim keys; the program only sees the generated requests."""

    def __init__(self, seed: int, store):
        from repro.fcc.states import STATES

        rng = np.random.default_rng(seed)
        claims = store.claims
        self.pid = np.asarray(claims.provider_id)
        self.cell = np.asarray(claims.cell)
        self.tech = np.asarray(claims.technology)
        n = self.pid.size
        providers, counts = np.unique(self.pid, return_counts=True)
        # Provider skew: Zipf weights over providers ranked by claims.
        ranked = providers[np.argsort(-counts, kind="stable")]
        weights = 1.0 / np.arange(1, ranked.size + 1) ** 1.1
        self.providers = ranked
        self.provider_p = weights / weights.sum()
        by_provider = {p: np.flatnonzero(self.pid == p) for p in ranked}
        hot_providers = rng.choice(ranked, size=HOT_KEYS, p=self.provider_p)
        self.hot = np.array([rng.choice(by_provider[p]) for p in hot_providers])
        self.n = n
        self.states = sorted({STATES[int(i)].abbr for i in np.unique(claims.state_idx)})
        self.rng = rng
        self.bulk = []
        for _ in range(BULK_BODIES):
            rows = rng.integers(0, n, size=BULK_KEYS)
            body = json.dumps(
                {"claims": [self._key(r) for r in rows]}
            ).encode()
            self.bulk.append((rows, body))

    def _key(self, row) -> dict:
        return {
            "provider_id": int(self.pid[row]),
            "cell": int(self.cell[row]),
            "technology": int(self.tech[row]),
        }

    def point_row(self) -> int:
        if self.rng.random() < HOT_SHARE:
            return int(self.hot[self.rng.integers(0, self.hot.size)])
        return int(self.rng.integers(0, self.n))

    def point_path(self, row: int) -> str:
        return f"/v2/claims/{int(self.pid[row])}/{int(self.cell[row])}/{int(self.tech[row])}"

    def schedule(self, rate: float, seconds: float, mix: bool, trace: bool):
        """``(schedule, tags)``: open-loop requests at ``rate`` for
        ``seconds``; ``tags[i]`` is ``("point", row, traced)`` for claim
        lookups and ``(kind, None, False)`` otherwise."""
        n = max(1, int(rate * seconds))
        schedule, tags = [], []
        for i in range(n):
            kind = "point"
            if mix:
                u = self.rng.random()
                kind = "point" if u < 0.90 else ("summary" if u < 0.95 else "page")
            traced = trace and i % TRACE_EVERY == 0
            if kind == "point":
                row = self.point_row()
                path = self.point_path(row) + ("?trace=1" if traced else "")
                tags.append(("point", row, traced))
            else:
                row = None
                pid = int(self.rng.choice(self.providers, p=self.provider_p))
                state = self.states[int(self.rng.integers(0, len(self.states)))]
                if kind == "summary":
                    path = (
                        f"/v2/providers/{pid}" if self.rng.random() < 0.5
                        else f"/v2/states/{state}"
                    )
                elif self.rng.random() < 0.5:
                    path = f"/v2/claims?limit=20&provider_id={pid}"
                else:
                    path = f"/v2/analytics/priority?limit=20&state={state}"
                tags.append((kind, None, False))
            schedule.append((i / rate, "GET", path, None))
        return schedule, tags


# -- span trees and fleet metrics ----------------------------------------------


def span_figures(trace_doc: dict) -> dict:
    """Milliseconds per span name (self time for ``request`` and
    ``handler``, whole duration for the leaves) from one ``?trace=1``
    span tree."""
    out: dict[str, float] = {}

    def walk(node: dict) -> None:
        children = node.get("children", [])
        own = node["duration_ms"] - sum(c["duration_ms"] for c in children)
        out[node["name"]] = out.get(node["name"], 0.0) + own
        for child in children:
            walk(child)

    root = trace_doc["spans"]
    walk(root)
    out["request_total"] = root["duration_ms"]
    return out


def fleet_totals(port: int) -> dict:
    """Counter values and histogram counts, summed across the fleet
    ``/metrics`` registries."""
    conn = httpload.connection(port)
    try:
        status, body = httpload.request(conn, "GET", "/metrics")
    finally:
        conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    doc = json.loads(body)
    totals: dict[str, float] = {}
    for scope in ("service", "process"):
        for name, family in doc[scope].items():
            if family["type"] == "gauge":
                continue
            for series in family["series"]:
                value = series["count"] if "count" in series else series["value"]
                totals[name] = totals.get(name, 0.0) + value
    return totals


def _delta(after: dict, before: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- phases -------------------------------------------------------------------


def bulk_phase(port: int, inputs: Inputs, seconds: float, trace: bool):
    requests = []
    for i, (_, body) in enumerate(inputs.bulk):
        path = "/v2/claims:batchScore" + ("?trace=1" if trace and i % TRACE_EVERY == 0 else "")
        requests.append(("POST", path, body))
    return httpload.closed_loop(port, requests, N_SENDERS, seconds, keep_every=5)


def point_phase(pool, inputs: Inputs, seconds: float, trace: bool):
    """The open-loop point phase with ``a`` <-> ``b`` swaps beside it."""
    schedule, tags = inputs.schedule(POINT_RATE, seconds, mix=True, trace=trace)
    stop = threading.Event()
    swaps: list[float] = []
    swap_errors: list[str] = []

    def swapper() -> None:
        names = ("b", "a")
        i = 0
        while not stop.wait(SWAP_INTERVAL_S):
            start = time.perf_counter()
            try:
                pool.activate(names[i % 2])
            except RuntimeError as exc:
                swap_errors.append(str(exc))
            else:
                swaps.append(time.perf_counter() - start)
            i += 1

    thread = threading.Thread(target=swapper, name="bench-swapper")
    thread.start()
    try:
        samples = httpload.open_loop(
            pool.port, schedule, N_SENDERS, keep=lambda i: tags[i][0] == "point"
        )
    finally:
        stop.set()
        thread.join()
    return samples, tags, swaps, swap_errors


def ladder(port: int, inputs: Inputs) -> float:
    """Highest rung at which point lookups meet ``OK_SHARE`` within the
    latency limit without growing lag (0 when none does)."""
    best = 0.0
    for rate in LADDER:
        schedule, _ = inputs.schedule(rate, LADDER_STEP_S, mix=False, trace=False)
        samples = httpload.open_loop(port, schedule, N_SENDERS)
        ok = sum(1 for s in samples if 200 <= s.status < 300 and s.latency <= LATENCY_LIMIT_S)
        if ok / len(samples) < OK_SHARE or httpload.lag_growth(samples) > MAX_LAG_GROWTH_S:
            break
        best = float(rate)
    return best


# -- run ----------------------------------------------------------------------


def check_bodies(bulk, inputs: Inputs, samples, tags, stores) -> None:
    for index, body in bulk.kept:
        if b'"trace": {' in body:
            # Traced envelope: drop the span tree and re-encode; floats
            # round-trip exactly through JSON, so the bytes must match.
            doc = json.loads(body)
            del doc["trace"]
            body = json.dumps(doc).encode()
        checks.batch_body(body, stores, inputs.bulk[index][0])
    for sample, (kind, row, traced) in zip(samples, tags):
        if kind != "point" or not 200 <= sample.status < 300:
            continue
        key = inputs.point_path(row)
        if traced:
            checks.traced_point_body(sample.body, stores, row, key)
        else:
            checks.point_body(sample.body, stores, row, key)


def run(seed: int, seconds: float, trace: bool, host: common.HostSpeed) -> Result:
    from repro.serve.store import ClaimScoreStore

    result = Result()
    import_s = layers.import_setup_seconds()
    workdir = common.scratch_dir("serve-setup")
    bundle_s, auc = common.timed(build_bundles, seed, workdir)
    host.sample()
    setup_times = []
    pool = None
    try:
        for _ in range(SETUP_REPEATS):
            if pool is not None:
                pool.stop()
                pool = None
            elapsed, pool = common.timed(start_fleet, workdir)
            setup_times.append(elapsed)
        stores = {
            name: ClaimScoreStore.load_sharded(os.path.join(workdir, name), mmap=True)
            for name in ("a", "b")
        }
        inputs = Inputs(seed, stores["a"])
        before = fleet_totals(pool.port) if trace else None
        bulk = bulk_phase(pool.port, inputs, seconds * BULK_SHARE, trace)
        mid = fleet_totals(pool.port) if trace else None
        samples, tags, swaps, swap_errors = point_phase(
            pool, inputs, seconds * (1 - BULK_SHARE), trace
        )
        after = fleet_totals(pool.port) if trace else None
        max_ok_rps = ladder(pool.port, inputs) if trace else 0.0
        peak_rss = max(common.pid_peak_rss_mb(pid) for pid in pool.worker_pids())
        swap_counts = pool.metrics.snapshot()["pool_swaps_total"]["series"]
    finally:
        if pool is not None:
            pool.stop()

    checks.auc_above_floor(auc, checks.AUC_FLOOR_BASE)
    if swap_errors:
        raise checks.CheckFailed(f"fleet swap failed: {swap_errors[0]}")
    check_bodies(bulk, inputs, samples, tags, stores)

    growth = httpload.lag_growth(samples)
    if growth > MAX_LAG_GROWTH_S:
        raise common.InvalidRun(
            f"point phase invalid: send lag grew {growth * 1e3:.1f} ms "
            f"(limit {MAX_LAG_GROWTH_S * 1e3:.0f} ms); the generator fell behind"
        )
    point_failed = sum(1 for s in samples if not 200 <= s.status < 300)
    latencies = sorted(
        s.latency if 200 <= s.status < 300 else float("inf") for s in samples
    )
    ok = sum(1 for s in samples if 200 <= s.status < 300 and s.latency <= LATENCY_LIMIT_S)
    p50 = common.percentile(latencies, 50)
    p99 = common.percentile(latencies, 99)
    result.attempted = bulk.sent + len(samples)
    result.failed = bulk.failed + point_failed
    bulk_claims_per_s = (bulk.sent - bulk.failed) * BULK_KEYS / bulk.seconds

    result.put("setup_s", import_s + common.median(setup_times), "s")
    result.put("op_s", p50, "s")
    result.put("claims_per_s", bulk_claims_per_s, "claims/s")
    result.put("holdout_auc", auc, "AUC")
    result.put("ok_frac", 1.0 - result.failed / result.attempted, "fraction")
    result.put("peak_rss_mb", peak_rss, "MB")
    result.note("serve.bulk_claims_per_s", bulk_claims_per_s, "claims/s")
    result.note("serve.bundle_build_s", bundle_s, "s")
    result.note("serve.pool_start_s", common.median(setup_times), "s")
    result.note("serve.point_p50_ms", p50 * 1e3, "ms")
    result.note("serve.point_p99_ms", p99 * 1e3, "ms")
    result.note("serve.point_ok_frac", ok / len(samples), "fraction")
    result.note("serve.point_samples", len(samples), "count")
    result.note("serve.point_rate", POINT_RATE, "req/s")
    result.note("serve.client.lag_growth_ms", growth * 1e3, "ms")
    result.note("serve.pool.swaps", len(swaps), "count")
    result.note("serve.workers", N_WORKERS, "count")
    if trace:
        figures = traced_figures(
            samples, tags, bulk, swaps, swap_counts, before, mid, after
        )
        figures.update({
            "serve.point_p99_ms": p99 * 1e3,
            "serve.point_ok_frac": ok / len(samples),
            "serve.max_ok_rps": max_ok_rps,
            "serve.client.lag_growth_ms": growth * 1e3,
            "serve.client.sent": float(len(samples)),
            "serve.client.failed": float(point_failed),
        })
        for name, unit in layers.per_layer_units().items():
            result.put(name, figures.get(name, 0.0), unit)
    return result


def traced_figures(samples, tags, bulk, swaps, swap_counts, before, mid, after) -> dict:
    """The serving per-layer figures of a traced run."""
    point = {"admission": [], "parse_body": [], "handler": [], "store_lookup": [],
             "batcher_flush": [], "request": [], "wire": []}
    traced_service, plain_service, lags = [], [], []
    for sample, (kind, row, traced) in zip(samples, tags):
        if kind != "point" or not 200 <= sample.status < 300:
            continue
        if not traced:
            plain_service.append(sample.service)
            continue
        spans = span_figures(json.loads(sample.body)["trace"])
        for name in point:
            if name != "wire":
                point[name].append(spans.get(name, 0.0))
        point["wire"].append(sample.service * 1e3 - spans["request_total"])
        traced_service.append(sample.service)
        lags.append(sample.lag)
    bulk_spans = {"parse_body": [], "handler": [], "store_lookup": [], "request": []}
    for _, body in bulk.kept:
        doc = json.loads(body)
        if "trace" in doc:
            spans = span_figures(doc["trace"])
            for name in bulk_spans:
                bulk_spans[name].append(spans.get(name, 0.0))

    def mean(values):
        return float(np.mean(values)) if values else 0.0

    committed = sum(s["value"] for s in swap_counts if s["labels"].get("outcome") == "committed")
    aborted = sum(s["value"] for s in swap_counts if s["labels"].get("outcome") == "aborted")
    lookups = _delta(after, mid, "store_lookups_total")
    return {
        "serve.http.admission_ms": mean(point["admission"]),
        "serve.http.parse_ms": mean(point["parse_body"]),
        "serve.http.handler_ms": mean(point["handler"]),
        "serve.store.lookup_ms": mean(point["store_lookup"]),
        "serve.batcher.flush_ms": mean(point["batcher_flush"]),
        "serve.http.encode_ms": mean(point["request"]),
        "serve.wire_ms": mean(point["wire"]),
        "serve.bulk.parse_ms": mean(bulk_spans["parse_body"]),
        "serve.bulk.handler_ms": mean(bulk_spans["handler"]),
        "serve.bulk.lookup_ms": mean(bulk_spans["store_lookup"]),
        "serve.bulk.encode_ms": mean(bulk_spans["request"]),
        "serve.batcher.cache_hit_ratio": _ratio(
            _delta(after, mid, "batcher_cache_hits_total"),
            _delta(after, mid, "batcher_requests_total"),
        ),
        "serve.batcher.mean_batch": _ratio(
            _delta(after, mid, "batcher_scored_total"),
            _delta(after, mid, "batcher_batches_total"),
        ),
        "serve.store.hit_ratio": _ratio(
            _delta(after, mid, "store_lookup_hits_total"), lookups
        ),
        "serve.admission.shed": _delta(after, before, "admission_shed_total"),
        "serve.pool.activate_ms": mean(swaps) * 1e3,
        "serve.pool.swaps_committed": float(committed),
        "serve.pool.swaps_aborted": float(aborted),
        "serve.client.send_lag_ms": mean([s.lag for s in samples]) * 1e3,
        "serve.trace_samples": float(len(traced_service)),
        "core.traced_total_s": mean([s.latency for s in samples]),
        "core.other_s": mean(lags),
        "obs.trace_overhead": (
            mean(traced_service) / mean(plain_service) - 1.0 if plain_service else 0.0
        ),
    }
