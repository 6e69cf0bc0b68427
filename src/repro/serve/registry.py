"""Model registry: named (model, score store) versions with atomic hot-swap.

Serving two model versions side by side — last month's model while this
month's warms up, a champion against a challenger — needs more than one
global ``(classifier, store)`` pair.  :class:`ModelRegistry` holds any
number of named :class:`ModelVersion` entries and designates one as the
**default** that anonymous traffic resolves to.

Atomicity is structural, not locked-per-request: a :class:`ModelVersion`
bundles *everything* a request touches — the score store, the optional
live classifier + feature builder, and its **own**
:class:`~repro.serve.batcher.MicroBatcher` (so cached results can never
leak across versions) — and is immutable after registration.  Readers
take one reference (:attr:`ModelRegistry.default`), an atomic pointer
read, and serve the whole request from that snapshot; ``activate`` swaps
the pointer in one assignment.  No request can ever observe a
half-swapped pair, and no cache invalidation is needed on swap.

Per-version counters (requests served, batcher stats) feed the
``GET /v2/models`` endpoint.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

from repro.dataset.observations import ObservationColumns
from repro.fcc.states import STATES
from repro.ml.gbdt import _sigmoid
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.serve.batcher import MicroBatcher
from repro.serve.resilience import (
    SEAM_COLD_SCORE,
    SEAM_STORE_READ,
    CircuitBreaker,
    ColdPathDegraded,
    Deadline,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
)
from repro.serve.schemas import ClaimKey, ScoreRecord
from repro.serve.store import ClaimScoreStore

__all__ = ["ModelRegistry", "ModelVersion", "state_index"]

_STATE_IDX = {s.abbr: i for i, s in enumerate(STATES)}

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_UINT64_MAX = 2**64 - 1


def state_index(state: str) -> int:
    """STATES index for an abbreviation; ``ValueError`` on unknown."""
    try:
        return _STATE_IDX[state.upper()]
    except KeyError:
        raise ValueError(f"unknown state {state!r}") from None


def validate_key_range(provider_id: int, cell: int, technology: int) -> None:
    """Reject claim keys the columnar dtypes cannot hold.

    Checked *before* a key reaches any numpy cast or the micro-batcher
    queue: an out-of-range key would otherwise raise ``OverflowError``
    inside the coalesced batch scorer — a 500 instead of a 400, failing
    innocent batchmates flushed alongside it.
    """
    if not (
        _INT64_MIN <= provider_id <= _INT64_MAX
        and _INT64_MIN <= technology <= _INT64_MAX
    ):
        raise ValueError(
            "provider_id and technology must fit in a signed 64-bit integer"
        )
    if not 0 <= cell <= _UINT64_MAX:
        raise ValueError("cell must be a non-negative integer below 2**64")


class ModelVersion:
    """One immutable serving version: store + optional live model + batcher.

    All scoring paths of one version live here — the micro-batched
    single-claim path, the vectorized bulk path, and the cold path for
    hypothetical filings — so a request bound to a version snapshot is
    internally consistent by construction.
    """

    def __init__(
        self,
        name: str,
        store: ClaimScoreStore,
        classifier=None,
        builder=None,
        model=None,
        max_batch: int = 1024,
        max_delay_s: float = 0.002,
        cache_size: int = 4096,
        fault_plan: FaultPlan | None = None,
        breaker: CircuitBreaker | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        if not name or "/" in name:
            raise ValueError(f"invalid version name {name!r}")
        self.name = str(name)
        self.store = store
        self.classifier = classifier
        self.builder = builder
        #: The full NBMIntegrityModel when built from one (enables the
        #: labelled slice reports of repro.core.reports).
        self.model = model
        #: Deterministic fault injection at this version's serving seams
        #: (chaos tests only; None in production).
        self.fault_plan = fault_plan
        #: Circuit breaker around the cold scoring path; while open, cold
        #: slots resolve to ColdPathDegraded instead of attempting to
        #: score, and read paths downgrade to degraded responses.
        self.breaker = breaker
        #: This version's serving metrics.  Versions registered through a
        #: ModelRegistry share its registry (one ``/metrics`` view per
        #: service); standalone versions get a private one.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if breaker is not None:
            breaker.bind_metrics(self.metrics, version=self.name)
        self._requests_c = self.metrics.counter(
            "model_requests_total", version=self.name
        )
        self._scores_pre = self.metrics.counter(
            "model_scores_total", version=self.name, path="precomputed"
        )
        self._scores_cold = self.metrics.counter(
            "model_scores_total", version=self.name, path="cold"
        )
        self.batcher = MicroBatcher(
            self._score_batch,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            cache_size=cache_size,
            fault_plan=fault_plan,
            metrics=self.metrics,
            version=self.name,
        )

    # -- introspection ------------------------------------------------------

    @property
    def cold_path_available(self) -> bool:
        return self.classifier is not None and self.builder is not None

    def count_request(self, n: int = 1) -> None:
        self._requests_c.inc(n)

    @property
    def requests(self) -> int:
        return self._requests_c.value

    def describe(self, default: bool = False) -> dict:
        """The ``GET /v2/models`` entry for this version."""
        doc = {
            "name": self.name,
            "default": bool(default),
            "n_claims": len(self.store),
            "cold_path_available": self.cold_path_available,
            "requests": self.requests,
            "batcher": self.batcher.stats.as_dict(),
        }
        if self.breaker is not None:
            doc["breaker"] = self.breaker.describe()
        return doc

    def close(self) -> None:
        self.batcher.close()

    # -- single-claim path (micro-batched) ----------------------------------

    def score_claim_async(
        self,
        provider_id: int,
        cell: int,
        technology: int,
        state: str | None = None,
        deadline: Deadline | None = None,
    ):
        """Enqueue one claim lookup on this version's batcher."""
        if deadline is not None:
            deadline.require("claim request")  # don't queue dead work
        if state is not None:
            state = state.upper()
            state_index(state)  # validate before queueing
            if not self.cold_path_available:
                raise RuntimeError(
                    "cold-path scoring requires a live classifier and "
                    "FeatureBuilder (service was loaded without one)"
                )
        payload = (int(provider_id), int(cell), int(technology), state)
        validate_key_range(*payload[:3])  # before queueing, like the state
        return self.batcher.submit(payload, cache_key=payload, deadline=deadline)

    def score_claim(
        self,
        provider_id: int,
        cell: int,
        technology: int,
        state: str | None = None,
        deadline: Deadline | None = None,
    ) -> dict | None:
        """Synchronous :meth:`score_claim_async` (submits, flushes, waits)."""
        fut = self.score_claim_async(
            provider_id, cell, technology, state, deadline=deadline
        )
        if not fut.done():
            self.batcher.flush()
        return fut.result()

    # -- bulk paths ---------------------------------------------------------

    @staticmethod
    def _key_columns(triples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (pid, cell, tech) arrays from key tuples."""
        n = len(triples)
        return (
            np.fromiter((t[0] for t in triples), dtype=np.int64, count=n),
            np.fromiter((t[1] for t in triples), dtype=np.uint64, count=n),
            np.fromiter((t[2] for t in triples), dtype=np.int64, count=n),
        )

    def _gather(
        self, provider_id, cell, technology
    ) -> tuple[np.ndarray, list[dict | None]]:
        """Composite-index rows + records for parallel key arrays.

        The one shared resolution step under every bulk path: a single
        vectorized ``positions`` probe, misses as ``None``.
        """
        with obs_trace.span("store_lookup") as span:
            if self.fault_plan is not None:
                self.fault_plan.fire(SEAM_STORE_READ)
            pos = self.store.positions(
                np.asarray(provider_id, dtype=np.int64),
                np.asarray(cell, dtype=np.uint64),
                np.asarray(technology, dtype=np.int64),
            )
            hits = int((pos >= 0).sum())
            if span is not None:
                span.attrs.update(keys=int(pos.size), hits=hits)
            records = [
                self.store.record(int(p)) if p >= 0 else None for p in pos
            ]
        if hits:
            self._scores_pre.inc(hits)
        return pos, records

    def score_claims(self, provider_id, cell, technology) -> list[dict | None]:
        """Vectorized store lookup for arrays of claim keys (no cold path)."""
        return self._gather(provider_id, cell, technology)[1]

    def score_keys(
        self, keys: list[ClaimKey], deadline: Deadline | None = None
    ) -> tuple[list[dict | None], bool]:
        """Score typed claim keys: one vectorized gather for precomputed
        keys, with cold-capable misses riding the micro-batcher.

        The v2 batch-endpoint path: unlike the v1 bulk path (every key
        through the batcher's Future machinery), keys already in the
        store skip the queue entirely.

        Returns ``(results, degraded)``.  ``degraded`` flips when cold
        slots could not be scored for *infrastructure* reasons — the
        circuit breaker is open, the request's budget ran out before the
        cold flush, or an injected fault hit the scorer: those slots
        resolve to ``None`` and the precomputed remainder still serves.
        A cold slot whose live scoring fails on *bad data* still raises,
        deliberately matching the v1 bulk path — client errors are 400s,
        not silent gaps.
        """
        if not keys:
            return [], False
        # Validate every key up front — ranges always, and carried
        # states even on keys that hit the store.  A typo'd state must
        # fail now, not on the first miss; and anything raising
        # mid-submit below would strand already-queued batchmates with
        # no waiter to drain them.
        for key in keys:
            validate_key_range(key.provider_id, key.cell, key.technology)
            if key.state is not None:
                state_index(key.state)
        if deadline is not None:
            deadline.require("batch request")
        pos, results = self._gather(*self._key_columns([k.payload for k in keys]))
        cold = [i for i, p in enumerate(pos) if p < 0 and keys[i].state is not None]
        degraded = False
        if cold:
            futures = []
            try:
                for i in cold:
                    futures.append(
                        (
                            i,
                            self.score_claim_async(
                                *keys[i].payload, deadline=deadline
                            ),
                        )
                    )
            except DeadlineExceeded:
                # Budget died mid-submit: slots not yet queued stay None;
                # the already-queued ones drain through the flush below.
                degraded = True
            self.batcher.flush()
            for i, fut in futures:
                try:
                    results[i] = fut.result()
                except (ColdPathDegraded, DeadlineExceeded, InjectedFault):
                    results[i] = None
                    degraded = True
        return results, degraded

    # -- the coalesced batch scorer -----------------------------------------

    def _score_batch(self, payloads: list) -> list:
        """Resolve one coalesced batch: store gathers + one cold batch.

        Precomputed keys resolve through a single composite-index lookup;
        the cold remainder (explicit ``state``, missing from the store) is
        vectorized and scored in one classifier pass, with percentiles
        placed on the precomputed distribution.
        """
        pid, cell, tech = self._key_columns(payloads)
        pos, results = self._gather(pid, cell, tech)
        cold = [
            i for i, p in enumerate(pos) if p < 0 and payloads[i][3] is not None
        ]
        if not cold:
            return results
        if not self.cold_path_available:
            raise RuntimeError(
                "cold-path scoring requires a live classifier and FeatureBuilder"
            )
        if self.breaker is not None and not self.breaker.allow():
            # Breaker open: fail the cold slots fast without attempting to
            # score.  The precomputed slots of this batch are untouched —
            # graceful degradation, not a batch-wide failure.
            fail = ColdPathDegraded("cold-path circuit breaker is open")
            for i in cold:
                results[i] = fail
            return results
        states = np.array([payloads[i][3] for i in cold], dtype=object)
        try:
            margin = self._cold_margins(pid[cold], cell[cold], tech[cold], states)
        except InjectedFault as exc:
            # An infrastructure fault (as opposed to bad claim data): it
            # counts against the breaker, and the cold slots degrade.
            if self.breaker is not None:
                self.breaker.record_failure()
            fail = ColdPathDegraded(f"cold scoring unavailable: {exc}")
            for i in cold:
                results[i] = fail
            return results
        except Exception:
            # A malformed hypothetical (unknown provider/technology) must
            # not poison the coalesced batch it flushed with: rescore the
            # cold payloads one at a time, turning each failure into that
            # payload's own error (the batcher delivers exception
            # instances per slot and never caches them).
            margin = None
        if margin is not None:
            if self.breaker is not None:
                self.breaker.record_success()
            for j, i in enumerate(cold):
                results[i] = self._cold_record(payloads[i], float(margin[j]))
            return results
        infra_failures = 0
        for j, i in enumerate(cold):
            try:
                one = self._cold_margins(
                    pid[i : i + 1], cell[i : i + 1], tech[i : i + 1], states[j : j + 1]
                )
                results[i] = self._cold_record(payloads[i], float(one[0]))
            except InjectedFault as exc:
                infra_failures += 1
                results[i] = ColdPathDegraded(f"cold scoring unavailable: {exc}")
            except Exception as exc:
                # Bad claim data fails just this slot and never trips the
                # breaker: clients cannot open it with malformed input.
                results[i] = ValueError(
                    f"cold scoring failed for claim "
                    f"(provider_id={int(pid[i])}, cell={int(cell[i])}, "
                    f"technology={int(tech[i])}): {exc}"
                )
        if self.breaker is not None:
            if infra_failures:
                self.breaker.record_failure()
            else:
                self.breaker.record_success()
        return results

    def _cold_margins(
        self,
        pid: np.ndarray,
        cell: np.ndarray,
        tech: np.ndarray,
        states: np.ndarray,
    ) -> np.ndarray:
        """Live margins for hypothetical filings (one vectorized pass)."""
        with obs_trace.span("cold_score", keys=int(pid.size)):
            if self.fault_plan is not None:
                self.fault_plan.fire(SEAM_COLD_SCORE)
            cols = ObservationColumns(
                provider_id=pid,
                cell=cell,
                technology=tech,
                state=states,
                unserved=np.zeros(pid.size, dtype=np.int64),
            )
            margins = self.classifier.predict_margin(
                self.builder.vectorize_columns(cols)
            )
        self._scores_cold.inc(int(pid.size))
        return margins

    def _cold_record(self, payload: tuple, margin: float) -> dict:
        return ScoreRecord(
            provider_id=payload[0],
            cell=payload[1],
            technology=payload[2],
            state=payload[3],
            score=float(_sigmoid(np.array([margin]))[0]),
            margin=margin,
            percentile=float(self.store.margin_percentile(np.array([margin]))[0]),
            rank=None,
            precomputed=False,
        ).to_dict()


class ModelRegistry:
    """Named model versions + an atomically swappable default.

    ``max_batch`` / ``max_delay_s`` / ``cache_size`` are the batcher
    defaults applied to every version registered through this registry.
    """

    def __init__(
        self,
        max_batch: int = 1024,
        max_delay_s: float = 0.002,
        cache_size: int = 4096,
        metrics: MetricsRegistry | None = None,
    ):
        self._batcher_config = {
            "max_batch": int(max_batch),
            "max_delay_s": float(max_delay_s),
            "cache_size": int(cache_size),
        }
        #: One MetricsRegistry per model registry: every version (and the
        #: HTTP server fronting this registry) records here, so two
        #: services in one process never mix serving series.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._versions: dict[str, ModelVersion] = {}
        self._lock = threading.Lock()
        #: The default version. A bare reference: readers snapshot it in
        #: one atomic read, activate() replaces it in one assignment.
        self._default: ModelVersion | None = None
        #: Maintenance tracking for /readyz: while a hot-swap or a store
        #: load is in flight, the registry reports not-ready (in-flight
        #: requests keep serving from their snapshots regardless).
        self._maintenance_depth = 0
        self._maintenance_reason: str | None = None

    # -- registration -------------------------------------------------------

    def add(
        self,
        name: str,
        store: ClaimScoreStore,
        classifier=None,
        builder=None,
        model=None,
        default: bool | None = None,
        fault_plan: FaultPlan | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> ModelVersion:
        """Register a version; the first one becomes the default unless
        ``default`` says otherwise."""
        version = ModelVersion(
            name,
            store,
            classifier=classifier,
            builder=builder,
            model=model,
            fault_plan=fault_plan,
            breaker=breaker,
            metrics=self.metrics,
            **self._batcher_config,
        )
        with self._lock:
            if version.name in self._versions:
                raise ValueError(f"version {version.name!r} already registered")
            self._versions[version.name] = version
            if default or (default is None and self._default is None):
                self._default = version
        return version

    def load(
        self,
        name: str,
        path: str,
        builder=None,
        default: bool | None = None,
    ) -> ModelVersion:
        """Register a version from a bundle written by
        :meth:`AuditService.save`.

        The single-shard score store serves zero-copy off the mapped
        files.  ``builder``, when given a compatible live
        :class:`FeatureBuilder`, is re-warmed from the bundle's encoder
        state and enables cold-path scoring for this version.
        """
        from repro.serve.artifacts import load_service_bundle

        with self.maintenance(f"loading model version {name!r}"):
            artifacts, store = load_service_bundle(path, builder=builder)
            return self.add(
                name,
                store,
                classifier=artifacts.classifier,
                builder=builder,
                default=default,
            )

    # -- resolution ---------------------------------------------------------

    @property
    def default(self) -> ModelVersion:
        """An atomic snapshot of the current default version."""
        version = self._default
        if version is None:
            n = len(self._versions)
            raise RuntimeError(
                "registry has no default version "
                + (
                    f"({n} registered; call activate() to pick one)"
                    if n
                    else "(none registered)"
                )
            )
        return version

    @property
    def default_name(self) -> str:
        return self.default.name

    def get(self, name: str) -> ModelVersion:
        try:
            return self._versions[name]
        except KeyError:
            raise KeyError(f"unknown model version {name!r}") from None

    def resolve(self, name: str | None) -> ModelVersion:
        """``None`` -> the default snapshot; a name -> that version."""
        return self.default if name is None else self.get(name)

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._versions)

    def __len__(self) -> int:
        return len(self._versions)

    def __contains__(self, name: str) -> bool:
        return name in self._versions

    # -- hot swap -----------------------------------------------------------

    def stage(self, name: str) -> dict:
        """Phase one of a two-phase (fleet-wide) swap: validate and warm
        ``name`` without flipping the default.

        Touches the version's store so the swap's first requests don't
        pay the cold cost, and returns an identity descriptor the pool
        coordinator compares across workers — every member must have
        staged a byte-identical store (same ``etag``) before any of them
        is told to commit, or the swap aborts with no default changed.
        """
        version = self.get(name)
        return {
            "name": version.name,
            "n_claims": len(version.store),
            "etag": version.store.etag,
        }

    def activate(self, name: str) -> ModelVersion:
        """Atomically make ``name`` the default version.

        In-flight requests that already snapshotted the old default keep
        serving from it, complete and internally consistent; requests
        arriving after the swap see only the new version.
        """
        with self.maintenance(f"activating model version {name!r}"):
            with self._lock:
                version = self._versions.get(name)
                if version is None:
                    raise KeyError(f"unknown model version {name!r}")
                self._default = version
            return version

    # -- readiness ----------------------------------------------------------

    @contextmanager
    def maintenance(self, reason: str):
        """Mark the registry not-ready for the duration (``/readyz`` flips).

        Reentrant across concurrent operations: readiness returns once
        the *last* in-flight maintenance window closes.
        """
        with self._lock:
            self._maintenance_depth += 1
            self._maintenance_reason = reason
        try:
            yield
        finally:
            with self._lock:
                self._maintenance_depth -= 1
                if self._maintenance_depth == 0:
                    self._maintenance_reason = None

    @property
    def ready(self) -> bool:
        return self._maintenance_depth == 0 and self._default is not None

    def readiness(self) -> dict:
        """The ``/readyz`` payload: ready flag plus the blocking reason."""
        with self._lock:
            depth = self._maintenance_depth
            reason = self._maintenance_reason
        if depth > 0:
            return {"ready": False, "reason": reason or "maintenance in progress"}
        if self._default is None:
            return {"ready": False, "reason": "no default model version"}
        return {"ready": True, "reason": None}

    # -- introspection / lifecycle ------------------------------------------

    def describe(self) -> dict:
        """The ``GET /v2/models`` payload."""
        default = self._default
        with self._lock:
            versions = sorted(self._versions.values(), key=lambda v: v.name)
        return {
            "default": None if default is None else default.name,
            "versions": [v.describe(default=v is default) for v in versions],
        }

    def close(self) -> None:
        with self._lock:
            versions = list(self._versions.values())
        for version in versions:
            version.close()
