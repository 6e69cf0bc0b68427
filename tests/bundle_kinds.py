"""Every on-disk artifact kind, as one table the persistence tests share.

Each :class:`BundleKind` writes one of two *different* small artifacts
(``variant`` 0 or 1) through its public save API and loads it back
through its public load API, so the crash-safety, corruption and
commit-order suites run over every writer in ``src/`` without near-copy
tests.  ``victim`` names a non-empty 1-D array key the corruption
suites damage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from conftest import make_random_claims


@dataclass(frozen=True)
class BundleKind:
    label: str
    kind: str  # the manifest's ``kind``
    schema: int
    save: Callable  # (root, variant, request) -> None
    load: Callable  # (root, request) -> loaded object
    victim: str

    def __repr__(self) -> str:
        return self.label


def _problem(seed: int, n: int = 200, d: int = 4):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + rng.normal(scale=0.5, size=n) > 0).astype(float)
    return X, y


@functools.lru_cache(maxsize=None)
def _classifier(variant: int):
    from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier

    X, y = _problem(40 + variant)
    params = GBDTParams(n_estimators=3 + variant, max_depth=2, random_state=variant)
    return GradientBoostedClassifier(params).fit(X, y)


@functools.lru_cache(maxsize=None)
def _score_store(variant: int):
    from repro.serve.store import ClaimScoreStore

    claims = make_random_claims(60 + variant, n=150)
    margin = np.random.default_rng(variant).normal(size=len(claims.provider_id))
    return ClaimScoreStore(claims, margin)


@functools.lru_cache(maxsize=None)
def _truth_map(variant: int):
    from repro.enrich import TruthMap

    # Same size, different content: a torn save would load silently.
    rng = np.random.default_rng(80 + variant)
    n = 40
    speeds = rng.gamma(2.0, 50.0, size=(4, n))
    speeds[:, rng.random(n) < 0.2] = np.nan  # unmeasured directions
    return TruthMap.from_arrays(
        {
            "provider_id": np.sort(rng.integers(1, 9, n)),
            "cell": np.arange(n, dtype=np.uint64) * np.uint64(977),
            "median_down": speeds[0],
            "p90_down": speeds[1],
            "median_up": speeds[2],
            "p90_up": speeds[3],
            "n_tests": rng.integers(1, 30, n),
        }
    )


_builders: dict = {}


def _feature_builder(variant: int, request):
    """The session's tiny-world builder, or (variant 1) a fresh one with
    a wider embedding, so the two bundles differ in every encoder array."""
    if variant == 0:
        return request.getfixturevalue("tiny_builder")
    if variant not in _builders:
        from repro.features.vectorize import FeatureBuilder

        world = request.getfixturevalue("tiny_world")
        _builders[variant] = FeatureBuilder(
            fabric=world.fabric,
            universe=world.universe,
            table=world.table,
            coverage_scores=world.coverage_scores,
            localization=world.localization,
            embedding_dim=world.config.embedding_dim + 1,
        )
    return _builders[variant]


def _save_truth_map(root, variant, request):
    _truth_map(variant).save(root)


def _load_truth_map(root, request):
    from repro.enrich import TruthMap

    return TruthMap.load(root)


def _save_sharded(root, variant, request):
    from repro.store import ShardedClaimColumns

    claims = make_random_claims(50 + variant, n=200)
    ShardedClaimColumns.from_claims(claims, shards=2).save(root)


def _load_sharded(root, request):
    from repro.store import ShardedClaimColumns

    return ShardedClaimColumns.load(root)


def _save_store(root, variant, request):
    _score_store(variant).save_sharded(root, shards=1)


def _load_store(root, request):
    from repro.serve.store import ClaimScoreStore

    return ClaimScoreStore.load_sharded(root)


def _save_model(root, variant, request):
    from repro.serve.artifacts import save_model_artifacts

    save_model_artifacts(root, _classifier(variant))


def _load_model(root, request):
    from repro.serve.artifacts import load_model_artifacts

    return load_model_artifacts(root)


def _save_features(root, variant, request):
    from repro.store import save_feature_tables

    save_feature_tables(root, _feature_builder(variant, request))


def _load_features(root, request):
    from repro.store import load_feature_tables

    claims = request.getfixturevalue("tiny_builder").claims
    return load_feature_tables(root, claims=claims)


def _save_service(root, variant, request):
    from repro.serve import AuditService

    service = AuditService(_score_store(variant), classifier=_classifier(variant))
    try:
        service.save(root)
    finally:
        service.close()


def _load_service(root, request):
    from repro.serve import AuditService

    service = AuditService.from_artifacts(root)
    service.close()
    return service


KINDS = (
    BundleKind(
        "truth-map", "truth-map", 2, _save_truth_map, _load_truth_map,
        "provider_id",
    ),
    BundleKind(
        "sharded-claims", "sharded-claim-columns", 2, _save_sharded,
        _load_sharded, "shards/shard-00/provider_id",
    ),
    BundleKind(
        "score-store", "sharded-claim-columns", 2, _save_store, _load_store,
        "shards/shard-00/margin",
    ),
    BundleKind(
        "model-artifacts", "nbm-integrity-model", 2, _save_model, _load_model,
        "ensemble/threshold",
    ),
    BundleKind(
        "feature-tables", "feature-tables", 2, _save_features, _load_features,
        "cov_values",
    ),
    BundleKind(
        "audit-service", "audit-service", 1, _save_service, _load_service,
        "store/shards/shard-00/margin",
    ),
)
