"""Versioned on-disk model artifacts (a :mod:`repro.utils.persist` bundle).

A fitted :class:`~repro.ml.gbdt.GradientBoostedClassifier` is a handful of
NumPy arrays plus a few scalars; this module persists exactly those — no
pickle anywhere, and manifest paths are confined to the bundle, so
bundles are safe to load from untrusted storage and stable across Python
versions.  The bundle's manifest carries
:class:`~repro.ml.gbdt.GBDTParams` fields, feature names, and the
feature builder's encoder manifest (embedder spec + one-hot category
orders); its arrays are the flat-ensemble node arrays
(``ensemble/*``, :meth:`FlatEnsemble.export_arrays`), the histogram
binner's packed cut lists (``binner/*``,
:meth:`HistogramBinner.export_state`), the base margin
(``scalar/base_margin``), and the builder's cached provider embeddings /
cell centroids (``encoder/*``).

Round-trips are **bitwise exact**: float64 arrays pass through the raw
``.npy`` format untouched, JSON floats round-trip via ``repr``, and the
reloaded classifier's float and binned margins — and its TreeSHAP
attributions — are identical to the live model's (asserted by the test
suite).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from repro.ml.gbdt import GBDTParams, GradientBoostedClassifier
from repro.ml.tree import FlatEnsemble, HistogramBinner
from repro.utils.persist import read_bundle, write_bundle

__all__ = [
    "ARTIFACT_SCHEMA",
    "ModelArtifacts",
    "load_model_artifacts",
    "load_service_bundle",
    "save_model_artifacts",
    "save_service_bundle",
]

#: Bump when the bundle layout changes incompatibly.
ARTIFACT_SCHEMA = 2

_KIND = "nbm-integrity-model"

_SERVICE_KIND = "audit-service"
_SERVICE_SCHEMA = 1


@dataclass(frozen=True)
class ModelArtifacts:
    """A loaded bundle: the reconstructed classifier plus its metadata."""

    classifier: GradientBoostedClassifier
    params: GBDTParams
    feature_names: tuple[str, ...]
    #: Encoder manifest (embedder spec, category orders) or ``None`` when
    #: the bundle was saved without builder state.
    encoders: dict | None

    @property
    def ensemble(self) -> FlatEnsemble:
        return self.classifier.flat_ensemble

    @property
    def binner(self) -> HistogramBinner:
        return self.classifier.binner

    def predict_margin(self, X: np.ndarray, *, binned: bool = False) -> np.ndarray:
        return self.classifier.predict_margin(X, binned=binned)

    def predict_proba(self, X: np.ndarray, *, binned: bool = False) -> np.ndarray:
        return self.classifier.predict_proba(X, binned=binned)


def model_bundle(
    classifier: GradientBoostedClassifier,
    feature_names: list[str] | tuple[str, ...] | None = None,
    builder=None,
) -> tuple[dict[str, np.ndarray], dict]:
    """A fitted classifier's ``(arrays, meta)`` bundle payload."""
    if not classifier.is_fitted:
        raise RuntimeError("cannot save an unfitted classifier; call fit() first")
    ensemble = classifier.flat_ensemble
    arrays: dict[str, np.ndarray] = {
        f"ensemble/{name}": arr for name, arr in ensemble.export_arrays().items()
    }
    for name, arr in classifier.binner.export_state().items():
        arrays[f"binner/{name}"] = arr
    arrays["scalar/base_margin"] = np.float64(classifier.base_margin)

    encoders = None
    if builder is not None:
        encoders, encoder_arrays = builder.export_encoder_state()
        for name, arr in encoder_arrays.items():
            arrays[f"encoder/{name}"] = arr
        if feature_names is None:
            feature_names = builder.feature_names

    meta = {
        "params": asdict(classifier.params),
        "n_features": classifier.n_features,
        "n_trees": ensemble.n_trees,
        "n_nodes": ensemble.n_nodes,
        "feature_names": list(feature_names) if feature_names is not None else None,
        "encoders": encoders,
    }
    return arrays, meta


def save_model_artifacts(
    path: str,
    classifier: GradientBoostedClassifier,
    feature_names: list[str] | tuple[str, ...] | None = None,
    builder=None,
) -> str:
    """Write a fitted classifier (and optional builder state) to ``path``.

    ``path`` is a bundle *directory* (created if absent).  ``builder``,
    when given a :class:`~repro.features.vectorize.FeatureBuilder`,
    contributes its encoder manifest and embedding/centroid caches so a
    compatible builder can be re-warmed on load.  Returns ``path``.
    """
    arrays, meta = model_bundle(classifier, feature_names, builder)
    return write_bundle(path, _KIND, ARTIFACT_SCHEMA, arrays, meta)


def model_from_bundle(
    meta: dict, arrays: dict[str, np.ndarray], builder=None
) -> ModelArtifacts:
    """Rebuild :class:`ModelArtifacts` from a :func:`model_bundle` payload."""
    groups: dict[str, dict[str, np.ndarray]] = {}
    for key, arr in arrays.items():
        group, _, name = key.partition("/")
        groups.setdefault(group, {})[name] = np.array(arr)

    binner = HistogramBinner.from_state(groups.get("binner", {}))
    ensemble = FlatEnsemble.from_arrays(groups.get("ensemble", {}))
    params = GBDTParams(**meta["params"])
    n_features = int(meta["n_features"])
    if len(binner.split_values_) != n_features:
        raise ValueError(
            f"binner covers {len(binner.split_values_)} features, "
            f"manifest says {n_features}"
        )
    classifier = GradientBoostedClassifier.from_components(
        params=params,
        binner=binner,
        trees=ensemble.to_trees(),
        base_margin=float(groups["scalar"]["base_margin"]),
        n_features=n_features,
        flat=ensemble,
    )
    encoders = meta.get("encoders")
    if builder is not None and encoders is not None:
        builder.restore_encoder_state(encoders, groups.get("encoder", {}))
    names = meta.get("feature_names")
    return ModelArtifacts(
        classifier=classifier,
        params=params,
        feature_names=tuple(names) if names is not None else (),
        encoders=encoders,
    )


def load_model_artifacts(path: str, builder=None) -> ModelArtifacts:
    """Reconstruct a classifier from a bundle written by
    :func:`save_model_artifacts`.

    ``builder``, when given, has its embedding/centroid caches re-warmed
    from the bundle's encoder state (after validating that its embedder
    spec and category orders match — mismatches raise rather than
    silently changing feature columns).  Arrays load with
    ``allow_pickle=False``; a bundle can never execute code.
    """
    manifest, arrays = read_bundle(path, _KIND, ARTIFACT_SCHEMA, mmap=False)
    return model_from_bundle(manifest, arrays, builder)


def save_service_bundle(
    path: str, classifier, store, feature_names=None, builder=None
) -> str:
    """Write a (model, score store) pair as *one* bundle.

    The model's arrays go under ``model/`` and the single-shard store's
    under ``store/`` of the same generation, with their manifests under
    the ``model`` / ``store`` keys: one commit, so a killed save can
    never pair a new model with an old store.
    """
    model_arrays, model_meta = model_bundle(classifier, feature_names, builder)
    sharded, extras = store.to_sharded(shards=1)
    store_arrays, store_meta = sharded.bundle(**extras)
    arrays = {f"model/{key}": arr for key, arr in model_arrays.items()}
    arrays.update({f"store/{key}": arr for key, arr in store_arrays.items()})
    meta = {"model": model_meta, "store": store_meta}
    return write_bundle(path, _SERVICE_KIND, _SERVICE_SCHEMA, arrays, meta)


def load_service_bundle(path: str, builder=None):
    """``(ModelArtifacts, ClaimScoreStore)`` from a
    :func:`save_service_bundle` directory; the store serves zero-copy
    off the mapped files."""
    from repro.serve.store import ClaimScoreStore
    from repro.store.sharded import ShardedClaimColumns

    manifest, arrays = read_bundle(path, _SERVICE_KIND, _SERVICE_SCHEMA)
    parts: dict[str, dict[str, np.ndarray]] = {"model": {}, "store": {}}
    for key, arr in arrays.items():
        head, _, rest = key.partition("/")
        parts.setdefault(head, {})[rest] = arr
    artifacts = model_from_bundle(manifest["model"], parts["model"], builder)
    sharded = ShardedClaimColumns.from_bundle(manifest["store"], parts["store"])
    return artifacts, ClaimScoreStore.from_sharded(sharded, path)
