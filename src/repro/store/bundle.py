"""World-detached feature-table bundle (the shard-worker's builder).

Shard-parallel store building (:mod:`repro.store.parallel`) runs scoring
in separate processes that must not — and cannot cheaply — reconstruct
the simulated world.  This module persists exactly the columnar tables
:meth:`FeatureBuilder.vectorize_columns` consults, pickle-free
(a :mod:`repro.utils.persist` bundle), and rebuilds a *frozen* builder from
them:

=====================  ======================================================
Lookup                 Frozen source
=====================  ======================================================
BSLs per cell          occupied-cell / count arrays (:class:`_FrozenFabric`)
Ookla coverage         cell / score arrays -> dict (insertion order kept)
MLab test counts       (provider, cell, count) triples -> a real
                       :class:`~repro.dataset.likely_served.MLabLocalization`
Claim attributes       the worker's own ``ClaimColumns`` shard (passed in)
Encoders + caches      :meth:`FeatureBuilder.export_encoder_state`, with the
                       embedding/centroid caches pre-warmed for **every**
                       distinct provider/cell in the builder's claim table
=====================  ======================================================

Because every cache is warmed before export, the frozen builder never
needs the live provider universe; :class:`_FrozenUniverse` raises on any
residual access instead of silently diverging.  The equivalence suite
asserts frozen ``vectorize_columns`` output is bitwise-identical to the
live builder's.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.likely_served import MLabLocalization
from repro.features.embedding import TextEmbedder
from repro.features.vectorize import FeatureBuilder
from repro.utils.indexing import ColumnIndex
from repro.utils.persist import read_bundle, write_bundle

__all__ = ["save_feature_tables", "load_feature_tables"]

_KIND = "feature-tables"

#: Manifest major version; bump on layout changes.
_SCHEMA = 2


class _FrozenFabric:
    """BSL-count lookups from persisted occupied-cell arrays.

    Mirrors :meth:`repro.fcc.fabric.Fabric.bsl_counts_in_cells` exactly
    (same index type, same miss semantics) so features built against it
    match the live fabric bitwise.
    """

    def __init__(self, cells: np.ndarray, counts: np.ndarray):
        self._cells = np.asarray(cells, dtype=np.uint64)
        self._counts = np.asarray(counts, dtype=np.int64)
        self._index = ColumnIndex(self._cells)

    def bsl_counts_in_cells(self, cells: np.ndarray) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.uint64)
        if self._counts.size == 0 or cells.size == 0:
            return np.zeros(cells.size, dtype=np.int64)
        pos = self._index.positions(cells)
        found = pos >= 0
        return np.where(
            found, self._counts[np.where(found, pos, 0)], 0
        ).astype(np.int64)

    def bsl_count_in_cell(self, cell: int) -> int:
        return int(self.bsl_counts_in_cells(np.array([cell], dtype=np.uint64))[0])


class _FrozenUniverse:
    """Stand-in provider universe that refuses every lookup loudly.

    A frozen builder's caches cover every provider it will ever see; a
    ``provider()`` call therefore means a key outside the bundle's claim
    table reached the feature path — fail fast instead of inventing
    attributes.
    """

    def provider(self, provider_id: int):
        raise LookupError(
            f"provider {provider_id} is not covered by this frozen feature "
            "bundle (cold lookups need the live provider universe)"
        )


def save_feature_tables(path: str, builder: FeatureBuilder) -> str:
    """Persist a builder's vectorization tables into directory ``path``.

    Warms the embedding/centroid caches for every distinct provider and
    cell in the builder's claim table first, so the bundle is complete
    for scoring any subset of those claims.
    """
    claims = builder.claims
    builder.warm_caches(claims.provider_id, claims.cell)
    encoder_manifest, encoder_arrays = builder.export_encoder_state()

    fabric = builder.fabric
    if isinstance(fabric, _FrozenFabric):
        bsl_cells, bsl_counts = fabric._cells, fabric._counts
    else:
        bsl_cells, bsl_counts = np.unique(fabric.cells, return_counts=True)
        bsl_cells = bsl_cells.astype(np.uint64)
        bsl_counts = bsl_counts.astype(np.int64)

    coverage = builder.coverage_scores
    cov_cells = np.fromiter(coverage.keys(), dtype=np.uint64, count=len(coverage))
    cov_values = np.fromiter(
        coverage.values(), dtype=np.float64, count=len(coverage)
    )

    test_counts = builder.localization.test_counts
    mlab_providers = np.fromiter(
        (pid for pid, _ in test_counts), dtype=np.int64, count=len(test_counts)
    )
    mlab_cells = np.fromiter(
        (cell for _, cell in test_counts), dtype=np.uint64, count=len(test_counts)
    )
    mlab_counts = np.fromiter(
        test_counts.values(), dtype=np.int64, count=len(test_counts)
    )

    arrays = {
        "bsl_cells": bsl_cells,
        "bsl_counts": bsl_counts,
        "cov_cells": cov_cells,
        "cov_values": cov_values,
        "mlab_provider_ids": mlab_providers,
        "mlab_cells": mlab_cells,
        "mlab_counts": mlab_counts,
    }
    arrays.update(
        {f"encoder/{key}": arr for key, arr in encoder_arrays.items()}
    )
    return write_bundle(
        path, _KIND, _SCHEMA, arrays, {"encoders": encoder_manifest}
    )


def load_feature_tables(path: str, claims) -> FeatureBuilder:
    """Rebuild a frozen :class:`FeatureBuilder` over ``claims``.

    ``claims`` is the :class:`~repro.fcc.bdc.ClaimColumns` table (or any
    subset shard of it) the builder should vectorize against; its keys
    must fall inside the bundle's warmed caches.
    """
    manifest, arrays = read_bundle(path, _KIND, _SCHEMA, mmap=False)
    encoder_arrays = {
        key.partition("/")[2]: arr
        for key, arr in arrays.items()
        if key.startswith("encoder/")
    }
    coverage = dict(
        zip(arrays["cov_cells"].tolist(), arrays["cov_values"].tolist())
    )
    test_counts = {
        (int(pid), int(cell)): int(count)
        for pid, cell, count in zip(
            arrays["mlab_provider_ids"],
            arrays["mlab_cells"],
            arrays["mlab_counts"],
        )
    }
    cells_by_provider: dict[int, set[int]] = {}
    for pid, cell in test_counts:
        cells_by_provider.setdefault(pid, set()).add(cell)
    localization = MLabLocalization(
        cells_by_provider=cells_by_provider,
        test_counts=test_counts,
        n_dropped_radius=0,
        n_dropped_unattributed=0,
    )
    builder = FeatureBuilder(
        fabric=_FrozenFabric(arrays["bsl_cells"], arrays["bsl_counts"]),
        universe=_FrozenUniverse(),
        table=claims,
        coverage_scores=coverage,
        localization=localization,
        embedder=TextEmbedder.from_spec(manifest["encoders"]["embedder"]),
    )
    builder.restore_encoder_state(manifest["encoders"], encoder_arrays)
    return builder
