"""National-shard claim store: per-state mmap shards, streaming BDC
ingestion, and shard-parallel score-store builds.

==============================  ==============================================
Module                          Responsibility
==============================  ==============================================
:mod:`repro.store.sharded`      :class:`ShardedClaimColumns` — per-state
                                shards of the claim columns, persisted as
                                one raw-mmap :mod:`repro.utils.persist`
                                bundle
:mod:`repro.store.ingest`       streaming BDC-CSV ingestion with validation,
                                a rejected-rows sidecar, and exact
                                round-tripping
:mod:`repro.store.bundle`       world-detached feature-table bundles and
                                frozen-builder reconstruction for workers
:mod:`repro.store.parallel`     shard-parallel margin scoring across
                                ``multiprocessing`` workers
==============================  ==============================================

The subsystem's defining invariant — proven by the property-test layer
in ``tests/test_store_sharded.py`` — is that sharded build, lookup, and
pagination are *bitwise-identical* to the monolithic
:class:`~repro.serve.store.ClaimScoreStore` path.
"""

from repro.store.bundle import load_feature_tables, save_feature_tables
from repro.store.ingest import (
    BDC_CSV_FIELDS,
    IngestResult,
    ingest_csv,
    write_bdc_csv,
)
from repro.store.parallel import build_sharded_margins
from repro.store.sharded import SHARD_MANIFEST_NAME, ShardedClaimColumns

__all__ = [
    "BDC_CSV_FIELDS",
    "IngestResult",
    "SHARD_MANIFEST_NAME",
    "ShardedClaimColumns",
    "build_sharded_margins",
    "ingest_csv",
    "load_feature_tables",
    "save_feature_tables",
    "write_bdc_csv",
]
