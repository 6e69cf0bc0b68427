"""The per-layer breakdown: which public calls are wrapped, under
which span names, and how spans become per-layer metrics.

Sites are wrapped at the attribute their caller looks them up by
(``repro.core.pipeline.generate_fabric`` for the call inside
``build_world``, not ``repro.fcc.fabric.generate_fabric``).  Every
traced run reports every per-layer metric; a layer a workload never
exercises inside its timed operations reads 0.
"""

from __future__ import annotations

import os
import subprocess
import sys

import common
from tracer import SpanRecorder, layer_metrics

#: Per-layer seconds metric -> span names whose self time it sums.
TIME_LAYERS = {
    "fcc.fabric_s": ("fcc.fabric",),
    "fcc.providers_s": ("fcc.providers",),
    "fcc.filings_s": ("fcc.filings",),
    "fcc.challenges_s": ("fcc.challenges",),
    "fcc.releases_s": ("fcc.releases",),
    "asn.crosswalk_s": ("asn.crosswalk",),
    "speedtests.ookla_s": ("speedtests.ookla",),
    "speedtests.mlab_s": ("speedtests.mlab",),
    "geo.reproject_s": ("geo.reproject",),
    "geo.radius_s": ("geo.radius",),
    "dataset.localize_s": ("dataset.localize",),
    "dataset.coverage_s": ("dataset.coverage",),
    "dataset.build_s": ("dataset.build",),
    "enrich.truthmap_s": ("enrich.truthmap",),
    "enrich.challenges_s": ("enrich.challenges",),
    "enrich.priority_s": ("enrich.priority",),
    "features.builder_s": ("features.builder",),
    "features.vectorize_s": ("features.vectorize",),
    "ml.fit_s": ("ml.fit",),
    "store.ingest_s": ("store.ingest",),
    "store.save_s": ("store.save",),
    "store.load_s": ("store.load",),
    "store.fsync_s": ("store.fsync",),
    "serve.store_build_s": ("serve.store_build",),
}

#: Counts recorded at the same boundaries (per operation).
COUNTS = (
    "geo.radius_calls",
    "dataset.localize_tests",
    "dataset.observations",
    "enrich.truthmap_tiles",
    "features.rows",
    "ml.trees",
    "store.ingest_rows",
    "store.ingest_rejects",
    "store.fsync_calls",
)

#: Spans whose share is also reported with their children included
#: (localization and the truth map each own their radius calls).
INCLUSIVE = ("dataset.localize", "enrich.truthmap")

#: Offline per-layer figures that are not span sums.
OFFLINE_EXTRA = {
    "core.traced_total_s": "s",
    "core.other_s": "s",
    "core.other_share": "fraction",
    "obs.trace_overhead": "fraction",
    "store.bytes_per_claim": "bytes",
}

#: Online serving figures (``wl_serve``); units per metric.
SERVE_LAYERS = {
    "serve.http.admission_ms": "ms",
    "serve.http.parse_ms": "ms",
    "serve.http.handler_ms": "ms",
    "serve.store.lookup_ms": "ms",
    "serve.batcher.flush_ms": "ms",
    "serve.http.encode_ms": "ms",
    "serve.wire_ms": "ms",
    "serve.bulk.parse_ms": "ms",
    "serve.bulk.handler_ms": "ms",
    "serve.bulk.lookup_ms": "ms",
    "serve.bulk.encode_ms": "ms",
    "serve.batcher.cache_hit_ratio": "fraction",
    "serve.batcher.mean_batch": "count",
    "serve.store.hit_ratio": "fraction",
    "serve.admission.shed": "count",
    "serve.pool.activate_ms": "ms",
    "serve.pool.swaps_committed": "count",
    "serve.pool.swaps_aborted": "count",
    "serve.client.send_lag_ms": "ms",
    "serve.client.lag_growth_ms": "ms",
    "serve.client.sent": "count",
    "serve.client.failed": "count",
    "serve.point_p99_ms": "ms",
    "serve.point_ok_frac": "fraction",
    "serve.max_ok_rps": "req/s",
    "serve.trace_samples": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name the benchmark reports, with its unit."""
    units = {}
    for name in TIME_LAYERS:
        units[name] = "s"
        units[name[: -len("_s")] + "_share"] = "fraction"
    units.update({name: "count" for name in COUNTS})
    units.update({span + "_incl_share": "fraction" for span in INCLUSIVE})
    units.update(OFFLINE_EXTRA)
    units.update(SERVE_LAYERS)
    return units


def recorder(workload: str, seed: int) -> SpanRecorder:
    return SpanRecorder(f"{workload}-{seed}-{os.getpid()}")


#: Fresh interpreters timed for the process-start part of set-up.
IMPORT_REPEATS = 3


def import_setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing the program.

    The process-start part of the offline workloads' set-up, measured in
    ``IMPORT_REPEATS`` new processes; this process then imports the same
    modules untimed, so no operation pays for a first import.
    """
    code = "import sys; sys.path.insert(0, sys.argv[1]); import " + ", ".join(
        common.PROGRAM_MODULES
    )
    times = []
    for _ in range(IMPORT_REPEATS):
        seconds, _ = common.timed(
            subprocess.run,
            [sys.executable, "-c", code, os.path.join(common.ROOT, "src")],
            check=True,
            timeout=120,
        )
        times.append(seconds)
    for module in common.PROGRAM_MODULES:
        __import__(module)
    return common.median(times)


# -- wrap sites ---------------------------------------------------------------


def _count(name, of):
    def after(recorder, args, kwargs, out):
        recorder.count(name, of(args, kwargs, out))

    return after


def _offline_sites():
    """Sites shared by the pipeline and refresh operations."""
    import repro.core.pipeline as pipeline
    from repro.core.model import NBMIntegrityModel
    from repro.features.vectorize import FeatureBuilder
    from repro.serve.store import ClaimScoreStore

    return [
        (pipeline, "build_dataset", "dataset.build",
         _count("dataset.observations", lambda a, k, out: len(out))),
        (pipeline, "make_feature_builder", "features.builder"),
        (FeatureBuilder, "vectorize", "features.vectorize"),
        (FeatureBuilder, "vectorize_columns", "features.vectorize",
         _count("features.rows", lambda a, k, out: out.shape[0])),
        (NBMIntegrityModel, "fit", "ml.fit",
         _count("ml.trees", lambda a, k, out: len(out.classifier.trees))),
        (ClaimScoreStore, "build", "serve.store_build"),
        (ClaimScoreStore, "build_sharded", "serve.store_build"),
        (os, "fsync", "store.fsync",
         _count("store.fsync_calls", lambda a, k, out: 1)),
    ]


def pipeline_site_list():
    import repro.core.pipeline as pipeline
    import repro.dataset.likely_served as likely_served
    import repro.enrich as enrich
    import repro.enrich.truthmap as truthmap

    radius_count = _count("geo.radius_calls", lambda a, k, out: 1)
    return [
        (pipeline, "generate_fabric", "fcc.fabric"),
        (pipeline, "generate_providers", "fcc.providers"),
        (pipeline, "generate_filings", "fcc.filings"),
        (pipeline, "simulate_challenges", "fcc.challenges"),
        (pipeline, "build_release_timeline", "fcc.releases"),
        (pipeline, "infer_unarchived_changes", "fcc.releases"),
        (pipeline, "build_provider_id_table", "asn.crosswalk"),
        (pipeline, "build_whois_registry", "asn.crosswalk"),
        (pipeline, "match_providers_to_asns", "asn.crosswalk"),
        (pipeline, "generate_ookla_tiles", "speedtests.ookla"),
        (pipeline, "reproject_tiles", "geo.reproject"),
        (pipeline, "service_coverage_scores", "dataset.coverage"),
        (pipeline, "generate_mlab_tests", "speedtests.mlab"),
        (pipeline, "localize_mlab_tests", "dataset.localize",
         _count("dataset.localize_tests", lambda a, k, out: len(a[0]))),
        (likely_served, "cells_within_radius", "geo.radius", radius_count),
        (truthmap, "cells_within_radius", "geo.radius", radius_count),
        (enrich, "build_truth_map", "enrich.truthmap",
         _count("enrich.truthmap_tiles", lambda a, k, out: len(out))),
        (enrich.ChallengeJoin, "from_records", "enrich.challenges"),
    ] + _offline_sites()


def refresh_site_list():
    import repro.enrich as enrich
    import repro.store as store
    from repro.enrich import TruthMap
    from repro.serve.store import ClaimScoreStore

    def ingest_counts(recorder, args, kwargs, out):
        recorder.count("store.ingest_rows", out.n_ingested)
        recorder.count("store.ingest_rejects", out.n_rejected)

    return [
        (store, "ingest_csv", "store.ingest", ingest_counts),
        (ClaimScoreStore, "save_sharded", "store.save"),
        (TruthMap, "save", "store.save"),
        (ClaimScoreStore, "load_sharded", "store.load"),
        (TruthMap, "load", "store.load"),
        (enrich, "build_priority", "enrich.priority"),
    ] + _offline_sites()


def finish_offline_trace(result, recorder, overhead, workload, seed, extra=None):
    """Fill every per-layer metric from an offline (pipeline/refresh)
    traced run; serving figures read 0 here.  ``overhead`` holds one
    traced / untraced - 1 ratio per pair of operations on equal inputs."""
    figures = layer_metrics(recorder, "op", TIME_LAYERS, COUNTS, INCLUSIVE)
    figures["obs.trace_overhead"] = (common.median(overhead), "fraction")
    figures.update(extra or {})
    for name, unit in per_layer_units().items():
        value, _ = figures.get(name, (0.0, unit))
        result.put(name, value, unit)
    recorder.write(
        os.path.join(common.OUT_DIR, "traces", f"{workload}-{seed}.json")
    )
