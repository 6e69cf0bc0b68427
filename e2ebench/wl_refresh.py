"""``refresh``: the per-release path, with no geometry in the timed region.

Set-up builds the world and its enrichment once and writes the claims
as a BDC CSV.  Each operation ingests that CSV, rebuilds the dataset,
the feature builder and the model, scores the ingested claims
shard-parallel, persists and mmap-reloads the score store and the truth
map, and ends with the audit-priority table.  It is also the store's
write side (files, fsyncs, bytes).
"""

from __future__ import annotations

import os
import shutil
import time

import checks
import common
import layers
from common import Result
from tracer import wrapped

#: Set-up repeats; ``setup_s`` is their median.
SETUP_REPEATS = 3


def prepare(seed: int, workdir: str) -> dict:
    """Build the world and enrichment and write the release CSV."""
    from repro.core.pipeline import build_world, enrichment_from_world
    from repro.store import write_bdc_csv

    world = build_world(common.bench_config(seed))
    enrichment = enrichment_from_world(world)
    csv_path = write_bdc_csv(
        world.table.columnar(), os.path.join(workdir, "release.csv")
    )
    return {"world": world, "enrichment": enrichment, "csv": csv_path}


def refresh(state: dict, seed: int, workdir: str) -> dict:
    """One release refresh; returns everything the checks look at."""
    from repro.core.model import NBMIntegrityModel
    from repro.core.pipeline import build_dataset, make_feature_builder
    from repro.dataset.splits import random_observation_split
    from repro.enrich import TruthMap, build_priority
    from repro.serve.store import ClaimScoreStore
    from repro.store import ingest_csv

    world, enrichment = state["world"], state["enrichment"]
    ingest = ingest_csv([state["csv"]], os.path.join(workdir, "ingest"))
    claims = ingest.load(mmap=True).to_claims()
    dataset = build_dataset(world)
    # The base feature set: ``build_sharded`` workers rebuild the
    # builder from a bundle that does not carry the enrichment block,
    # and refuse a model fitted on the enriched set (see README.md).
    builder = make_feature_builder(world)
    split = random_observation_split(dataset, seed=seed)
    model = NBMIntegrityModel(builder, params=world.config.model)
    model.fit(dataset, train_idx=split.train_idx)
    store = ClaimScoreStore.build_sharded(
        model.classifier,
        builder,
        claims=claims,
        n_workers=os.cpu_count() or 1,
        workdir=os.path.join(workdir, "shards"),
    )
    bundle = store.save_sharded(os.path.join(workdir, "store"), shards=1)
    loaded = ClaimScoreStore.load_sharded(bundle, mmap=True)
    truth_root = enrichment.truthmap.save(os.path.join(workdir, "truthmap"))
    truthmap = TruthMap.load(truth_root, mmap=True)
    priority = build_priority(loaded, enrichment=enrichment)
    return {
        "ingest": ingest,
        "claims": claims,
        "dataset": dataset,
        "builder": builder,
        "model": model,
        "split": split,
        "store": store,
        "bundle": bundle,
        "loaded": loaded,
        "truthmap": truthmap,
        "priority": priority,
    }


def bundle_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f))
        for d, _, files in os.walk(path)
        for f in files
    )


class Checker:
    """The refresh checks; the first operation's outputs are the
    reference every later operation must reproduce bit for bit."""

    def __init__(self, state: dict):
        self.want_claims = state["world"].table.columnar()
        self.want_truthmap = state["enrichment"].truthmap
        self.first = None

    def __call__(self, out: dict) -> float:
        from repro.serve.store import ClaimScoreStore

        ingest = out["ingest"]
        checks.require(
            ingest.n_rejected == 0, f"ingest rejected {ingest.n_rejected} rows"
        )
        checks.columns_equal(out["claims"], self.want_claims, "ingested claims")
        checks.stores_equal(out["loaded"], out["store"], "mmap-loaded store")
        checks.truthmaps_equal(out["truthmap"], self.want_truthmap, "loaded truth map")
        auc = out["model"].evaluate(out["dataset"], out["split"]).auc
        checks.auc_above_floor(auc, checks.AUC_FLOOR_BASE)
        if self.first is None:
            mono = ClaimScoreStore.build(
                out["model"].classifier, out["builder"], claims=out["claims"]
            )
            checks.require(
                checks.same_bits(out["store"].margin, mono.margin),
                "build_sharded margins differ from the monolithic build",
            )
            self.first = {"auc": auc, "store": out["store"], "priority": out["priority"]}
            return auc
        checks.require(auc == self.first["auc"], "held-out AUC changed between operations")
        checks.stores_equal(out["store"], self.first["store"], "repeat refresh store")
        checks.priority_equal(out["priority"], self.first["priority"], "repeat refresh")
        return auc


def run(seed: int, seconds: float, trace: bool, host: common.HostSpeed) -> Result:
    result = Result()
    import_s = layers.import_setup_seconds()
    setup_times = []
    state = None
    for i in range(SETUP_REPEATS):
        state = None  # free the previous world before building the next
        seconds_i, state = common.timed(prepare, seed, common.scratch_dir(f"refresh-setup{i}"))
        setup_times.append(seconds_i)
    check = Checker(state)
    recorder = layers.recorder("refresh", seed) if trace else None
    op_s: list[float] = []
    claims_per_s: list[float] = []
    overhead: list[float] = []
    auc = None
    bytes_per_claim = 0.0
    deadline = time.perf_counter() + seconds
    ops = 0
    # A traced run alternates untraced and traced operations on the same
    # release, so the tracing overhead is measured on equal inputs.
    while time.perf_counter() < deadline or ops < 2 or (trace and ops % 2):
        traced = trace and ops % 2 == 1
        workdir = common.scratch_dir(f"refresh-op{ops}")
        ops += 1
        result.attempted += 1
        if traced:
            with wrapped(recorder, layers.refresh_site_list()):
                with recorder.span("op"):
                    elapsed, out = common.timed(refresh, state, seed, workdir)
            overhead.append(elapsed / op_s[-1] - 1.0)
        else:
            elapsed, out = common.timed(refresh, state, seed, workdir)
            op_s.append(elapsed)
            claims_per_s.append(len(out["store"]) / elapsed)
        auc = check(out)
        bytes_per_claim = bundle_bytes(out["bundle"]) / len(out["store"])
        del out
        shutil.rmtree(workdir, ignore_errors=True)
        deadline += host.sample()
    refresh_s = common.median(op_s)
    n_claims = len(check.want_claims)
    result.put("setup_s", import_s + common.median(setup_times), "s")
    result.put("op_s", refresh_s, "s")
    result.put("claims_per_s", common.median(claims_per_s), "claims/s")
    result.put("holdout_auc", auc, "AUC")
    result.put("ok_frac", 1.0 - result.failed / result.attempted, "fraction")
    result.put("peak_rss_mb", common.self_peak_rss_mb(), "MB")
    result.note("refresh_s", refresh_s, "s")
    result.note("refresh_s.samples", len(op_s), "count")
    result.note("input.claims", n_claims, "count")
    result.note("store.bytes_per_claim", bytes_per_claim, "bytes")
    if trace:
        layers.finish_offline_trace(
            result, recorder, overhead, "refresh", seed,
            extra={"store.bytes_per_claim": (bytes_per_claim, "bytes")},
        )
    return result
