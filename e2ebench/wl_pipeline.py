"""``pipeline``: one cold offline build per operation.

world -> enrichment -> dataset -> enriched feature builder -> fit on
the random split -> score store.  Geometry (MLab localization and the
truth map's repeat of it) is about half of it, so localization work
shows up here and nowhere else.
"""

from __future__ import annotations

import time

import checks
import common
import layers
from common import Result
from tracer import wrapped

#: Each run cycles through this many worlds (one per operation), so a
#: run's median averages over worlds as well as over repeats.
WORLDS_PER_RUN = 4


def cold_build(seed: int) -> dict:
    """One cold run of the whole offline product; returns its outputs."""
    from repro.core.model import NBMIntegrityModel
    from repro.core.pipeline import (
        build_dataset,
        build_world,
        enrichment_from_world,
        make_feature_builder,
    )
    from repro.dataset.splits import random_observation_split
    from repro.serve.store import ClaimScoreStore

    world = build_world(common.bench_config(seed))
    enrichment = enrichment_from_world(world)
    dataset = build_dataset(world)
    builder = make_feature_builder(world, enrichment=enrichment)
    split = random_observation_split(dataset, seed=seed)
    model = NBMIntegrityModel(builder, params=world.config.model)
    model.fit(dataset, train_idx=split.train_idx)
    store = ClaimScoreStore.build(model.classifier, builder)
    return {
        "world": world,
        "enrichment": enrichment,
        "dataset": dataset,
        "builder": builder,
        "model": model,
        "split": split,
        "store": store,
    }


def check(out: dict) -> float:
    """The pipeline's correctness checks; returns the held-out AUC."""
    world = out["world"]
    checks.truthmap_mirrors_localization(
        out["enrichment"].truthmap, world.localization
    )
    auc = out["model"].evaluate(out["dataset"], out["split"]).auc
    checks.auc_above_floor(auc, checks.AUC_FLOOR_ENRICHED)
    checks.one_finite_margin_per_claim(out["store"], world.table.columnar())
    return auc


def world_seed(seed: int, j: int) -> int:
    """Scenario seed of the run's ``j``-th world (cycling through
    ``WORLDS_PER_RUN`` worlds per run seed, disjoint across run seeds)."""
    return seed * WORLDS_PER_RUN + j % WORLDS_PER_RUN


def run(seed: int, seconds: float, trace: bool, host: common.HostSpeed) -> Result:
    result = Result()
    setup_s = layers.import_setup_seconds()
    op_s: list[float] = []
    claims_per_s: list[float] = []
    overhead: list[float] = []
    aucs: dict[int, float] = {}
    recorder = layers.recorder("pipeline", seed) if trace else None
    sizes = {}
    deadline = time.perf_counter() + seconds
    ops = 0
    # A traced run builds each world twice, untraced then traced, so the
    # tracing overhead is measured on the same inputs in the same run.
    while time.perf_counter() < deadline or ops < 2 or (trace and ops % 2):
        traced = trace and ops % 2 == 1
        world = world_seed(seed, ops // 2 if trace else ops)
        ops += 1
        result.attempted += 1
        if traced:
            with wrapped(recorder, layers.pipeline_site_list()):
                with recorder.span("op"):
                    elapsed, out = common.timed(cold_build, world)
            overhead.append(elapsed / op_s[-1] - 1.0)
        else:
            elapsed, out = common.timed(cold_build, world)
            op_s.append(elapsed)
            claims_per_s.append(len(out["store"]) / elapsed)
        auc = check(out)
        if aucs.setdefault(world, auc) != auc:
            raise common.CheckFailed(
                f"held-out AUC of world {world} changed: {aucs[world]} != {auc}"
            )
        if world == world_seed(seed, 0):
            sizes = {
                "claims": len(out["store"]),
                "observations": len(out["dataset"]),
                "mlab_tests": len(out["world"].mlab_tests),
            }
        del out
        deadline += host.sample()
    pipeline_s = common.median(op_s)
    result.put("setup_s", setup_s, "s")
    result.put("op_s", pipeline_s, "s")
    result.put("claims_per_s", common.median(claims_per_s), "claims/s")
    result.put("holdout_auc", aucs[world_seed(seed, 0)], "AUC")
    result.put("ok_frac", 1.0 - result.failed / result.attempted, "fraction")
    result.put("peak_rss_mb", common.self_peak_rss_mb(), "MB")
    result.note("pipeline_s", pipeline_s, "s")
    result.note("pipeline_s.samples", len(op_s), "count")
    result.note("worlds", len(aucs), "count")
    for name, n in sizes.items():
        result.note(f"input.{name}", n, "count")
    if trace:
        layers.finish_offline_trace(
            result, recorder, overhead, "pipeline", seed
        )
    return result
