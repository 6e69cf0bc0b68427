"""Build the ``serve`` workload's two store versions in a fresh process.

    python3 e2ebench/serve_bundles.py --seed 7 --out DIR

Writes single-shard bundles ``DIR/a`` (model fitted on the random
split's training part) and ``DIR/b`` (the same model family refitted on
every observation, the next release), plus ``DIR/build.json`` with
version ``a``'s held-out AUC.  Running it in its own process keeps the
world out of the process that forks the worker pool, so a worker's
peak RSS is the serving footprint, not the build's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    common.require_source_tree()
    common.keep_temp_files_local()

    from repro.core.model import NBMIntegrityModel
    from repro.core.pipeline import build_dataset, build_world, make_feature_builder
    from repro.dataset.splits import random_observation_split
    from repro.serve.store import ClaimScoreStore

    world = build_world(common.bench_config(args.seed))
    dataset = build_dataset(world)
    builder = make_feature_builder(world)
    split = random_observation_split(dataset, seed=args.seed)
    params = world.config.model
    model_a = NBMIntegrityModel(builder, params=params)
    model_a.fit(dataset, train_idx=split.train_idx)
    auc = model_a.evaluate(dataset, split).auc
    model_b = NBMIntegrityModel(builder, params=params)
    model_b.fit(dataset)
    for name, model in (("a", model_a), ("b", model_b)):
        store = ClaimScoreStore.build(model.classifier, builder)
        store.save_sharded(os.path.join(args.out, name), shards=1)
    with open(os.path.join(args.out, "build.json"), "w", encoding="utf-8") as fh:
        json.dump({"auc": auc}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
