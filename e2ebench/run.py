"""Run one workload of the end-to-end benchmark.

    python3 e2ebench/run.py --workload pipeline --seed 7 --seconds 15 --trace 0

Prints every figure by name with its unit, then, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  A failed correctness check prints ``"correct": false``
and exits 1.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("pipeline", "refresh", "serve")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.require_source_tree()
    common.keep_temp_files_local()
    module = __import__(f"wl_{args.workload}")
    host = common.HostSpeed()
    host.sample()
    correct = True
    try:
        result = module.run(args.seed, args.seconds, bool(args.trace), host)
        host.sample()
        host.scale(result, getattr(module, "HOST_SCALED", common.HOST_SCALED))
    except common.CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        correct = False
        result = common.Result(attempted=1, failed=1)
    except common.InvalidRun as exc:
        print(f"INVALID RUN: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(os.path.join(common.OUT_DIR, "work"), ignore_errors=True)

    wanted = layers.per_layer_units() if args.trace else common.END_TO_END
    if correct:
        missing = sorted(set(wanted) - set(result.metrics))
        if missing:
            raise RuntimeError(f"workload reported no {missing}")
    table = {**result.report, **result.metrics}
    width = max([len(name) for name in table] or [1])
    for name, metric in table.items():
        print(f"{name:<{width}}  {metric.value:.6g} {metric.unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(max(result.attempted, 1)),
                "failed": int(result.failed),
                "metrics": {
                    name: {"value": m.value, "unit": m.unit}
                    for name, m in result.metrics.items()
                    if name in wanted
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
