"""CI perf smoke: fail if the hot paths regress >2x vs. the baseline.

Replays the quick variants of ``bench_perf_gbdt.py``,
``bench_perf_vectorize.py``, ``bench_perf_bayesopt.py``,
``bench_perf_serve.py``, ``bench_perf_latency.py``,
``bench_perf_shard.py``, ``bench_perf_obs.py``,
``bench_perf_enrich.py``, and ``bench_perf_geo.py`` on the current
machine and compares the
*speedup ratios* (vectorized kernel vs. seed reference, shared-binning
tuning vs. per-trial binning, micro-batched vs. single-claim serving
lookups, the v2 batch endpoint vs. the v1 bulk path over HTTP, shed
vs. unbounded p99 under 2x overload, the shard-parallel build vs.
one worker, bare vs. instrumented batch scoring, and batched vs.
scalar MLab localization, both sides measured fresh) against the committed
``BENCH_perf.json``.  Comparing
ratios instead of wall times keeps the check meaningful across
heterogeneous CI hardware: a genuine hot-path regression halves the
measured speedup no matter how fast the runner is.  The quick GBDT
replay also re-asserts the bitwise contracts (vectorized vs. seed
margins, binned vs. float margins) on every run.

Exit status is non-zero when any fresh speedup falls below half its
committed baseline.

Run::

    python benchmarks/check_perf_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys

import _perfutil
import bench_perf_bayesopt
import bench_perf_enrich
import bench_perf_gbdt
import bench_perf_geo
import bench_perf_latency
import bench_perf_obs
import bench_perf_serve
import bench_perf_shard
import bench_perf_vectorize

#: Fresh speedup must stay above baseline / REGRESSION_FACTOR.
REGRESSION_FACTOR = 2.0

#: Every section this check replays, with its speedup key and the
#: command that regenerates it.  A baseline missing one of these fails
#: with a clear message instead of silently skipping the section.
REQUIRED_SECTIONS = {
    "gbdt": ("fit_predict_speedup", "python benchmarks/bench_perf_gbdt.py"),
    "vectorize": ("vectorize_speedup", "python benchmarks/bench_perf_vectorize.py"),
    "bayesopt": ("tuning_speedup", "python benchmarks/bench_perf_bayesopt.py"),
    "serve": ("lookup_speedup", "python benchmarks/bench_perf_serve.py"),
    "serve_http": ("batch_v2_vs_v1", "python benchmarks/bench_perf_serve.py"),
    "serve_latency": ("shed_containment", "python benchmarks/bench_perf_latency.py"),
    "shard": ("parallel_build_speedup", "python benchmarks/bench_perf_shard.py"),
    "obs": ("bare_vs_instrumented", "python benchmarks/bench_perf_obs.py"),
    "enrich": ("base_vs_enriched", "python benchmarks/bench_perf_enrich.py"),
    "geo": ("batched_vs_scalar", "python benchmarks/bench_perf_geo.py"),
}


def _baseline_speedups(doc: dict, section: str, key: str) -> dict[str, float]:
    rows = doc[section].get("results", [])
    out: dict[str, float] = {}
    for row in rows:
        if "size" not in row or key not in row:
            raise SystemExit(
                f"error: malformed row in baseline section {section!r}: "
                f"expected 'size' and {key!r} fields, got {sorted(row)}"
            )
        out[row["size"]] = float(row[key])
    return out


def _validate_baseline(baseline: dict, path: str) -> None:
    """Fail loudly (not via KeyError or silent skip) on missing sections."""
    missing = [s for s in REQUIRED_SECTIONS if s not in baseline]
    if not missing:
        return
    lines = [
        f"error: baseline {path} is missing required bench section(s): "
        + ", ".join(missing),
        "regenerate the missing section(s) with:",
    ]
    lines.extend(f"    {REQUIRED_SECTIONS[s][1]}" for s in missing)
    raise SystemExit("\n".join(lines))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--baseline",
        default=_perfutil.BENCH_JSON,
        help="path to the committed BENCH_perf.json",
    )
    args = parser.parse_args()
    try:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no committed baseline at {args.baseline}; run the "
            "bench_perf_*.py benchmarks to create it"
        ) from None
    _validate_baseline(baseline, args.baseline)

    checks: list[tuple[str, str, float, float]] = []
    gbdt_base = _baseline_speedups(baseline, "gbdt", "fit_predict_speedup")
    for row in bench_perf_gbdt.run(quick=True):
        expected = gbdt_base.get(row["size"])
        if expected is not None:
            checks.append(
                ("gbdt", row["size"], expected, row["fit_predict_speedup"])
            )
    vec_base = _baseline_speedups(baseline, "vectorize", "vectorize_speedup")
    for row in bench_perf_vectorize.run(quick=True):
        expected = vec_base.get(row["size"])
        if expected is not None:
            checks.append(
                ("vectorize", row["size"], expected, row["vectorize_speedup"])
            )
    bo_base = _baseline_speedups(baseline, "bayesopt", "tuning_speedup")
    for row in bench_perf_bayesopt.run(quick=True):
        expected = bo_base.get(row["size"])
        if expected is not None:
            checks.append(
                ("bayesopt", row["size"], expected, row["tuning_speedup"])
            )
    enrich_base = _baseline_speedups(baseline, "enrich", "base_vs_enriched")
    # The enrich replay also re-asserts the absolute acceptance bar
    # (enriched vectorize overhead <= 15% vs. the base builder) inside
    # bench_perf_enrich.run() itself.
    for row in bench_perf_enrich.run(quick=True):
        expected = enrich_base.get(row["size"])
        if expected is not None:
            checks.append(
                ("enrich", row["size"], expected, row["base_vs_enriched"])
            )
    geo_base = _baseline_speedups(baseline, "geo", "batched_vs_scalar")
    # The geo replay also re-asserts batched == scalar localization (hit
    # sets and drop counts) inside bench_perf_geo.run() itself.
    for row in bench_perf_geo.run(quick=True):
        expected = geo_base.get(row["size"])
        if expected is not None:
            checks.append(
                ("geo", row["size"], expected, row["batched_vs_scalar"])
            )
    serve_base = _baseline_speedups(baseline, "serve", "lookup_speedup")
    http_base = _baseline_speedups(baseline, "serve_http", "batch_v2_vs_v1")
    latency_base = _baseline_speedups(
        baseline, "serve_latency", "shed_containment"
    )
    shard_base = _baseline_speedups(baseline, "shard", "parallel_build_speedup")
    obs_base = _baseline_speedups(baseline, "obs", "bare_vs_instrumented")
    serve_service, serve_build_s = bench_perf_serve._build_service()
    try:
        for row in bench_perf_serve.run(
            quick=True, service=serve_service, build_s=serve_build_s
        ):
            expected = serve_base.get(row["size"])
            if expected is not None:
                checks.append(
                    ("serve", row["size"], expected, row["lookup_speedup"])
                )
        for row in bench_perf_serve.run_http(quick=True, service=serve_service):
            expected = http_base.get(row["size"])
            if expected is not None:
                checks.append(
                    ("serve_http", row["size"], expected, row["batch_v2_vs_v1"])
                )
        # The latency replay also re-asserts the absolute acceptance bar
        # (admitted p99 under 2x overload <= 5x unloaded p99) inside
        # bench_perf_latency.run() itself.
        for row in bench_perf_latency.run(quick=True, service=serve_service):
            expected = latency_base.get(row["size"])
            if expected is not None:
                checks.append(
                    (
                        "serve_latency",
                        row["size"],
                        expected,
                        row["shed_containment"],
                    )
                )
        # The shard replay also re-proves the sharded == monolithic
        # margin equivalence bitwise inside bench_perf_shard.run().
        for row in bench_perf_shard.run(quick=True, service=serve_service):
            expected = shard_base.get(row["size"])
            if expected is not None:
                checks.append(
                    ("shard", row["size"], expected, row["parallel_build_speedup"])
                )
        # The obs replay also re-asserts the absolute acceptance bar
        # (instrumentation overhead <= 10% on the quick batch) inside
        # bench_perf_obs.run() itself.
        for row in bench_perf_obs.run(quick=True, service=serve_service):
            expected = obs_base.get(row["size"])
            if expected is not None:
                checks.append(
                    ("obs", row["size"], expected, row["bare_vs_instrumented"])
                )
    finally:
        serve_service.close()

    if not checks:
        print("no comparable baseline entries found in", args.baseline)
        return 1
    failed = False
    for section, size, expected, fresh in checks:
        floor = expected / REGRESSION_FACTOR
        status = "ok" if fresh >= floor else "REGRESSED"
        failed |= fresh < floor
        print(
            f"{section}/{size}: baseline {expected:.1f}x, fresh {fresh:.1f}x "
            f"(floor {floor:.1f}x) -> {status}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
