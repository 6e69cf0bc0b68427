"""Geometry benchmark: batched vs. scalar MLab localization.

Builds the ``tiny`` simulated world once and localizes its MLab tests
two ways: ``localize_mlab_tests`` (one batched attribution pass) and a
per-test scalar reference — ``cells_within_radius`` intersected with
each attributed provider's claimed footprint, the path the batched pass
replaced.  Every run asserts that both produce the same set of
(test, provider, cell) hits and the same drop counts before it reports
``batched_vs_scalar`` (scalar seconds / batched seconds).  The ratio is
hardware-independent, so it is committed to ``BENCH_perf.json`` and
replayed by ``check_perf_regression.py``.

Run standalone::

    python benchmarks/bench_perf_geo.py           # every 8th test, then all
    python benchmarks/bench_perf_geo.py --quick   # every 8th test only
"""

from __future__ import annotations

import argparse

import _perfutil

_perfutil.ensure_src_on_path()

from repro.core import build_world, tiny  # noqa: E402
from repro.dataset.likely_served import (  # noqa: E402
    MAX_GEOLOCATION_RADIUS_M,
    localize_mlab_tests,
)
from repro.geo import cells_within_radius  # noqa: E402

#: (size name, stride over the world's MLab tests).
SIZES = [("x1/8", 8), ("x1", 1)]


def scalar_localization(tests, crosswalk, claimed, res):
    """The per-test scalar reference: (hit set, dropped radius, dropped
    unattributed)."""
    providers_of: dict[int, set[int]] = {}
    for pid, asns in crosswalk.union.items():
        for asn in asns:
            providers_of.setdefault(asn, set()).add(pid)
    hits, dropped_radius, dropped_unattributed = set(), 0, 0
    for i, t in enumerate(tests):
        if t.accuracy_radius_m > MAX_GEOLOCATION_RADIUS_M:
            dropped_radius += 1
        elif not providers_of.get(t.asn):
            dropped_unattributed += 1
        else:
            disk = set(cells_within_radius(t.lat, t.lng, t.accuracy_radius_m, res))
            for pid in providers_of[t.asn]:
                hits.update((i, pid, c) for c in disk & claimed.get(pid, set()))
    return hits, dropped_radius, dropped_unattributed


def run(quick: bool = False) -> list[dict]:
    world = build_world(tiny(seed=7))
    res = world.fabric.config.hex_resolution
    claimed = {
        p.provider_id: world.universe.claimed_cells(p.provider_id)
        for p in world.universe.providers
    }
    results = []
    for name, stride in SIZES[:1] if quick else SIZES:
        tests = world.mlab_tests[::stride]
        scalar_s, expected = _perfutil.timed(
            lambda: scalar_localization(tests, world.crosswalk, claimed, res)
        )
        batched_s, loc = _perfutil.timed(
            lambda: localize_mlab_tests(tests, world.crosswalk, claimed, res=res),
            repeats=3,
        )
        got = set(
            zip(
                loc.hits.test_index.tolist(),
                loc.hits.provider_id.tolist(),
                loc.hits.cell.tolist(),
            )
        )
        if (got, loc.n_dropped_radius, loc.n_dropped_unattributed) != expected:
            raise AssertionError(f"{name}: batched localization != scalar reference")
        row = {
            "size": name,
            "n_tests": len(tests),
            "n_hits": len(got),
            "scalar_seconds": scalar_s,
            "batched_seconds": batched_s,
            "batched_vs_scalar": scalar_s / batched_s,
        }
        results.append(row)
        print(
            f"{name:5s} tests={len(tests):6d} hits={len(got):7d}  "
            f"scalar {scalar_s:7.3f}s, batched {batched_s:6.3f}s "
            f"({row['batched_vs_scalar']:.1f}x)"
        )
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="run only the smallest size"
    )
    parser.add_argument(
        "--no-write", action="store_true", help="skip updating BENCH_perf.json"
    )
    args = parser.parse_args()
    results = run(quick=args.quick)
    if not args.no_write:
        _perfutil.merge_section("geo", _perfutil.round_floats({"results": results}))
        print(f"wrote geo section to {_perfutil.BENCH_JSON}")


if __name__ == "__main__":
    main()
