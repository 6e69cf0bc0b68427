"""Self-test of the benchmark's correctness checks.

    python3 e2ebench/selftest.py [--seed 7]

Builds one benchmark world, runs every check on the program's real
outputs (each must pass), then hands each check a copy with exactly
one output broken — one margin, one truth-map tile, one claim column
entry, one priority value, one response byte, one version label — and
requires the check to fail.  A check that cannot fail does not ship.
Exits 0 when every check passes on the real outputs and fails on the
broken ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import threading

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402


def _one_ulp(arr, i: int = 0):
    """A copy of a float array with element ``i`` moved by one ulp."""
    import numpy as np

    out = np.array(arr, copy=True)
    out[i] = np.nextafter(out[i], np.inf)
    return out


def _flip_byte(body: bytes, i: int) -> bytes:
    """``body`` with one digit or letter at or after ``i`` changed."""
    while not chr(body[i]).isalnum():
        i += 1
    swapped = b"1" if body[i:i + 1] != b"1" else b"2"
    return body[:i] + swapped + body[i + 1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    common.require_source_tree()
    common.keep_temp_files_local()

    import numpy as np

    import checks
    import wl_pipeline
    from repro.enrich import TruthMap, build_priority
    from repro.fcc.bdc import ClaimColumns
    from repro.serve import AuditService, make_server
    from repro.serve.store import ClaimScoreStore

    out = wl_pipeline.cold_build(args.seed)
    world, store = out["world"], out["store"]
    truthmap = out["enrichment"].truthmap
    claims = world.table.columnar()
    auc = out["model"].evaluate(out["dataset"], out["split"]).auc
    priority = build_priority(store, enrichment=out["enrichment"])

    # Real response bodies from the program's own HTTP server, one
    # service per version: ``b`` is ``a`` with every margin moved by
    # one ulp, the smallest change a version swap can make.
    store_b = ClaimScoreStore(store.claims, _one_ulp(store.margin, slice(None)))
    stores = {"a": store, "b": store_b}
    rows = np.arange(0, len(store), max(1, len(store) // 50))
    batch = json.dumps({"claims": [
        {"provider_id": int(store.claims.provider_id[r]), "cell": int(store.claims.cell[r]),
         "technology": int(store.claims.technology[r])} for r in rows
    ]}).encode()
    row = int(rows[1])
    point_path = (
        f"/v2/claims/{int(store.claims.provider_id[row])}/"
        f"{int(store.claims.cell[row])}/{int(store.claims.technology[row])}"
    )
    bodies = {}
    import httpload

    for name, version_store in stores.items():
        service = AuditService(version_store, version_name=name)
        server = make_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = httpload.connection(server.server_address[1])
            bodies[name, "point"] = httpload.request(conn, "GET", point_path)[1]
            bodies[name, "traced"] = httpload.request(conn, "GET", point_path + "?trace=1")[1]
            bodies[name, "batch"] = httpload.request(
                conn, "POST", "/v2/claims:batchScore", batch
            )[1]
            conn.close()
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join()

    def broken_truthmap(column: str, bump):
        arrays = {k: np.array(v, copy=True) for k, v in truthmap.export_arrays().items()}
        arrays[column] = bump(arrays[column])
        return TruthMap.from_arrays(arrays)

    def bump_first(arr):
        arr[0] += 1
        return arr

    broken_claims_arrays = {k: np.array(v, copy=True) for k, v in claims.export_arrays().items()}
    broken_claims_arrays["claimed_count"][len(claims) // 2] += 1
    nan_margin = np.array(store.margin, copy=True)
    nan_margin[len(store) // 3] = np.nan
    swapped_label = bodies["b", "point"].replace(b'"model_version": "b"', b'"model_version": "a"')
    traced_doc = json.loads(bodies["a", "traced"])
    traced_doc["record"]["margin"] = float(np.nextafter(traced_doc["record"]["margin"], np.inf))

    cases = [
        ("truth map mirrors localization",
         lambda tm: checks.truthmap_mirrors_localization(tm, world.localization),
         truthmap, broken_truthmap("n_tests", bump_first), "one tile's n_tests"),
        ("one finite margin per claim",
         lambda s: checks.one_finite_margin_per_claim(s, claims),
         store, ClaimScoreStore(store.claims, nan_margin), "one margin set to NaN"),
        ("held-out AUC above floor",
         lambda a: checks.auc_above_floor(a, checks.AUC_FLOOR_ENRICHED),
         auc, checks.AUC_FLOOR_ENRICHED, "AUC exactly at the floor"),
        ("ingested claims equal the world's",
         lambda c: checks.columns_equal(c, claims, "ingested claims"),
         claims, ClaimColumns.from_arrays(broken_claims_arrays), "one claimed_count"),
        ("sharded margins equal monolithic",
         lambda m: checks.require(checks.same_bits(m, store.margin), "margins differ"),
         store.margin, _one_ulp(store.margin, len(store) // 2), "one margin by one ulp"),
        ("mmap-loaded store equals the built one",
         lambda s: checks.stores_equal(s, store, "loaded store"),
         store, ClaimScoreStore(store.claims, _one_ulp(store.margin, 1)), "one margin by one ulp"),
        ("loaded truth map equals the built one",
         lambda tm: checks.truthmaps_equal(tm, truthmap, "loaded truth map"),
         truthmap, broken_truthmap("median_down", lambda a: _one_ulp(a, int(np.flatnonzero(np.isfinite(a))[0]))),
         "one tile's median_down by one ulp"),
        ("priority repeats across operations",
         lambda p: checks.priority_equal(p, priority, "repeat"),
         priority, dataclasses.replace(priority, priority=_one_ulp(priority.priority)),
         "one priority by one ulp"),
        ("point body equals record_json",
         lambda b: checks.point_body(b, stores, row, point_path),
         bodies["a", "point"], _flip_byte(bodies["a", "point"], 40), "one response byte"),
        ("point body does not mix versions",
         lambda b: checks.point_body(b, stores, row, point_path),
         bodies["b", "point"], swapped_label, "version b's record labelled a"),
        ("traced point body equals the record",
         lambda b: checks.traced_point_body(b, stores, row, point_path),
         bodies["a", "traced"], json.dumps(traced_doc).encode(), "one margin by one ulp"),
        ("batchScore items equal the store's records",
         lambda b: checks.batch_body(b, stores, rows),
         bodies["a", "batch"], _flip_byte(bodies["a", "batch"], len(bodies["a", "batch"]) // 2),
         "one response byte"),
    ]
    ok = True
    for name, check, good, broken, what in cases:
        try:
            check(good)
        except common.CheckFailed as exc:
            print(f"FAIL  {name}: rejects the real output ({exc})")
            ok = False
            continue
        try:
            check(broken)
        except common.CheckFailed as exc:
            print(f"ok    {name}: fails on {what} ({exc})")
        else:
            print(f"FAIL  {name}: passes with {what}")
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
