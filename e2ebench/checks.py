"""Correctness checks that fail a benchmark run.

Each check takes the program's outputs as arguments and raises
:class:`~common.CheckFailed` on the first wrong one, so ``selftest.py``
can hand it a deliberately broken copy and show that it fails.
"""

from __future__ import annotations

import json

import numpy as np

from common import CheckFailed

#: Held-out ROC AUC below these floors fails the run: they catch a
#: broken model, not a small quality shift (``holdout_auc`` tracks
#: that).  On the benchmark world the enriched feature set scored
#: 0.986-1.000 (first worlds of seeds 1-10) and the base set
#: 0.913-0.979 (seeds 1-20).
AUC_FLOOR_ENRICHED = 0.95
AUC_FLOOR_BASE = 0.85


def same_bits(a, b) -> bool:
    """Bitwise array equality (NaN payloads included)."""
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- pipeline ---------------------------------------------------------------


def truthmap_mirrors_localization(truthmap, localization) -> None:
    """Every tile's ``n_tests`` equals the localization's count for its
    (provider, cell) key, and the two cover the same keys."""
    counts = {
        key: n for key, n in localization.test_counts.items() if n > 0
    }
    require(
        len(truthmap) == len(counts),
        f"truth map has {len(truthmap)} tiles, localization has "
        f"{len(counts)} keys",
    )
    for pid, cell, n in zip(
        truthmap.provider_id.tolist(), truthmap.cell.tolist(),
        truthmap.n_tests.tolist(),
    ):
        got = counts.get((pid, cell))
        require(
            got == n,
            f"tile ({pid}, {cell:#x}) has n_tests={n}, localization "
            f"counted {got}",
        )


def auc_above_floor(auc: float, floor: float) -> None:
    require(
        np.isfinite(auc) and auc > floor,
        f"held-out AUC {auc!r} is not above the floor {floor}",
    )


def one_finite_margin_per_claim(store, claims) -> None:
    """The store holds every distinct claim exactly once, each with one
    finite margin."""
    require(
        len(store) == len(claims),
        f"store has {len(store)} rows for {len(claims)} distinct claims",
    )
    require(
        bool(np.isfinite(store.margin).all()),
        f"{int((~np.isfinite(store.margin)).sum())} non-finite margins",
    )
    rows = store.positions(claims.provider_id, claims.cell, claims.technology)
    require(
        same_bits(rows, np.arange(len(claims), dtype=rows.dtype)),
        "claim keys do not map one-to-one onto store rows",
    )


# -- refresh ----------------------------------------------------------------


def columns_equal(got, want, what: str) -> None:
    got_arrays = got.export_arrays()
    want_arrays = want.export_arrays()
    require(
        sorted(got_arrays) == sorted(want_arrays),
        f"{what}: column sets differ",
    )
    for name, arr in want_arrays.items():
        require(
            same_bits(got_arrays[name], arr),
            f"{what}: column {name!r} differs",
        )


def stores_equal(got, want, what: str) -> None:
    """Margins, derived orderings and claim columns all bitwise equal."""
    columns_equal(got.claims, want.claims, what)
    for name in ("margin", "score", "sus_order", "sus_rank", "percentile"):
        require(
            same_bits(getattr(got, name), getattr(want, name)),
            f"{what}: {name} differs",
        )


def truthmaps_equal(got, want, what: str) -> None:
    got_arrays = got.export_arrays()
    for name, arr in want.export_arrays().items():
        require(same_bits(got_arrays[name], arr), f"{what}: {name} differs")


def priority_equal(got, want, what: str) -> None:
    for name in ("state_idx", "provider_id", "n_claims", "priority",
                 "mean_suspicion_percentile", "mean_overstatement_log2",
                 "challenges_filed", "challenges_upheld"):
        require(
            same_bits(getattr(got, name), getattr(want, name)),
            f"{what}: priority column {name} differs",
        )


# -- serve ------------------------------------------------------------------


def point_body(body: bytes, stores: dict, row: int, key) -> None:
    """A ``GET /v2/claims/{pid}/{cell}/{tech}`` body equals, byte for
    byte, the envelope around that version's ``record_json``.

    ``stores`` maps version name -> store; every version holds the
    same claims, so ``row`` is the key's row in each.  The version is
    read from the body and the record bytes must be that version's, so
    a body mixing versions fails.
    """
    try:
        version = json.loads(body)["model_version"]
    except (ValueError, KeyError, TypeError):
        raise CheckFailed(f"point body for {key} is not an envelope") from None
    require(version in stores, f"point body names unknown version {version!r}")
    record = stores[version].record_json(row)
    want = (
        b'{"record": ' + record + b', "model_version": '
        + json.dumps(version).encode() + b"}"
    )
    require(body == want, f"point body for {key} differs from version {version!r}")


def traced_point_body(body: bytes, stores: dict, row: int, key) -> None:
    """A ``?trace=1`` point body: the same record and version as
    :func:`point_body` requires, next to the span tree."""
    try:
        doc = json.loads(body)
        version = doc["model_version"]
        record = doc["record"]
    except (ValueError, KeyError, TypeError):
        raise CheckFailed(f"traced point body for {key} is not an envelope") from None
    require(version in stores, f"point body names unknown version {version!r}")
    require(
        record == json.loads(stores[version].record_json(row)),
        f"traced point body for {key} differs from version {version!r}",
    )


def batch_body(body: bytes, stores: dict, rows) -> None:
    """A ``batchScore`` body equals the envelope around that version's
    records for the requested rows, byte for byte."""
    try:
        version = json.loads(body)["model_version"]
    except (ValueError, KeyError, TypeError):
        raise CheckFailed("batchScore body is not an envelope") from None
    require(version in stores, f"batchScore body names unknown version {version!r}")
    store = stores[version]
    want = json.dumps(
        {
            "results": store.records(rows),
            "model_version": version,
            "degraded": False,
        }
    ).encode()
    require(body == want, f"batchScore body differs from version {version!r}")
