"""repro.enrich: truth map, overstatement semantics, priority surface.

Three layers under one roof, mirroring the subsystem's data path:

* **Semantics** — Hypothesis properties over ``overstatement_ratios``
  (NaN = no evidence, 0.0 = genuine understatement, never a silent
  sentinel) and finiteness of the feature block they feed.
* **Truth map** — aggregation agrees with the MLab localization whose
  attribution pass it reads, and the persisted bundle round-trips
  bitwise (NaN included) through the mmap load path.
* **Enriched vectorize / priority** — the enriched builder appends the
  block behind a feature-set version bump without perturbing a single
  base byte, and the audit-priority table pages every rank exactly once
  through ``GET /v2/analytics/priority``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mmap_backed
from repro.core import enrichment_from_world, make_feature_builder
from repro.enrich import (
    ENRICHED_FEATURE_SET_VERSION,
    ChallengeJoin,
    Enrichment,
    TruthMap,
    build_priority,
    overstatement_ratios,
)
from repro.enrich.overstatement import BASE_FEATURE_SET_VERSION, ENRICH_FEATURES
from repro.fcc.states import STATES


@pytest.fixture(scope="module")
def enrichment(tiny_world):
    return enrichment_from_world(tiny_world)


@pytest.fixture(scope="module")
def enriched_builder(tiny_world, enrichment):
    return make_feature_builder(tiny_world, enrichment=enrichment)


# -- overstatement semantics (property-based) ---------------------------------


@given(
    claimed=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    measured=st.floats(allow_nan=True, allow_infinity=True, width=64),
)
@settings(max_examples=200, deadline=None)
def test_overstatement_scalar_semantics(claimed, measured):
    ratio = overstatement_ratios([claimed], [measured])[0]
    if not np.isfinite(measured) or measured <= 0.0:
        # No evidence (or undefined ratio): NaN, never inf, never 0.0.
        assert np.isnan(ratio)
    else:
        assert ratio == claimed / measured


@given(
    pairs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            st.floats(allow_nan=True, allow_infinity=True, width=64),
        ),
        max_size=40,
    )
)
@settings(max_examples=100, deadline=None)
def test_overstatement_vector_matches_scalar(pairs):
    claimed = np.array([p[0] for p in pairs])
    measured = np.array([p[1] for p in pairs])
    out = overstatement_ratios(claimed, measured)
    assert out.shape == claimed.shape and out.dtype == np.float64
    expected = np.array(
        [overstatement_ratios([c], [m])[0] for c, m in pairs]
    ).reshape(out.shape)
    np.testing.assert_array_equal(out, expected)
    # NaN exactly where the measurement carries no evidence.
    no_evidence = ~(np.isfinite(measured) & (measured > 0.0))
    np.testing.assert_array_equal(np.isnan(out), no_evidence)


def test_overstatement_zero_claim_is_zero_not_missing():
    out = overstatement_ratios([0.0, 0.0], [25.0, np.nan])
    assert out[0] == 0.0
    assert np.isnan(out[1])


# -- truth map ----------------------------------------------------------------


def test_truthmap_matches_localization_counts(enrichment, tiny_world):
    """Tile test counts equal the attribution pipeline's, key for key."""
    tm = enrichment.truthmap
    counts = tiny_world.localization.test_counts
    assert len(tm) == len(counts) > 0
    for row in range(len(tm)):
        key = (int(tm.provider_id[row]), int(tm.cell[row]))
        assert tm.n_tests[row] == counts[key]


def test_truthmap_sorted_unique_and_directionally_coded(enrichment):
    tm = enrichment.truthmap
    keys = np.stack([tm.provider_id, tm.cell.astype(np.int64)], axis=1)
    assert np.all(
        (keys[1:, 0] > keys[:-1, 0])
        | ((keys[1:, 0] == keys[:-1, 0]) & (keys[1:, 1] > keys[:-1, 1]))
    )
    assert np.all(tm.n_tests >= 1)
    # Speed columns are NaN (unmeasured) or strictly positive — a 0.0
    # would be a fabricated measurement.
    for column in (tm.median_down, tm.p90_down, tm.median_up, tm.p90_up):
        assert np.all(np.isnan(column) | (column > 0.0))


def test_truthmap_positions_hit_and_miss(enrichment):
    tm = enrichment.truthmap
    rows = np.arange(0, len(tm), max(1, len(tm) // 50))
    pos = tm.positions(tm.provider_id[rows], tm.cell[rows])
    np.testing.assert_array_equal(pos, rows)
    miss = tm.positions(np.array([-7]), np.array([3], dtype=np.uint64))
    assert miss[0] == -1


def test_truthmap_save_load_roundtrip(enrichment, tmp_path):
    """The persisted bundle reloads bitwise (NaN included) and mmap-backed."""
    tm = enrichment.truthmap
    root = str(tmp_path / "truthmap")
    tm.save(root)
    loaded = TruthMap.load(root)
    assert len(loaded) == len(tm)
    for name in tm.export_arrays():
        fresh = getattr(loaded, name)
        np.testing.assert_array_equal(fresh, getattr(tm, name))
        assert mmap_backed(fresh)
    rows = np.arange(len(tm))
    np.testing.assert_array_equal(
        loaded.positions(tm.provider_id, tm.cell), rows
    )


def test_truthmap_load_rejects_foreign_and_missing(enrichment, tmp_path):
    with pytest.raises(FileNotFoundError):
        TruthMap.load(str(tmp_path / "nowhere"))
    root = str(tmp_path / "bundle")
    enrichment.truthmap.save(root)
    manifest_path = f"{root}/manifest.json"
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    manifest["kind"] = "claim-shards"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="not a truth map"):
        TruthMap.load(root)


def test_truthmap_from_arrays_validates_shape(enrichment):
    arrays = dict(enrichment.truthmap.export_arrays())
    arrays["n_tests"] = arrays["n_tests"][:-1]
    with pytest.raises(ValueError, match="n_tests"):
        TruthMap.from_arrays(arrays)


# -- challenge join -----------------------------------------------------------


def test_challenge_join_counts_match_records(enrichment, tiny_world):
    join = enrichment.challenges
    assert join is not None and len(join) > 0
    filed: dict[tuple[int, int], int] = {}
    upheld: dict[tuple[int, int], int] = {}
    for record in tiny_world.challenges:
        key = (record.provider_id, record.cell)
        filed[key] = filed.get(key, 0) + 1
        if record.succeeded:
            upheld[key] = upheld.get(key, 0) + 1
    assert len(join) == len(filed)
    got_filed, got_upheld = join.counts(join.provider_id, join.cell)
    for i in range(len(join)):
        key = (int(join.provider_id[i]), int(join.cell[i]))
        assert got_filed[i] == filed[key]
        assert got_upheld[i] == upheld.get(key, 0)
    assert np.all(got_upheld <= got_filed)


def test_challenge_join_zero_on_miss(enrichment):
    join = enrichment.challenges
    filed, upheld = join.counts(
        np.array([-3, int(join.provider_id[0])]),
        np.array([9, int(join.cell[0])], dtype=np.uint64),
    )
    assert filed[0] == 0 and upheld[0] == 0
    assert filed[1] == join.filed[0]


def test_challenge_join_empty_records():
    join = ChallengeJoin.from_records([])
    assert len(join) == 0
    filed, upheld = join.counts(np.array([1]), np.array([2], dtype=np.uint64))
    assert filed[0] == 0 and upheld[0] == 0


# -- enrichment feature block -------------------------------------------------


def test_feature_columns_always_finite(enrichment):
    """Missing tiles and NaN directions never leak into the block."""
    tm = enrichment.truthmap
    n = min(200, len(tm))
    provider_id = np.r_[tm.provider_id[:n], [-5, -6]]
    cell = np.r_[tm.cell[:n], np.array([1, 2], dtype=np.uint64)]
    claimed = np.full(provider_id.size, 500.0)
    X = enrichment.feature_columns(provider_id, cell, claimed, claimed / 10)
    assert X.shape == (provider_id.size, len(ENRICH_FEATURES))
    assert np.all(np.isfinite(X))
    # The two probe pairs have no tile: indicator 0, everything else 0.
    np.testing.assert_array_equal(X[n:], 0.0)
    np.testing.assert_array_equal(X[:n, 4], 1.0)


def test_feature_columns_log_ratio_matches_tile(enrichment):
    tm = enrichment.truthmap
    measured = np.flatnonzero(np.isfinite(tm.median_down))[:50]
    claimed = np.full(measured.size, 300.0)
    X = enrichment.feature_columns(
        tm.provider_id[measured], tm.cell[measured], claimed, claimed
    )
    expected = np.log2((claimed + 1.0) / (tm.median_down[measured] + 1.0))
    np.testing.assert_array_equal(X[:, 0], expected)
    np.testing.assert_array_equal(X[:, 2], tm.median_down[measured])
    np.testing.assert_array_equal(X[:, 3], tm.n_tests[measured])


def test_feature_columns_without_challenges(enrichment):
    bare = Enrichment(enrichment.truthmap, challenges=None)
    tm = enrichment.truthmap
    X = bare.feature_columns(
        tm.provider_id[:20], tm.cell[:20], np.full(20, 100.0), np.full(20, 10.0)
    )
    np.testing.assert_array_equal(X[:, 5:], 0.0)


# -- enriched FeatureBuilder --------------------------------------------------


def test_enriched_builder_names_version_and_base_prefix(
    tiny_builder, enriched_builder, tiny_dataset
):
    base_dim = tiny_builder.n_features
    assert enriched_builder.n_features == base_dim + len(ENRICH_FEATURES)
    assert enriched_builder.feature_names[base_dim:] == list(ENRICH_FEATURES)
    assert tiny_builder.feature_set_version == BASE_FEATURE_SET_VERSION
    assert enriched_builder.feature_set_version == ENRICHED_FEATURE_SET_VERSION
    obs = list(tiny_dataset)[:200]
    enriched = enriched_builder.vectorize(obs)
    # The enrichment block appends; base columns stay bitwise untouched.
    np.testing.assert_array_equal(
        enriched[:, :base_dim], tiny_builder.vectorize(obs)
    )
    assert np.all(np.isfinite(enriched))


def test_enriched_vectorize_batched_equals_row_by_row(
    tiny_dataset, enriched_builder
):
    """Columnar enriched vectorize() == stacked vectorize_one(), bitwise."""
    obs = list(tiny_dataset)[:150]
    batched = enriched_builder.vectorize(obs)
    rows = np.vstack([enriched_builder.vectorize_one(o) for o in obs])
    np.testing.assert_array_equal(batched, rows)


def test_encoder_state_refuses_feature_set_mismatch(
    tiny_builder, enriched_builder
):
    """A base-trained artifact must not restore into an enriched builder."""
    manifest, arrays = tiny_builder.export_encoder_state()
    assert manifest["feature_set_version"] == BASE_FEATURE_SET_VERSION
    with pytest.raises(ValueError, match="feature-set version"):
        enriched_builder.restore_encoder_state(manifest, arrays)
    manifest2, arrays2 = enriched_builder.export_encoder_state()
    with pytest.raises(ValueError, match="feature-set version"):
        tiny_builder.restore_encoder_state(manifest2, arrays2)
    # Pre-enrichment manifests carry no stamp and are implicitly base.
    legacy = dict(manifest)
    legacy.pop("feature_set_version")
    tiny_builder.restore_encoder_state(legacy, arrays)


# -- audit priority -----------------------------------------------------------


def test_priority_table_structure(tiny_score_store, enrichment):
    table = build_priority(tiny_score_store, enrichment=enrichment)
    assert table.components == ("suspicion", "overstatement", "challenges")
    assert len(table) > 1
    assert np.all(np.diff(table.priority) <= 0.0)
    assert np.all((table.priority >= 0.0) & (table.priority <= 100.0))
    assert int(table.n_claims.sum()) == len(tiny_score_store)
    assert np.all(table.challenges_upheld <= table.challenges_filed)
    record = table.record(0)
    assert record["rank"] == 1
    assert record["state"] in {s.abbr for s in STATES}


def test_priority_without_enrichment_degrades_to_suspicion(tiny_score_store):
    table = build_priority(tiny_score_store)
    assert table.components == ("suspicion",)
    np.testing.assert_array_equal(table.mean_overstatement_log2, 0.0)
    np.testing.assert_array_equal(table.challenges_filed, 0)
    # Weights renormalize: suspicion alone still spans the percentile scale.
    assert table.priority[0] == pytest.approx(100.0)


def test_priority_page_walk_covers_every_rank_once(tiny_score_store, enrichment):
    table = build_priority(tiny_score_store, enrichment=enrichment)
    seen = []
    after = 0
    while True:
        records, next_rank, total = table.page(after_rank=after, limit=3)
        assert total == len(table)
        seen.extend(r["rank"] for r in records)
        if next_rank is None:
            break
        after = next_rank
    assert seen == list(range(1, len(table) + 1))


def test_priority_page_state_filter(tiny_score_store, enrichment):
    table = build_priority(tiny_score_store, enrichment=enrichment)
    idx = int(table.state_idx[0])
    records, _next, total = table.page(limit=10_000, state_idx=idx)
    expected = [
        table.record(r)
        for r in np.flatnonzero(table.state_idx == np.int16(idx))
    ]
    assert records == expected and total == len(expected)
    # Ranks are unfiltered positions, so they stay sparse under a filter.
    assert [r["rank"] for r in records] == sorted(r["rank"] for r in records)


# -- GET /v2/analytics/priority ----------------------------------------------


@pytest.fixture(scope="module")
def priority_served(tiny_model, tiny_score_store, enrichment, ephemeral_server):
    from repro.serve import AuditService

    model, _split = tiny_model
    service = AuditService.from_model(
        model, store=tiny_score_store, enrichment=enrichment
    )
    with ephemeral_server(service) as server:
        yield server, service
    service.close()


def _json(server, path):
    import http.client

    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def test_v2_priority_walk_matches_table(priority_served, tiny_score_store):
    server, service = priority_served
    table = service.priority_table()
    items = []
    path = "/v2/analytics/priority?limit=3"
    while True:
        status, doc = _json(server, path)
        assert status == 200
        assert doc["model_version"] == "default"
        assert doc["total"] == len(table)
        items.extend(doc["items"])
        if doc["next_cursor"] is None:
            break
        path = f"/v2/analytics/priority?limit=3&cursor={doc['next_cursor']}"
    assert items == [table.record(r) for r in range(len(table))]


def test_v2_priority_state_filter(priority_served):
    server, service = priority_served
    table = service.priority_table()
    state = STATES[int(table.state_idx[0])].abbr
    status, doc = _json(server, f"/v2/analytics/priority?state={state}&limit=500")
    assert status == 200
    assert doc["items"] and all(r["state"] == state for r in doc["items"])
    assert doc["total"] == sum(
        1 for r in range(len(table)) if table.record(r)["state"] == state
    )


def test_v2_priority_rejects_foreign_cursor_and_bad_limit(priority_served):
    server, _service = priority_served
    # A claims-walk cursor carries a different filter fingerprint.
    status, doc = _json(server, "/v2/claims?limit=2")
    assert status == 200
    claims_cursor = doc["next_cursor"]
    status, doc = _json(
        server, f"/v2/analytics/priority?cursor={claims_cursor}"
    )
    assert status == 400 and "does not match the request filters" in doc["error"]
    status, doc = _json(server, "/v2/analytics/priority?limit=0")
    assert status == 400 and "limit" in doc["error"]
    status, doc = _json(server, "/v2/analytics/priority?state=NOWHERE")
    assert status == 400 and "unknown state" in doc["error"]
