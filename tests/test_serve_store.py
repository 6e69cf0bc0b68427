"""ClaimScoreStore invariants: scores, percentiles, top-k, persistence."""

import numpy as np
import pytest

from repro.dataset.labeling import _claim_states
from repro.dataset.observations import Observation, LabelSource
from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.serve.store import ClaimScoreStore


def test_claim_columns_state_matches_labeling(tiny_world):
    claims = tiny_world.table.columnar()
    states = _claim_states(tiny_world.table)
    for row in range(0, len(claims), max(1, len(claims) // 500)):
        key = claims.key_at(row)
        assert STATES[int(claims.state_idx[row])].abbr == states[key]


def test_claim_columns_export_roundtrip(tiny_world):
    claims = tiny_world.table.columnar()
    clone = ClaimColumns.from_arrays(claims.export_arrays())
    for name, _ in ClaimColumns.EXPORT_FIELDS:
        assert np.array_equal(getattr(clone, name), getattr(claims, name)), name
    probe = slice(0, min(1000, len(claims)))
    assert np.array_equal(
        clone.positions(
            claims.provider_id[probe], claims.cell[probe], claims.technology[probe]
        ),
        np.arange(len(claims))[probe],
    )


def test_store_scores_match_live_model_bitwise(tiny_score_store, tiny_model):
    model, _ = tiny_model
    store = tiny_score_store
    claims = store.claims
    rows = np.linspace(0, len(claims) - 1, 200).astype(int)
    observations = [
        Observation(
            provider_id=int(claims.provider_id[r]),
            cell=int(claims.cell[r]),
            technology=int(claims.technology[r]),
            state=STATES[int(claims.state_idx[r])].abbr,
            unserved=0,
            source=LabelSource.SYNTHETIC,
        )
        for r in rows
    ]
    # The store scored through the binned path; the observation path is
    # float — the two are bitwise identical by the binned-inference
    # contract, so the store must reproduce live predict_proba exactly.
    assert np.array_equal(store.score[rows], model.predict_proba(observations))


def test_store_percentile_invariants(tiny_score_store):
    store = tiny_score_store
    pct = store.percentile
    assert pct.min() > 0.0
    assert pct.max() == 100.0
    # Monotone in margin, ties share a percentile.
    order = np.argsort(store.margin)
    assert (np.diff(pct[order]) >= 0).all()
    m = store.margin
    for row in (0, len(store) // 2):
        ties = m == m[row]
        assert np.unique(pct[ties]).size == 1
        assert pct[row] == pytest.approx(100.0 * ties_below(m, m[row]) / len(store))


def ties_below(margin, value):
    return int((margin <= value).sum())


def test_store_ordering_invariants(tiny_score_store):
    store = tiny_score_store
    order = store.sus_order
    assert np.array_equal(np.sort(order), np.arange(len(store)))
    ordered = store.margin[order]
    assert (np.diff(ordered) <= 0).all()
    # Stable tie-break: equal margins appear in ascending claim-row order.
    same = np.diff(ordered) == 0
    assert (np.diff(order)[same] > 0).all()
    # sus_rank is the inverse permutation; rank 0 is the max margin.
    assert np.array_equal(store.sus_order[store.sus_rank], np.arange(len(store)))
    assert store.margin[store.sus_rank == 0] == store.margin.max()


def test_store_top_k_matches_naive(tiny_score_store):
    store = tiny_score_store
    k = 25
    naive = np.argsort(-store.margin, kind="stable")[:k]
    assert np.array_equal(store.top_suspicious(k=k), naive)
    assert store.top_suspicious(k=0).size == 0
    big = store.top_suspicious(k=len(store) + 10)
    assert big.size == len(store)
    with pytest.raises(ValueError):
        store.top_suspicious(k=-1)


def test_store_top_k_filters(tiny_score_store):
    store = tiny_score_store
    claims = store.claims
    pid = int(claims.provider_id[store.sus_order[0]])
    tech = int(claims.technology[store.sus_order[0]])
    rows = store.top_suspicious(k=10, provider_id=pid, technology=tech)
    assert rows.size > 0
    assert (claims.provider_id[rows] == pid).all()
    assert (claims.technology[rows] == tech).all()
    # Filtered results are exactly the matching prefix of the global order.
    mask = (claims.provider_id == pid) & (claims.technology == tech)
    expected = store.sus_order[mask[store.sus_order]][:10]
    assert np.array_equal(rows, expected)
    # A filter matching nothing returns an empty result, not an error.
    assert store.top_suspicious(k=5, provider_id=-1).size == 0


def test_store_lookup_and_records(tiny_score_store):
    store = tiny_score_store
    claims = store.claims
    rows = np.array([0, len(store) // 2, len(store) - 1])
    pos = store.positions(
        claims.provider_id[rows], claims.cell[rows], claims.technology[rows]
    )
    assert np.array_equal(pos, rows)
    rec = store.record(int(rows[1]))
    assert rec["precomputed"] is True
    assert rec["score"] == pytest.approx(float(store.score[rows[1]]))
    assert rec["rank"] == int(store.sus_rank[rows[1]])
    assert rec["state"] in {s.abbr for s in STATES}
    # A miss maps to -1.
    miss = store.positions(
        np.array([-5], dtype=np.int64),
        claims.cell[:1],
        claims.technology[:1].astype(np.int64),
    )
    assert miss[0] == -1


def test_store_margin_percentile_cold_scale(tiny_score_store):
    store = tiny_score_store
    lo = store.margin.min() - 1.0
    hi = store.margin.max() + 1.0
    pct = store.margin_percentile(np.array([lo, hi]))
    assert pct[0] == 0.0
    assert pct[1] == 100.0
    # A stored margin lands exactly on its own percentile.
    assert store.margin_percentile(store.margin[:50]) == pytest.approx(
        store.percentile[:50]
    )


def test_store_save_load_roundtrip(tmp_path, tiny_score_store):
    """The single-shard bundle is the store's only on-disk format."""
    store = tiny_score_store
    store.save_sharded(str(tmp_path), shards=1)
    loaded = ClaimScoreStore.load_sharded(str(tmp_path))
    assert np.array_equal(loaded.margin, store.margin)
    assert np.array_equal(loaded.score, store.score)
    assert np.array_equal(loaded.percentile, store.percentile)
    assert np.array_equal(loaded.sus_order, store.sus_order)
    for name, _ in ClaimColumns.EXPORT_FIELDS:
        assert np.array_equal(
            getattr(loaded.claims, name), getattr(store.claims, name)
        ), name
    with pytest.raises(FileNotFoundError):
        ClaimScoreStore.load_sharded(str(tmp_path / "missing"))


def test_store_rejects_misaligned_margin(tiny_score_store):
    with pytest.raises(ValueError):
        ClaimScoreStore(tiny_score_store.claims, np.zeros(3))


def test_store_arrays_frozen(tiny_score_store):
    for arr in (
        tiny_score_store.margin,
        tiny_score_store.score,
        tiny_score_store.percentile,
        tiny_score_store.sus_order,
    ):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_typed_record_and_dict_encoder_never_drift(tiny_score_store):
    """record() hand-builds the wire dict for speed; the typed encoder
    must always agree with it, field for field and in key order."""
    store = tiny_score_store
    for row in (0, len(store) // 2, len(store) - 1):
        direct = store.record(row)
        typed = store.typed_record(row).to_dict()
        assert direct == typed
        assert list(direct) == list(typed)


def test_page_suspicious_walk_and_filters(tiny_score_store):
    store = tiny_score_store
    # Unfiltered pages concatenate to exactly sus_order.
    seen, after = [], 0
    while True:
        rows, next_rank, total = store.page_suspicious(after_rank=after, limit=30_000)
        assert total == len(store)
        seen.extend(int(r) for r in rows)
        if next_rank is None:
            break
        after = next_rank
    assert seen == [int(r) for r in store.sus_order]
    # Filtered pages concatenate to the masked order.
    pid = int(store.claims.provider_id[int(store.sus_order[0])])
    mask = store.claims.provider_id == pid
    expected = [int(r) for r in store.sus_order[mask[store.sus_order]]]
    got, after = [], 0
    while True:
        rows, next_rank, total = store.page_suspicious(
            after_rank=after, limit=7, provider_id=pid
        )
        assert total == len(expected)
        got.extend(int(r) for r in rows)
        if next_rank is None:
            break
        after = next_rank
    assert got == expected
    with pytest.raises(ValueError):
        store.page_suspicious(limit=0)
    with pytest.raises(ValueError):
        store.page_suspicious(after_rank=-1)


def test_store_etag_tracks_content(tiny_score_store):
    store = tiny_score_store
    assert store.etag == store.etag  # cached, stable
    rebuilt = ClaimScoreStore(store.claims, store.margin.copy())
    assert rebuilt.etag == store.etag  # same content, same fingerprint
    shifted = ClaimScoreStore(store.claims, store.margin + 0.5)
    assert shifted.etag != store.etag
