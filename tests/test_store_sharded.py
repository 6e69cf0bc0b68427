"""The sharded-equivalence property layer: sharded == monolithic, bitwise.

Two tiers:

* **Synthetic property tests** (hypothesis) over random-but-valid
  ``ClaimColumns`` tables: save/load round-trips are bitwise across
  every shard layout (per-state, ``k`` round-robin shards including
  ``k=1`` and ``k > n_states`` with empty shards, explicit maps), hashes
  verify, corruption is detected, and the sharded composite-key lookup
  agrees with the monolithic index on hits and misses.

* **Tiny-world equivalence** over the session model: the frozen-builder
  bundle vectorizes bitwise-identically to the live builder, the
  shard-parallel build reproduces the monolithic margin array bitwise
  (in-process and across worker processes), and a sharded store bundle
  serves the exact monolithic pagination walk.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bundle_kinds import KINDS
from conftest import make_random_claims, mmap_backed
from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.serve.store import ClaimScoreStore, score_claim_blocks
from repro.store import (
    SHARD_MANIFEST_NAME,
    ShardedClaimColumns,
    build_sharded_margins,
    load_feature_tables,
    save_feature_tables,
)
from repro.utils.indexing import MultiColumnIndex
from repro.utils.persist import read_bundle, verify_bundle

N_STATES = len(STATES)


def assert_claims_bitwise(a: ClaimColumns, b: ClaimColumns):
    for name, _ in ClaimColumns.EXPORT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# One strategy for "any supported shard layout".
shard_layouts = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=N_STATES + 8),
    st.just({s.abbr: ("west" if i % 2 else "east") for i, s in enumerate(STATES)}),
)


# -- synthetic property tests -------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), layout=shard_layouts, mmap=st.booleans())
def test_save_load_round_trip_bitwise(tmp_path_factory, seed, layout, mmap):
    """Splitting, saving, and loading reassembles the table bitwise."""
    claims = make_random_claims(seed, n=600)
    root = str(tmp_path_factory.mktemp("bundle"))
    sharded = ShardedClaimColumns.from_claims(claims, shards=layout)
    assert len(sharded) == len(claims)
    sharded.save(root)
    back = ShardedClaimColumns.load(root, mmap=mmap)
    assert back.shard_names == sharded.shard_names
    assert back.state_to_shard == sharded.state_to_shard
    for name in sharded.shard_names:
        assert_claims_bitwise(back.shard(name), sharded.shard(name))
        assert np.array_equal(back.global_rows(name), sharded.global_rows(name))
    assert_claims_bitwise(back.to_claims(), claims)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), layout=shard_layouts)
def test_positions_equivalence_hits_and_misses(seed, layout):
    """Sharded key lookup == monolithic index, for present and absent keys."""
    claims = make_random_claims(seed, n=500)
    sharded = ShardedClaimColumns.from_claims(claims, shards=layout)
    rng = np.random.default_rng(seed)
    hit_rows = rng.integers(0, len(claims), 40)
    pid = np.r_[claims.provider_id[hit_rows], [-1, 10**6]]
    cell = np.r_[claims.cell[hit_rows], [np.uint64(3), np.uint64(2**60)]]
    tech = np.r_[claims.technology[hit_rows], [50, 71]].astype(np.int16)
    expected = claims.positions(pid, cell, tech)
    assert np.array_equal(sharded.positions(pid, cell, tech), expected)
    # The first 40 probes were drawn from the table: all must be hits.
    assert (expected[:40] >= 0).all()


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_persisted_index_survives_round_trip(tmp_path_factory, seed):
    """Loaded shards answer lookups from the *persisted* index state."""
    claims = make_random_claims(seed, n=400)
    root = str(tmp_path_factory.mktemp("bundle"))
    sharded = ShardedClaimColumns.from_claims(claims, shards=3)
    for name in sharded.shard_names:
        sharded.shard(name).index  # force the index so save() persists it
    sharded.save(root)
    back = ShardedClaimColumns.load(root)
    for name in back.shard_names:
        shard = back.shard(name)
        # from_state() populated the lazy slot at load time.
        assert object.__getattribute__(shard, "_index") is not None
        live = sharded.shard(name)
        if not len(shard):
            continue
        pos = shard.positions(
            live.provider_id[:10], live.cell[:10], live.technology[:10]
        )
        assert np.array_equal(pos, np.arange(min(10, len(shard))))


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_keys=st.integers(0, 200),
)
def test_multi_column_index_state_round_trip(seed, n_keys):
    """export_state()/from_state() preserve lookup behaviour exactly."""
    rng = np.random.default_rng(seed)
    pid = np.sort(rng.integers(0, 50, n_keys)).astype(np.int64)
    cell = rng.integers(0, 2**52, n_keys).astype(np.uint64)
    tech = rng.integers(0, 80, n_keys).astype(np.int64)
    order = np.lexsort((tech, cell, pid))
    keys = np.stack(
        [pid[order].astype(np.uint64), cell[order], tech[order].astype(np.uint64)],
        axis=1,
    )
    keep = (
        np.r_[True, np.any(keys[1:] != keys[:-1], axis=1)]
        if n_keys
        else np.zeros(0, dtype=bool)
    )
    rows = order[keep]
    idx = MultiColumnIndex(pid[rows], cell[rows], tech[rows])
    back = MultiColumnIndex.from_state(idx.export_state())
    assert back.n_keys == idx.n_keys
    probe_pid = np.r_[pid[rows][:20], [-7]]
    probe_cell = np.r_[cell[rows][:20], [np.uint64(9)]]
    probe_tech = np.r_[tech[rows][:20], [50]]
    assert np.array_equal(
        back.positions(probe_pid, probe_cell, probe_tech),
        idx.positions(probe_pid, probe_cell, probe_tech),
    )


def test_from_state_rejects_malformed():
    idx = MultiColumnIndex(
        np.array([1, 2], dtype=np.int64),
        np.array([3, 4], dtype=np.uint64),
        np.array([5, 6], dtype=np.int64),
    )
    state = idx.export_state()
    with pytest.raises(ValueError):
        MultiColumnIndex.from_state(
            {k: v for k, v in state.items() if k != "pos_by_code"}
        )
    with pytest.raises(ValueError):
        MultiColumnIndex.from_state(
            {k: v for k, v in state.items() if k != "stage_0"}
        )


# -- every artifact kind: corruption, drift, GC, commit order ------------------
#
# These loop over ``bundle_kinds.KINDS`` (every writer in src/) inside one
# test each rather than parametrizing, so the test ids stay stable.


def _victim_path(root, kind):
    manifest = json.load(open(os.path.join(root, SHARD_MANIFEST_NAME)))
    return os.path.join(root, manifest["files"][kind.victim]["path"])


def test_verify_detects_corruption(tmp_path, request):
    for kind in KINDS:
        root = str(tmp_path / kind.label)
        kind.save(root, 0, request)
        assert verify_bundle(root) > 0, kind
        # Flip one byte inside one array payload: verify must notice.
        with open(_victim_path(root, kind), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(ValueError, match="hash"):
            verify_bundle(root)


def test_verify_detects_missing_file(tmp_path, request):
    for kind in KINDS:
        root = str(tmp_path / kind.label)
        kind.save(root, 0, request)
        os.unlink(_victim_path(root, kind))
        with pytest.raises(FileNotFoundError):
            verify_bundle(root)
        with pytest.raises(FileNotFoundError):
            kind.load(root, request)


def test_load_rejects_dtype_drift(tmp_path, request):
    """A file whose dtype -- or shape -- disagrees with the manifest is
    refused at load."""
    for kind in KINDS:
        for drift in ("dtype", "shape"):
            root = str(tmp_path / kind.label / drift)
            kind.save(root, 0, request)
            path = _victim_path(root, kind)
            arr = np.load(path)
            if drift == "dtype":
                arr = arr.astype(np.float32 if arr.dtype.kind == "f" else np.int32)
            else:
                arr = np.append(arr, arr[:1])
            np.save(path, arr)
            with pytest.raises(ValueError, match=drift):
                kind.load(root, request)


def test_generations_are_garbage_collected(tmp_path, request):
    for kind in KINDS:
        root = str(tmp_path / kind.label)
        kind.save(root, 0, request)
        first_gen = read_bundle(root, kind.kind, kind.schema)[0]["generation"]
        kind.save(root, 1, request)
        second = read_bundle(root, kind.kind, kind.schema)[0]
        assert second["generation"] != first_gen, kind
        gens = [d for d in os.listdir(root) if d.startswith("data-")]
        assert gens == [second["generation"]], kind
        # And the survivor still loads + verifies.
        verify_bundle(root)
        kind.load(root, request)


def test_manifest_commit_fsyncs_before_and_after_rename(
    tmp_path, monkeypatch, request
):
    """The rename is the commit point: the tmp manifest's bytes must be
    fsynced before ``os.replace`` and the directory entry after it, or a
    crash can surface a committed-but-torn manifest."""
    import stat

    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def spy_fsync(fd):
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        events.append(("fsync", "dir" if is_dir else "file"))
        real_fsync(fd)

    def spy_replace(src, dst):
        events.append(("replace", os.path.basename(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    monkeypatch.setattr(os, "replace", spy_replace)
    for kind in KINDS:
        events.clear()
        root = str(tmp_path / kind.label)
        kind.save(root, 0, request)
        commit = events.index(("replace", "manifest.json"))
        before, after = events[:commit], events[commit + 1 :]
        assert ("fsync", "file") in before, kind  # tmp manifest contents
        assert ("fsync", "dir") in before, kind  # tmp entry durable pre-rename
        assert ("fsync", "dir") in after, kind  # the rename itself durable
        kind.load(root, request)


def test_empty_table_round_trips(tmp_path):
    claims = make_random_claims(0, n=0)
    root = str(tmp_path / "bundle")
    ShardedClaimColumns.from_claims(claims, shards=4).save(root)
    back = ShardedClaimColumns.load(root)
    assert len(back) == 0
    assert all(len(back.shard(n)) == 0 for n in back.shard_names)
    assert back.positions(
        np.array([1], dtype=np.int64),
        np.array([2], dtype=np.uint64),
        np.array([50], dtype=np.int16),
    ).tolist() == [-1]


def test_partial_state_map_is_rejected():
    claims = make_random_claims(15, n=50)
    with pytest.raises(ValueError, match="every state"):
        ShardedClaimColumns.from_claims(claims, shards={"CA": "west"})
    with pytest.raises(ValueError, match=">= 1"):
        ShardedClaimColumns.from_claims(claims, shards=0)


def test_extra_arrays_round_trip_and_cannot_shadow(tmp_path):
    claims = make_random_claims(16, n=300)
    sharded = ShardedClaimColumns.from_claims(claims, shards=2)
    extras = {
        name: {"margin": np.arange(len(sharded.shard(name)), dtype=np.float64)}
        for name in sharded.shard_names
    }
    root = str(tmp_path / "bundle")
    sharded.save(root, extra_shard_arrays=extras, extra_manifest={"store": {"k": 1}})
    manifest = read_bundle(root, "sharded-claim-columns", 2)[0]
    assert manifest["store"] == {"k": 1}
    back = ShardedClaimColumns.load(root)
    for name in back.shard_names:
        assert np.array_equal(
            back.extra_arrays[name]["margin"], extras[name]["margin"]
        )
    with pytest.raises(ValueError, match="shadows"):
        sharded.save(
            root, extra_shard_arrays={sharded.shard_names[0]: {"cell": np.zeros(1)}}
        )


# -- tiny-world equivalence ----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_claims(tiny_builder):
    return tiny_builder.claims


def test_frozen_builder_vectorizes_bitwise(tmp_path, tiny_builder, tiny_claims):
    """The world-detached feature bundle reproduces live vectorization."""
    from repro.dataset.observations import ObservationColumns

    path = str(tmp_path / "features")
    save_feature_tables(path, tiny_builder)
    frozen = load_feature_tables(path, claims=tiny_claims)
    assert frozen.feature_names == tiny_builder.feature_names
    rows = np.linspace(0, len(tiny_claims.provider_id) - 1, 512).astype(np.intp)
    abbrs = np.array([s.abbr for s in STATES], dtype=object)
    obs = ObservationColumns(
        provider_id=tiny_claims.provider_id[rows],
        cell=tiny_claims.cell[rows],
        technology=tiny_claims.technology[rows].astype(np.int64),
        state=abbrs[tiny_claims.state_idx[rows]],
        unserved=np.zeros(rows.size, dtype=np.int64),
    )
    assert np.array_equal(
        frozen.vectorize_columns(obs), tiny_builder.vectorize_columns(obs)
    )


def test_build_sharded_matches_monolithic_in_process(
    tmp_path, tiny_model, tiny_builder, tiny_score_store
):
    """Tier-1 equivalence smoke: sharded build (1 worker, through the
    on-disk worker bundles) is bitwise-identical to the monolithic
    store for the full tiny world."""
    model, _ = tiny_model
    store = ClaimScoreStore.build_sharded(
        model.classifier,
        tiny_builder,
        shards=4,
        n_workers=1,
        workdir=str(tmp_path / "work"),
    )
    assert np.array_equal(store.margin, tiny_score_store.margin)
    assert np.array_equal(store.sus_order, tiny_score_store.sus_order)
    assert store.etag == tiny_score_store.etag


@pytest.mark.slow
def test_build_sharded_matches_monolithic_multiprocess(
    tiny_model, tiny_builder, tiny_score_store
):
    """Worker processes (fork or spawn) reproduce the monolithic margins
    bitwise across the full per-state layout."""
    model, _ = tiny_model
    store = ClaimScoreStore.build_sharded(
        model.classifier, tiny_builder, shards=None, n_workers=2
    )
    assert np.array_equal(store.margin, tiny_score_store.margin)


def test_score_claim_blocks_is_block_size_invariant(
    tiny_model, tiny_builder, tiny_claims, tiny_score_store
):
    """The scoring kernel's margins do not depend on batch composition —
    the property that makes any row partition (blocks, shards,
    processes) bitwise-equivalent."""
    model, _ = tiny_model
    sub = tiny_claims.take(np.arange(0, len(tiny_claims.provider_id), 37))
    a = score_claim_blocks(model.classifier, tiny_builder, sub, block_rows=64)
    b = score_claim_blocks(model.classifier, tiny_builder, sub, block_rows=10_000)
    assert np.array_equal(a, b)
    rows = np.arange(0, len(tiny_claims.provider_id), 37)
    assert np.array_equal(a, tiny_score_store.margin[rows])


def test_store_sharded_save_load_and_pagination(tmp_path, tiny_score_store):
    """A sharded store bundle serves the exact monolithic suspicion walk."""
    store = tiny_score_store
    root = str(tmp_path / "store")
    store.save_sharded(root, shards=6)
    back = ClaimScoreStore.load_sharded(root)
    assert np.array_equal(back.margin, store.margin)
    assert np.array_equal(back.sus_order, store.sus_order)
    assert back.etag == store.etag
    # Unfiltered pagination walk == sus_order, element for element.
    seen, rank = [], 0
    while rank is not None:
        rows, rank, total = back.page_suspicious(after_rank=rank, limit=997)
        seen.append(rows)
        assert total == len(store)
    assert np.array_equal(np.concatenate(seen), store.sus_order)
    # Filtered walk too.
    pid = int(store.claims.provider_id[int(store.sus_order[0])])
    expected = store.sus_order[
        (store.claims.provider_id == pid)[store.sus_order]
    ]
    seen, rank = [], 0
    while rank is not None:
        rows, rank, total = back.page_suspicious(
            after_rank=rank, limit=7, provider_id=pid
        )
        seen.append(rows)
        assert total == expected.size
    assert np.array_equal(np.concatenate(seen), expected)


def test_single_shard_store_serves_mmap_backed(tmp_path, tiny_score_store):
    """One-shard bundles load zero-copy: claims and margin stay views
    over the mapped files, nothing is materialized."""
    root = str(tmp_path / "store")
    tiny_score_store.save_sharded(root, shards=1)
    back = ClaimScoreStore.load_sharded(root, mmap=True)
    assert mmap_backed(back.claims.provider_id)
    assert mmap_backed(back.claims.cell)
    assert mmap_backed(back.margin)
    assert np.array_equal(back.margin, tiny_score_store.margin)
    # mmap=False materializes plain arrays instead.
    eager = ClaimScoreStore.load_sharded(root, mmap=False)
    assert not mmap_backed(eager.claims.provider_id)
    assert np.array_equal(eager.margin, tiny_score_store.margin)


def test_single_shard_bundle_persists_derived_arrays(tmp_path, tiny_score_store):
    """One-shard bundles carry the derived serving arrays (score, ranks,
    percentiles) so a forked worker pool shares the mapped pages instead
    of each process recomputing a private heap copy — and the persisted
    arrays are bitwise what the constructor would have derived."""
    root = str(tmp_path / "store")
    tiny_score_store.save_sharded(root, shards=1)
    back = ClaimScoreStore.load_sharded(root, mmap=True)
    # All five derived arrays came off the map, not a recompute.
    assert mmap_backed(back.score)
    assert mmap_backed(back.sus_order)
    assert mmap_backed(back.sus_rank)
    assert mmap_backed(back.percentile)
    assert mmap_backed(back._sorted_margin)
    for name in ClaimScoreStore._DERIVED_SPECS:
        a = getattr(back, "_sorted_margin" if name == "sorted_margin" else name)
        b = getattr(
            tiny_score_store,
            "_sorted_margin" if name == "sorted_margin" else name,
        )
        assert np.array_equal(a, b), name
        assert a.dtype == b.dtype, name
    # The loaded store serves identically (etag included).
    assert back.etag == tiny_score_store.etag
    # include_derived=False keeps the lean layout: load still works, via
    # the recompute path.
    lean_root = str(tmp_path / "lean")
    tiny_score_store.save_sharded(lean_root, shards=1, include_derived=False)
    lean = ClaimScoreStore.load_sharded(lean_root, mmap=True)
    assert not mmap_backed(lean.score)
    assert np.array_equal(lean.score, tiny_score_store.score)


def test_load_sharded_rejects_claims_only_bundle(tmp_path, tiny_claims):
    root = str(tmp_path / "bundle")
    ShardedClaimColumns.from_claims(tiny_claims, shards=2).save(root)
    with pytest.raises(ValueError, match="margin"):
        ClaimScoreStore.load_sharded(root)


def test_build_sharded_margins_roundtrip_with_kept_workdir(
    tmp_path, tiny_model, tiny_builder, tiny_claims, tiny_score_store
):
    """With an explicit workdir the intermediate bundles survive and the
    margin partials re-stitch to the monolithic array."""
    model, _ = tiny_model
    sub_rows = np.arange(0, len(tiny_claims.provider_id), 11)
    sub = tiny_claims.take(sub_rows)
    sharded = ShardedClaimColumns.from_claims(sub, shards=3)
    workdir = str(tmp_path / "work")
    margin = build_sharded_margins(
        model.classifier, tiny_builder, sharded, n_workers=1, workdir=workdir
    )
    assert np.array_equal(margin, tiny_score_store.margin[sub_rows])
    assert os.path.exists(os.path.join(workdir, "claims", SHARD_MANIFEST_NAME))
    partials = os.listdir(os.path.join(workdir, "margins"))
    assert len(partials) == sum(
        1 for n in sharded.shard_names if len(sharded.shard(n))
    )
