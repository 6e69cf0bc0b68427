"""The batched MLab attribution pass (paper §4.2.2) against scalar oracles.

``attribute_mlab_tests`` makes one pass over the test stream; the
localization's counts and the truth map's tiles both derive from it.
These tests pin it to the per-test scalar path it replaced —
``cells_within_radius`` intersected with each attributed provider's
claimed footprint — as exact sets, and the truth map's grouped
aggregation to a per-tile ``directional_summary`` oracle, bitwise.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn.matching import CrosswalkResult
from repro.core import enrichment_from_world
from repro.dataset.likely_served import (
    MAX_GEOLOCATION_RADIUS_M,
    MLabHits,
    MLabLocalization,
    attribute_mlab_tests,
    localize_mlab_tests,
)
from repro.enrich import build_truth_map
from repro.geo import cell_to_latlng, cells_within_radius, grid_disk, haversine_m
from repro.geo import hexgrid
from repro.speedtests.aggregate import directional_summary
from repro.speedtests.mlab import MLabTest
from repro.store import load_feature_tables, save_feature_tables

# -- oracles --------------------------------------------------------------------


def scalar_attribution(tests, crosswalk, claimed, res=8):
    """Per test: ``cells_within_radius`` ∩ each attributed provider's
    footprint.  Returns ({(test, provider, cell)}, dropped radius,
    dropped unattributed)."""
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


def triples(hits: MLabHits) -> list[tuple[int, int, int]]:
    return list(
        zip(hits.test_index.tolist(), hits.provider_id.tolist(), hits.cell.tolist())
    )


def tile_summaries(tests, hits: MLabHits):
    """Per-(provider, cell) ``directional_summary`` over each tile's tests."""
    down: dict[tuple[int, int], list[float]] = {}
    up: dict[tuple[int, int], list[float]] = {}
    for i, pid, cell in triples(hits):
        down.setdefault((pid, cell), []).append(tests[i].download_mbps)
        up.setdefault((pid, cell), []).append(tests[i].upload_mbps)
    return {key: directional_summary(down[key], up[key]) for key in sorted(down)}


def assert_truthmap_matches_oracle(tm, tests, hits, rows=slice(None)):
    """``tm``'s tiles at ``rows`` are the oracle's over ``hits``, bitwise."""
    oracle = tile_summaries(tests, hits)
    keys = zip(tm.provider_id[rows].tolist(), tm.cell[rows].tolist())
    assert list(keys) == list(oracle)
    for column in ("median_down", "p90_down", "median_up", "p90_up"):
        expected = np.array([getattr(s, column) for s in oracle.values()])
        got = getattr(tm, column)[rows]
        assert got.dtype == np.float64
        np.testing.assert_array_equal(
            got.view(np.uint64), expected.view(np.uint64), err_msg=column
        )


def mlab_test(i, lat, lng, radius, asn=1, down=50.0, up=5.0):
    return MLabTest(
        test_id=i, asn=asn, lat=lat, lng=lng, accuracy_radius_m=radius,
        download_mbps=down, upload_mbps=up, latency_ms=20.0,
    )


def crosswalk(union):
    return CrosswalkResult(by_method={}, union=union)


# -- the committed tiny world ---------------------------------------------------


@pytest.fixture(scope="module")
def tiny_claimed(tiny_world):
    return {
        p.provider_id: tiny_world.universe.claimed_cells(p.provider_id)
        for p in tiny_world.universe.providers
    }


def test_tiny_world_localization_equals_scalar_oracle(tiny_world, tiny_claimed):
    loc = tiny_world.localization
    hits, dropped_radius, dropped_unattributed = scalar_attribution(
        tiny_world.mlab_tests, tiny_world.crosswalk, tiny_claimed,
        res=tiny_world.fabric.config.hex_resolution,
    )
    assert set(triples(loc.hits)) == hits
    assert len(loc.hits.cell) == len(hits)
    counts: dict[tuple[int, int], int] = {}
    for _, pid, cell in hits:
        counts[pid, cell] = counts.get((pid, cell), 0) + 1
    assert loc.test_counts == counts
    by_provider: dict[int, set[int]] = {}
    for pid, cell in counts:
        by_provider.setdefault(pid, set()).add(cell)
    assert loc.cells_by_provider == by_provider
    assert (loc.n_dropped_radius, loc.n_dropped_unattributed) == (
        dropped_radius, dropped_unattributed,
    )
    assert dropped_radius > 0 and dropped_unattributed > 0


def test_hits_sorted_by_provider_cell_test(tiny_world):
    hits = tiny_world.localization.hits
    assert hits.test_index.dtype == np.int64
    assert hits.provider_id.dtype == np.int64
    assert hits.cell.dtype == np.uint64
    order = np.lexsort((hits.test_index, hits.cell, hits.provider_id))
    np.testing.assert_array_equal(order, np.arange(order.size))
    assert len(set(triples(hits))) == order.size


def test_tiny_truthmap_equals_directional_summary_oracle(tiny_world):
    """Bitwise on every 37th tile of the tiny world (the per-tile oracle
    costs ~0.2 ms a tile)."""
    tm = enrichment_from_world(tiny_world).truthmap
    loc = tiny_world.localization
    np.testing.assert_array_equal(
        tm.n_tests,
        [loc.test_counts[k] for k in zip(tm.provider_id.tolist(), tm.cell.tolist())],
    )
    rows = np.arange(0, len(tm), 37)
    keep = np.isin(np.repeat(np.arange(len(tm)), tm.n_tests), rows)
    sample = MLabHits(
        loc.hits.test_index[keep], loc.hits.provider_id[keep], loc.hits.cell[keep], 0, 0
    )
    assert rows.size > 1000
    assert_truthmap_matches_oracle(tm, tiny_world.mlab_tests, sample, rows=rows)


# -- generated worlds -----------------------------------------------------------

_ASNS = (64500, 64501, 64502)

#: Radii from 1 m to exactly the 20 km cap and just above it.
_RADII = st.one_of(
    st.floats(1.0, 4000.0),
    st.sampled_from(
        [1.0, 19_999.0, 20_000.0, math.nextafter(20_000.0, math.inf), 25_000.0]
    ),
)


@st.composite
def attribution_worlds(draw):
    """High latitudes far from the -98° meridian (large projection
    shear), shared ASNs, and providers with empty footprints."""
    res = draw(st.sampled_from([7, 8]))
    tests = []
    for i in range(draw(st.integers(1, 5))):
        lat = draw(st.floats(50.0, 89.0)) * draw(st.sampled_from([1.0, -1.0]))
        lng = draw(st.one_of(st.floats(-180.0, -150.0), st.floats(-20.0, 180.0)))
        asn = draw(st.sampled_from(_ASNS + (65000,)))
        tests.append(mlab_test(i, lat, lng, draw(_RADII), asn=asn))
    # Providers 1-3 draw ASNs from one small pool, so ASNs are shared.
    union = {
        pid: set(draw(st.lists(st.sampled_from(_ASNS), max_size=3)))
        for pid in (1, 2, 3, 4)
    }
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    claimed: dict[int, set[int]] = {3: set()}  # 3: empty, 4: no entry
    for pid in (1, 2):
        anchor = tests[draw(st.integers(0, len(tests) - 1))]
        centre = hexgrid.latlng_to_cell(anchor.lat, anchor.lng, res)
        disk = grid_disk(centre, draw(st.integers(0, 40)))
        claimed[pid] = {c for c in disk if rng.random() < 0.6}
    return tests, crosswalk(union), claimed, res


@given(world=attribution_worlds())
@settings(max_examples=40, deadline=None)
def test_generated_attribution_equals_scalar_oracle(world):
    tests, xwalk, claimed, res = world
    hits = attribute_mlab_tests(tests, xwalk, claimed, res=res)
    expected = scalar_attribution(tests, xwalk, claimed, res=res)
    assert (set(triples(hits)), hits.n_dropped_radius, hits.n_dropped_unattributed) == expected
    assert len(hits.cell) == len(expected[0])
    loc = localize_mlab_tests(tests, xwalk, claimed, res=res)
    assert sum(loc.test_counts.values()) == len(expected[0])


# -- the scalar re-decision at the radius boundary ----------------------------


def _boundary_world():
    """Tests whose radius lands within 1e-9 m of one cell centroid's
    distance, on both sides of it; returns the world and each test's
    boundary cell."""
    lat, lng, res = 47.3, 12.9, 8
    centre = hexgrid.latlng_to_cell(lat, lng, res)
    tests, targets = [], []
    for cell in grid_disk(centre, 4)[1::7]:
        d = haversine_m(lat, lng, *cell_to_latlng(cell))
        for radius in (d, math.nextafter(d, 0.0), d - 5e-10, d + 5e-10):
            tests.append(mlab_test(len(tests), lat, lng, radius))
            targets.append(cell)
    claimed = {1: set(grid_disk(centre, 6))}
    return (tests, crosswalk({1: {1}}), claimed, res), targets


@pytest.mark.parametrize("skew", [0.0, 1e-12, -1e-12])
def test_boundary_centroids_take_the_scalar_decision(monkeypatch, skew):
    """A numpy distance a few ulps off the scalar one (another libm;
    simulated by ``skew``) must not move a boundary cell in or out."""
    (tests, xwalk, claimed, res), targets = _boundary_world()
    expected = scalar_attribution(tests, xwalk, claimed, res=res)[0]
    inside = [(i, 1, cell) in expected for i, cell in enumerate(targets)]
    assert any(inside) and not all(inside)
    vec = hexgrid.haversine_m_vec
    monkeypatch.setattr(
        hexgrid, "haversine_m_vec", lambda *a: vec(*a) * (1.0 + skew)
    )
    hits = attribute_mlab_tests(tests, xwalk, claimed, res=res)
    assert set(triples(hits)) == expected


# -- validation parity ---------------------------------------------------------


_BAD_POINTS = [
    (float("nan"), -100.0),
    (90.5, -100.0),
    (-91.0, -100.0),
    (40.0, float("inf")),
    (40.0, -180.5),
    (float("-inf"), float("nan")),
]


def _scalar_error(fn, *args) -> str:
    with pytest.raises(ValueError) as err:
        fn(*args)
    return str(err.value)


@pytest.mark.parametrize("lat,lng", _BAD_POINTS)
def test_latlng_to_cell_vec_validates_like_scalar(lat, lng):
    expected = _scalar_error(hexgrid.latlng_to_cell, lat, lng, 8)
    lats = np.array([40.0, lat, 41.0])
    lngs = np.array([-100.0, lng, 400.0])
    with pytest.raises(ValueError) as err:
        hexgrid.latlng_to_cell_vec(lats, lngs, 8)
    assert str(err.value) == expected


@pytest.mark.parametrize(
    "lat,lng,radius",
    [(lat, lng, 1000.0) for lat, lng in _BAD_POINTS]
    + [(40.0, -100.0, 0.0), (40.0, -100.0, -5.0), (40.0, -100.0, float("nan")),
       (float("nan"), -100.0, -1.0)],
)
def test_attribution_raises_the_scalar_error_for_a_kept_test(lat, lng, radius):
    good = mlab_test(0, 40.0, -100.0, 1000.0)
    bad = mlab_test(1, lat, lng, radius)
    later = mlab_test(2, 40.0, -100.0, -1.0)
    xwalk = crosswalk({1: {1}})
    claimed = {1: {hexgrid.latlng_to_cell(40.0, -100.0, 8)}}
    expected = _scalar_error(
        scalar_attribution, [good, bad, later], xwalk, claimed
    )
    with pytest.raises(ValueError) as err:
        attribute_mlab_tests([good, bad, later], xwalk, claimed)
    assert str(err.value) == expected


def test_attribution_skips_bad_tests_that_are_dropped_first():
    """Over the cap or unattributed, a bad test is dropped, not checked —
    as in the scalar path."""
    tests = [
        mlab_test(0, float("nan"), -100.0, 30_000.0),
        mlab_test(1, 95.0, -100.0, -3.0, asn=999),
        mlab_test(2, 40.0, -100.0, 500.0),
    ]
    claimed = {1: {hexgrid.latlng_to_cell(40.0, -100.0, 8)}}
    hits = attribute_mlab_tests(tests, crosswalk({1: {1}}), claimed)
    assert (hits.n_dropped_radius, hits.n_dropped_unattributed) == (1, 1)
    assert triples(hits) == [(2, 1, hexgrid.latlng_to_cell(40.0, -100.0, 8))]


# -- the truth map's grouped aggregation ---------------------------------------

_SPEEDS = st.one_of(
    st.floats(0.01, 2000.0),
    st.sampled_from(
        [0.0, -0.0, -4.0, 1.0, 2.5, float("nan"), float("inf"), float("-inf")]
    ),
)


def _hits(rows) -> MLabHits:
    rows = sorted(rows, key=lambda t: (t[1], t[2], t[0]))
    return MLabHits(
        test_index=np.array([t for t, _, _ in rows], dtype=np.int64),
        provider_id=np.array([p for _, p, _ in rows], dtype=np.int64),
        cell=np.array([c for _, _, c in rows], dtype=np.uint64),
        n_dropped_radius=0,
        n_dropped_unattributed=0,
    )


def _localization(hits: MLabHits) -> MLabLocalization:
    return MLabLocalization(
        cells_by_provider={}, test_counts={}, n_dropped_radius=0,
        n_dropped_unattributed=0, hits=hits,
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_grouped_truthmap_equals_directional_summary(data):
    n = data.draw(st.integers(1, 25))
    tests = [
        mlab_test(i, 40.0, -100.0, 100.0, down=data.draw(_SPEEDS), up=data.draw(_SPEEDS))
        for i in range(n)
    ]
    rows = data.draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(1, 3), st.integers(0, 4)),
            max_size=60,
        )
    )
    hits = _hits(rows)
    tm = build_truth_map(tests, _localization(hits))
    assert_truthmap_matches_oracle(tm, tests, hits)
    assert int(tm.n_tests.sum()) == len(rows)


def test_truthmap_codes_missing_directions_as_nan():
    nan = float("nan")
    tests = [
        mlab_test(0, 40.0, -100.0, 100.0, down=10.0, up=nan),
        mlab_test(1, 40.0, -100.0, 100.0, down=30.0, up=0.0),
        mlab_test(2, 40.0, -100.0, 100.0, down=-1.0, up=4.0),
        mlab_test(3, 40.0, -100.0, 100.0, down=0.0, up=6.0),
        mlab_test(4, 40.0, -100.0, 100.0, down=nan, up=-2.0),
    ]
    # Tile (1, 7): down-only; (1, 8): up-only; (2, 9): nothing measurable.
    hits = _hits([(0, 1, 7), (1, 1, 7), (2, 1, 8), (3, 1, 8), (4, 2, 9)])
    tm = build_truth_map(tests, _localization(hits))
    assert_truthmap_matches_oracle(tm, tests, hits)
    assert tm.median_down[0] == 20.0 and np.isnan(tm.median_up[0])
    assert np.isnan(tm.p90_down[1]) and tm.median_up[1] == 5.0
    assert np.isnan([tm.median_down[2], tm.p90_down[2], tm.median_up[2], tm.p90_up[2]]).all()
    np.testing.assert_array_equal(tm.n_tests, [2, 2, 1])


def test_truthmap_needs_the_attribution_hits(tiny_builder, tiny_world, tmp_path):
    """A localization restored from a feature-table bundle has counts but
    no hits, so it cannot feed the truth map."""
    path = save_feature_tables(str(tmp_path / "features"), tiny_builder)
    restored = load_feature_tables(path, claims=tiny_builder.claims)
    assert restored.localization.hits is None
    assert restored.localization.test_counts == tiny_world.localization.test_counts
    with pytest.raises(ValueError, match="no attribution hits"):
        build_truth_map(tiny_world.mlab_tests, restored.localization)
