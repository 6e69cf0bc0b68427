"""Tests for the vectorized hex-grid code paths (used by the Fabric)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo import hexgrid as hg


def _random_points(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(25, 49, n), rng.uniform(-124, -67, n)


def test_vectorized_matches_scalar_conus():
    lats, lngs = _random_points(500)
    vec = hg.latlng_to_cell_vec(lats, lngs, 8)
    for i in range(0, 500, 25):
        assert int(vec[i]) == hg.latlng_to_cell(float(lats[i]), float(lngs[i]), 8)


@given(st.integers(min_value=0, max_value=12))
@settings(max_examples=13, deadline=None)
def test_vectorized_matches_scalar_all_resolutions(res):
    lats, lngs = _random_points(40, seed=res)
    vec = hg.latlng_to_cell_vec(lats, lngs, res)
    scal = [hg.latlng_to_cell(float(a), float(b), res) for a, b in zip(lats, lngs)]
    assert vec.tolist() == scal


def test_cell_to_latlng_vec_roundtrip():
    lats, lngs = _random_points(200, seed=3)
    cells = hg.latlng_to_cell_vec(lats, lngs, 8)
    la, lo = hg.cell_to_latlng_vec(cells)
    back = hg.latlng_to_cell_vec(la, lo, 8)
    np.testing.assert_array_equal(cells, back)


def test_cell_to_latlng_vec_rejects_mixed_resolutions():
    a = hg.latlng_to_cell(40, -100, 8)
    b = hg.latlng_to_cell(40, -100, 7)
    with pytest.raises(ValueError):
        hg.cell_to_latlng_vec(np.array([a, b], dtype=np.uint64))


def test_cell_to_latlng_vec_empty():
    la, lo = hg.cell_to_latlng_vec(np.empty(0, dtype=np.uint64))
    assert la.size == 0 and lo.size == 0


def test_cells_to_axial_vec_matches_unpack():
    lats, lngs = _random_points(100, seed=5)
    cells = hg.latlng_to_cell_vec(lats, lngs, 8)
    res, q, r = hg.cells_to_axial_vec(cells)
    for i in range(0, 100, 10):
        assert (int(res[i]), int(q[i]), int(r[i])) == hg.unpack_cell(int(cells[i]))


def test_grid_distance_vec_matches_scalar():
    lats, lngs = _random_points(60, seed=6)
    cells = hg.latlng_to_cell_vec(lats, lngs, 8)
    ref = hg.latlng_to_cell(40.0, -100.0, 8)
    dists = hg.grid_distance_vec(cells, ref)
    for i in range(0, 60, 6):
        assert int(dists[i]) == hg.grid_distance(int(cells[i]), ref)


def test_vectorized_handles_length_one_arrays():
    out = hg.latlng_to_cell_vec(np.array([40.0]), np.array([-100.0]), 8)
    assert int(out[0]) == hg.latlng_to_cell(40.0, -100.0, 8)


def test_cell_to_latlng_vec_matches_scalar_near_poles():
    """Rows past a pole clamp their latitude; the vectorized centroid
    follows the scalar one there too."""
    r_pole = round(hg.EARTH_RADIUS_M * np.pi / 2 / (1.5 * hg.edge_length_m(8)))
    cells = [
        hg.pack_cell(8, q, r)
        for q, r in ((0, 0), (5, -3), (7, r_pole), (-7, -r_pole), (3, r_pole + 1))
    ]
    la, lo = hg.cell_to_latlng_vec(np.array(cells, dtype=np.uint64))
    assert list(zip(la.tolist(), lo.tolist())) == [hg.cell_to_latlng(c) for c in cells]


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_cells_within_radius_vec_matches_scalar(seed):
    rng = np.random.default_rng(seed)
    n = 12
    lats = rng.uniform(-80, 80, n)
    lngs = rng.uniform(-180, 180, n)
    radii = rng.choice([1.0, 300.0, 2500.0, 9000.0], n) * rng.uniform(0.5, 1.0, n)
    scalar = [
        set(hg.cells_within_radius(float(a), float(b), float(c), 8))
        for a, b, c in zip(lats, lngs, radii)
    ]
    # Some scalar hits, some cells outside every disk.
    pool = sorted(set().union(*scalar))
    among = set(rng.choice(pool, len(pool) // 2).tolist()) if pool else set()
    among |= set(hg.grid_disk(hg.latlng_to_cell(0.0, 0.0, 8), 2))
    among = np.array(sorted(among), dtype=np.uint64)
    point, cells = hg.cells_within_radius_vec(lats, lngs, radii, 8, among)
    got = [set() for _ in range(n)]
    for p, c in zip(point.tolist(), cells.tolist()):
        got[p].add(c)
    kept = set(among.tolist())
    assert got == [s & kept for s in scalar]
    assert len(point) == sum(len(g) for g in got)


def test_cells_within_radius_vec_empty_inputs():
    cell = hg.latlng_to_cell(40.0, -100.0, 8)
    for lats, among in (([], [cell]), ([40.0], [])):
        lngs = [-100.0] * len(lats)
        radii = [500.0] * len(lats)
        point, cells = hg.cells_within_radius_vec(
            np.array(lats), np.array(lngs), np.array(radii), 8,
            np.array(among, dtype=np.uint64),
        )
        assert point.dtype == np.int64 and cells.dtype == np.uint64
        assert point.size == 0 and cells.size == 0
