"""Hierarchical hexagonal grid — an H3 work-alike.

The paper keys every observation to an Uber H3 resolution-8 cell.  H3 itself
is a compiled library that is unavailable here, so this module provides an
equivalent discrete global grid with the same *contract*:

* hexagonal, approximately equal-area cells;
* a ladder of resolutions whose edge length shrinks by ``1/sqrt(7)`` per
  level (H3's aperture-7 scaling), calibrated so that resolution 8 covers
  roughly 0.5 km^2 — the figure the paper quotes;
* packed 64-bit cell identifiers;
* the operations the pipeline needs: point -> cell, cell -> centroid,
  neighbors / k-rings, hex distance, disk queries by geodesic radius,
  boundaries, and centroid-based parent/child traversal.

Cells are regular hexagons in a sinusoidal (equal-area) projection of the
sphere; equal area in the projected plane therefore means equal area on the
globe.  Unlike H3 there is no icosahedral base tiling — nothing in the paper
depends on one.  The projection's central meridian sits at -98° (the centre
of the contiguous United States, the paper's study area) so that shape
distortion — which a sinusoidal projection concentrates far from its central
meridian — is a few percent over CONUS.

Cell identifiers pack ``(resolution, q, r)`` axial coordinates into a single
Python int: 4 bits of resolution and 30 bits for each signed axial
coordinate.  Identifiers are stable across processes.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geo.geodesy import EARTH_RADIUS_M, haversine_m, haversine_m_vec
from repro.utils.indexing import expand_ranges
from repro.utils.validation import check_latitude, check_longitude, check_positive

__all__ = [
    "MAX_RESOLUTION",
    "edge_length_m",
    "cell_area_km2",
    "latlng_to_cell",
    "latlng_to_cell_vec",
    "cell_to_latlng",
    "cell_to_latlng_vec",
    "cell_resolution",
    "pack_cell",
    "unpack_cell",
    "is_valid_cell",
    "grid_disk",
    "grid_ring",
    "grid_distance",
    "grid_distance_vec",
    "cells_to_axial_vec",
    "grid_neighbors",
    "cells_within_radius",
    "cells_within_radius_vec",
    "cell_boundary",
    "cell_to_parent",
    "cell_to_children",
    "cell_to_center_child",
]

MAX_RESOLUTION = 15

# Edge length at resolution 0, chosen so resolution 8 has edge ~461 m and
# area ~0.55 km^2, matching H3's published resolution table (H3 res-8 edge
# length is 461.354 m).
_EDGE0_M = 461.354684 * math.sqrt(7.0) ** 8

_SQRT3 = math.sqrt(3.0)
_COORD_BITS = 30
_COORD_OFFSET = 1 << (_COORD_BITS - 1)
_COORD_MASK = (1 << _COORD_BITS) - 1


def edge_length_m(res: int) -> float:
    """Edge (circumradius) length in metres of cells at a resolution.

    >>> 400 < edge_length_m(8) < 500
    True
    """
    _check_res(res)
    return _EDGE0_M / math.sqrt(7.0) ** res


def cell_area_km2(res: int) -> float:
    """Area in km^2 of a cell at a resolution (exact for a regular hexagon).

    >>> 0.4 < cell_area_km2(8) < 0.7
    True
    """
    a = edge_length_m(res)
    return (3.0 * _SQRT3 / 2.0) * a * a / 1e6


def _check_res(res: int) -> int:
    if not isinstance(res, int) or not 0 <= res <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be an int in [0, {MAX_RESOLUTION}], got {res!r}")
    return res


#: Central meridian of the projection (degrees): centre of CONUS.
CENTRAL_MERIDIAN_DEG = -98.0


def _wrap_degrees(deg: float) -> float:
    """Wrap an angle in degrees to [-180, 180)."""
    return (deg + 180.0) % 360.0 - 180.0


def _project(lat: float, lng: float) -> tuple[float, float]:
    """Sinusoidal projection: equal-area (x, y) in metres."""
    phi = math.radians(lat)
    lmb = math.radians(_wrap_degrees(lng - CENTRAL_MERIDIAN_DEG))
    return EARTH_RADIUS_M * lmb * math.cos(phi), EARTH_RADIUS_M * phi


def _unproject(x: float, y: float) -> tuple[float, float]:
    """Inverse sinusoidal projection back to (lat, lng) degrees."""
    phi = y / EARTH_RADIUS_M
    lat = math.degrees(phi)
    coslat = math.cos(phi)
    if abs(coslat) < 1e-12:
        return (90.0 if lat > 0 else -90.0), 0.0
    lng = _wrap_degrees(math.degrees(x / (EARTH_RADIUS_M * coslat)) + CENTRAL_MERIDIAN_DEG)
    # Clamp: cells whose centres fall just past the antimeridian in projected
    # space still need a representable longitude.
    return max(-90.0, min(90.0, lat)), max(-180.0, min(180.0, lng))


def _axial_to_xy(q: int, r: int, size: float) -> tuple[float, float]:
    """Centre of the pointy-top hexagon at axial (q, r)."""
    x = size * _SQRT3 * (q + r / 2.0)
    y = size * 1.5 * r
    return x, y


def _xy_to_axial(x: float, y: float, size: float) -> tuple[int, int]:
    """Containing hexagon of a projected point, via cube rounding."""
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    return _cube_round(qf, rf)


def _cube_round(qf: float, rf: float) -> tuple[int, int]:
    sf = -qf - rf
    q, r, s = round(qf), round(rf), round(sf)
    dq, dr, ds = abs(q - qf), abs(r - rf), abs(s - sf)
    if dq > dr and dq > ds:
        q = -r - s
    elif dr > ds:
        r = -q - s
    return int(q), int(r)


def pack_cell(res: int, q: int, r: int) -> int:
    """Pack (resolution, axial q, axial r) into a 64-bit cell id."""
    _check_res(res)
    if not -_COORD_OFFSET <= q < _COORD_OFFSET or not -_COORD_OFFSET <= r < _COORD_OFFSET:
        raise ValueError(f"axial coordinate out of range: q={q}, r={r}")
    return (res << (2 * _COORD_BITS)) | ((q + _COORD_OFFSET) << _COORD_BITS) | (
        r + _COORD_OFFSET
    )


def unpack_cell(cell: int) -> tuple[int, int, int]:
    """Inverse of :func:`pack_cell`: return (resolution, q, r)."""
    res = cell >> (2 * _COORD_BITS)
    q = ((cell >> _COORD_BITS) & _COORD_MASK) - _COORD_OFFSET
    r = (cell & _COORD_MASK) - _COORD_OFFSET
    _check_res(res)
    return res, q, r


def is_valid_cell(cell: int) -> bool:
    """Whether an integer is a structurally valid cell id."""
    if not isinstance(cell, int) or cell < 0:
        return False
    try:
        res, q, r = unpack_cell(cell)
    except ValueError:
        return False
    # The axial coordinates must correspond to a point on the projected globe.
    size = edge_length_m(res)
    x, y = _axial_to_xy(q, r, size)
    return abs(y) <= EARTH_RADIUS_M * math.pi / 2 + size * 2


def latlng_to_cell(lat: float, lng: float, res: int) -> int:
    """Cell id containing a (lat, lng) point at the given resolution.

    >>> cell = latlng_to_cell(40.0, -100.0, 8)
    >>> cell_resolution(cell)
    8
    """
    check_latitude(lat)
    check_longitude(lng)
    _check_res(res)
    x, y = _project(lat, lng)
    q, r = _xy_to_axial(x, y, edge_length_m(res))
    return pack_cell(res, q, r)


def cell_to_latlng(cell: int) -> tuple[float, float]:
    """Centroid (lat, lng) in degrees of a cell."""
    res, q, r = unpack_cell(cell)
    x, y = _axial_to_xy(q, r, edge_length_m(res))
    return _unproject(x, y)


def cell_resolution(cell: int) -> int:
    """Resolution level encoded in a cell id."""
    return unpack_cell(cell)[0]


def latlng_to_cell_vec(lats: np.ndarray, lngs: np.ndarray, res: int) -> np.ndarray:
    """Vectorized :func:`latlng_to_cell`; returns a uint64 array.

    Values equal the scalar function's output element-wise (cell ids exceed
    the int64 range at fine resolutions, hence uint64), and so does
    validation: a non-finite or out-of-range coordinate raises the
    ``ValueError`` the scalar function raises for the first such point.
    """
    _check_res(res)
    lats = np.asarray(lats, dtype=np.float64)
    lngs = np.asarray(lngs, dtype=np.float64)
    _check_points(lats, lngs)
    phi = np.radians(lats)
    dl = (lngs - CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0
    x = EARTH_RADIUS_M * np.radians(dl) * np.cos(phi)
    y = EARTH_RADIUS_M * phi
    size = edge_length_m(res)
    qf = (_SQRT3 / 3.0 * x - y / 3.0) / size
    rf = (2.0 / 3.0 * y) / size
    sf = -qf - rf
    q = np.round(qf)
    r = np.round(rf)
    s = np.round(sf)
    dq, dr, ds = np.abs(q - qf), np.abs(r - rf), np.abs(s - sf)
    fix_q = (dq > dr) & (dq > ds)
    fix_r = ~fix_q & (dr > ds)
    q[fix_q] = -r[fix_q] - s[fix_q]
    r[fix_r] = -q[fix_r] - s[fix_r]
    return _pack_vec(res, q.astype(np.int64), r.astype(np.int64))


def cells_to_axial_vec(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`unpack_cell`: (res, q, r) int64 arrays."""
    cells = np.asarray(cells, dtype=np.uint64)
    res = (cells >> np.uint64(2 * _COORD_BITS)).astype(np.int64)
    q = ((cells >> np.uint64(_COORD_BITS)) & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    r = (cells & np.uint64(_COORD_MASK)).astype(np.int64) - _COORD_OFFSET
    return res, q, r


def grid_distance_vec(cells: np.ndarray, other: int) -> np.ndarray:
    """Hex distance from each cell in an array to one reference cell."""
    _, q, r = cells_to_axial_vec(cells)
    res_o, qo, ro = unpack_cell(int(other))
    dq, dr = q - qo, r - ro
    return (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2


def cell_to_latlng_vec(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`cell_to_latlng` for a uint64 cell array."""
    cells = np.asarray(cells, dtype=np.uint64)
    res, q, r = cells_to_axial_vec(cells)
    if cells.size and not (res == res.flat[0]).all():
        raise ValueError("all cells must share one resolution")
    if cells.size == 0:
        return np.empty(0), np.empty(0)
    return _axial_to_latlng_vec(q, r, edge_length_m(int(res.flat[0])))


def _axial_to_latlng_vec(
    q: np.ndarray, r: np.ndarray, size: float
) -> tuple[np.ndarray, np.ndarray]:
    """Centroids of axial cells: :func:`_axial_to_xy` + :func:`_unproject`
    step for step, pole and clamp cases included."""
    x = size * _SQRT3 * (q + r / 2.0)
    y = size * 1.5 * r
    phi = y / EARTH_RADIUS_M
    lat = np.degrees(phi)
    coslat = np.cos(phi)
    lng = np.degrees(x / (EARTH_RADIUS_M * coslat))
    lng = (lng + CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0
    pole = np.abs(coslat) < 1e-12
    if pole.any():
        lat = np.where(pole, np.where(lat > 0, 90.0, -90.0), lat)
        lng = np.where(pole, 0.0, lng)
    return np.clip(lat, -90.0, 90.0), np.clip(lng, -180.0, 180.0)


def grid_neighbors(cell: int) -> list[int]:
    """The six cells sharing an edge with ``cell``."""
    res, q, r = unpack_cell(cell)
    deltas = ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))
    return [pack_cell(res, q + dq, r + dr) for dq, dr in deltas]


def grid_ring(cell: int, k: int) -> list[int]:
    """Cells at exactly hex-distance ``k`` (the "hollow ring")."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if k == 0:
        return [cell]
    res, q, r = unpack_cell(cell)
    results = []
    # Walk the ring: start k steps in axial direction (-1, 0), then walk k
    # steps along each of the six sides in cube-direction order.
    cq, cr = q - k, r
    directions = ((1, -1), (1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1))
    for dq, dr in directions:
        for _ in range(k):
            results.append(pack_cell(res, cq, cr))
            cq, cr = cq + dq, cr + dr
    return results


def grid_disk(cell: int, k: int) -> list[int]:
    """All cells within hex-distance ``k`` of ``cell`` (inclusive).

    >>> len(grid_disk(latlng_to_cell(40, -100, 8), 2))
    19
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    res, q, r = unpack_cell(cell)
    cells = []
    for dq in range(-k, k + 1):
        for dr in range(max(-k, -dq - k), min(k, -dq + k) + 1):
            cells.append(pack_cell(res, q + dq, r + dr))
    return cells


def grid_distance(cell_a: int, cell_b: int) -> int:
    """Hex (grid-steps) distance between two cells of equal resolution."""
    res_a, qa, ra = unpack_cell(cell_a)
    res_b, qb, rb = unpack_cell(cell_b)
    if res_a != res_b:
        raise ValueError(f"cells have different resolutions: {res_a} != {res_b}")
    dq, dr = qa - qb, ra - rb
    return int((abs(dq) + abs(dr) + abs(dq + dr)) // 2)


def _disk_k(lat: float, lng: float, radius_m: float, res: int) -> int:
    """Hex-disk size whose cells cover every centroid within ``radius_m``.

    Adjacent centre spacing is sqrt(3) * edge in the projected plane.  The
    sinusoidal projection shears shapes away from the central meridian by
    up to sqrt(1 + (dlmb * sin(phi))^2); the disk is widened by that factor
    (plus one ring for the point's offset inside its own cell), and callers
    then filter by true geodesic distance.
    """
    dlmb = math.radians(_wrap_degrees(lng - CENTRAL_MERIDIAN_DEG))
    shear = math.sqrt(1.0 + (dlmb * math.sin(math.radians(lat))) ** 2)
    spacing = _SQRT3 * edge_length_m(res)
    return int(math.ceil(shear * radius_m / spacing)) + 1


def cells_within_radius(lat: float, lng: float, radius_m: float, res: int) -> list[int]:
    """Cells whose centroid lies within a geodesic radius of a point.

    This is the primitive the MLab localization step uses: "all hexes within
    the accuracy radius recorded in the IP geolocation of the test".
    :func:`cells_within_radius_vec` answers the same query for many points.
    """
    check_latitude(lat)
    check_longitude(lng)
    check_positive(radius_m, "radius_m")
    _check_res(res)
    center = latlng_to_cell(lat, lng, res)
    out = []
    for cell in grid_disk(center, _disk_k(lat, lng, radius_m, res)):
        clat, clng = cell_to_latlng(cell)
        if haversine_m(lat, lng, clat, clng) <= radius_m:
            out.append(cell)
    return out


#: Cap on (points x disk cells) handled per numpy block by
#: :func:`cells_within_radius_vec`, so its memory stays bounded (a few
#: MB of temporaries) whatever the number of points or the disk size.
_RADIUS_BLOCK = 1 << 17

#: Distances within this relative band of the radius are re-decided by
#: the scalar :func:`cell_to_latlng` + :func:`haversine_m`.  numpy's
#: transcendental functions may differ from libm's by a few ulps; the
#: band is orders of magnitude wider than that, so every boundary call
#: is made exactly as :func:`cells_within_radius` makes it.
_RADIUS_RECHECK_REL = 1e-6


def _check_points(lats, lngs, radii=None) -> None:
    """Raise the scalar validators' ``ValueError`` for the first bad point."""
    ok = (np.abs(lats) <= 90.0) & (np.abs(lngs) <= 180.0)
    if radii is not None:
        ok &= radii > 0.0
    if not ok.all():
        i = int(np.argmin(ok.ravel()))
        check_latitude(lats.ravel()[i])
        check_longitude(lngs.ravel()[i])
        check_positive(radii.ravel()[i], "radius_m")


def _pack_vec(res: int, q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Vectorized :func:`pack_cell` (no range check)."""
    return (
        (np.uint64(res) << np.uint64(2 * _COORD_BITS))
        | ((q + _COORD_OFFSET).astype(np.uint64) << np.uint64(_COORD_BITS))
        | (r + _COORD_OFFSET).astype(np.uint64)
    )


def cells_within_radius_vec(
    lats: np.ndarray,
    lngs: np.ndarray,
    radii_m: np.ndarray,
    res: int,
    among: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched :func:`cells_within_radius`, restricted to a set of cells.

    ``among`` is a sorted, unique uint64 array of cells.  Returns
    ``(point, cell)``: int64 positions into the inputs and uint64 cells,
    one row per pair with ``cell`` in both ``among`` and
    ``cells_within_radius(lats[point], lngs[point], radii_m[point], res)``
    — exactly that set: each disk has the scalar disk's size, and every
    centroid within ``_RADIUS_RECHECK_REL`` of the radius is decided by
    the scalar distance.  An invalid point raises the scalar function's
    ``ValueError`` for the first such point.  Rows come grouped by disk
    size, not by point.

    A disk column (fixed axial ``q``) is one contiguous run of packed
    cell ids, so each column is two binary searches into ``among``, and
    distances are computed only for the ``among`` cells inside a disk.
    """
    lats = np.asarray(lats, dtype=np.float64).ravel()
    lngs = np.asarray(lngs, dtype=np.float64).ravel()
    radii = np.asarray(radii_m, dtype=np.float64).ravel()
    among = np.asarray(among, dtype=np.uint64)
    _check_points(lats, lngs, radii)
    _check_res(res)
    if lats.size == 0 or among.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    _, q0, r0 = cells_to_axial_vec(latlng_to_cell_vec(lats, lngs, res))
    size = edge_length_m(res)
    # _disk_k, vectorized; a span within float noise of an integer takes
    # the scalar ceil so the disk is the scalar disk.
    dlmb = np.radians((lngs - CENTRAL_MERIDIAN_DEG + 180.0) % 360.0 - 180.0)
    shear = np.sqrt(1.0 + (dlmb * np.sin(np.radians(lats))) ** 2)
    span = shear * radii / (_SQRT3 * size)
    k = np.ceil(span).astype(np.int64) + 1
    tie = np.abs(span - np.round(span)) <= 1e-9 * np.maximum(span, 1.0)
    for i in np.flatnonzero(tie):
        k[i] = _disk_k(float(lats[i]), float(lngs[i]), float(radii[i]), res)
    _, among_q, among_r = cells_to_axial_vec(among)
    among_lat, among_lng = _axial_to_latlng_vec(among_q, among_r, size)

    points, found = [], []
    for disk in np.unique(k).tolist():
        members = np.flatnonzero(k == disk)
        # Column dq of the disk spans dr in [dr_lo, dr_hi] (as grid_disk).
        dq = np.arange(-disk, disk + 1)
        dr_lo = np.maximum(-disk, -dq - disk)
        dr_hi = np.minimum(disk, -dq + disk)
        step = max(1, _RADIUS_BLOCK // (3 * disk * (disk + 1) + 1))
        for lo in range(0, members.size, step):
            pts = members[lo : lo + step]
            q = q0[pts, None] + dq
            first = np.searchsorted(among, _pack_vec(res, q, r0[pts, None] + dr_lo))
            last = np.searchsorted(
                among, _pack_vec(res, q, r0[pts, None] + dr_hi), side="right"
            )
            count = (last - first).ravel()
            point = np.repeat(np.repeat(pts, dq.size), count)
            idx = expand_ranges(first.ravel(), count)
            dist = haversine_m_vec(
                lats[point], lngs[point], among_lat[idx], among_lng[idx]
            )
            radius = radii[point]
            inside = dist <= radius
            near = np.abs(dist - radius) <= _RADIUS_RECHECK_REL * radius
            for j in np.flatnonzero(near):
                p = point[j]
                clat, clng = cell_to_latlng(int(among[idx[j]]))
                inside[j] = haversine_m(
                    float(lats[p]), float(lngs[p]), clat, clng
                ) <= float(radii[p])
            points.append(point[inside])
            found.append(idx[inside])
    return np.concatenate(points), among[np.concatenate(found)]


def cell_boundary(cell: int) -> list[tuple[float, float]]:
    """The six (lat, lng) vertices of a cell, counter-clockwise."""
    res, q, r = unpack_cell(cell)
    size = edge_length_m(res)
    cx, cy = _axial_to_xy(q, r, size)
    vertices = []
    for i in range(6):
        # Pointy-top hexagon: vertices at 30, 90, ..., 330 degrees.
        angle = math.pi / 180.0 * (60.0 * i + 30.0)
        vx = cx + size * math.cos(angle)
        vy = cy + size * math.sin(angle)
        vertices.append(_unproject(vx, vy))
    return vertices


def cell_to_parent(cell: int, parent_res: int) -> int:
    """Coarser-resolution cell containing this cell's centroid.

    Like H3's aperture-7 hierarchy, containment is centroid-based: a child's
    area may straddle two parents, in which case the parent owning the
    child's centre wins.
    """
    res = cell_resolution(cell)
    _check_res(parent_res)
    if parent_res > res:
        raise ValueError(f"parent_res {parent_res} is finer than cell resolution {res}")
    if parent_res == res:
        return cell
    lat, lng = cell_to_latlng(cell)
    return latlng_to_cell(lat, lng, parent_res)


def cell_to_center_child(cell: int, child_res: int) -> int:
    """Finest-resolution cell at the centre of this cell."""
    res = cell_resolution(cell)
    _check_res(child_res)
    if child_res < res:
        raise ValueError(f"child_res {child_res} is coarser than cell resolution {res}")
    lat, lng = cell_to_latlng(cell)
    return latlng_to_cell(lat, lng, child_res)


def cell_to_children(cell: int, child_res: int) -> list[int]:
    """Finer-resolution cells whose centroids fall inside this cell.

    With aperture-sqrt(7) scaling a parent covers ~7**(child_res - res)
    children on average.
    """
    res = cell_resolution(cell)
    _check_res(child_res)
    if child_res < res:
        raise ValueError(f"child_res {child_res} is coarser than cell resolution {res}")
    if child_res == res:
        return [cell]
    # Over-cover with a disk around the centre child, then keep children whose
    # centroids map back to this cell.
    center_child = cell_to_center_child(cell, child_res)
    ratio = edge_length_m(res) / edge_length_m(child_res)
    k = int(math.ceil(ratio)) + 1
    return [c for c in grid_disk(center_child, k) if cell_to_parent(c, res) == cell]
