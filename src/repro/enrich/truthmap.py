"""Tile-level measured-truth aggregates per (provider, cell).

The truth map is the enrichment layer's ground surface.  It reads the
attribution pass the MLab localization already made
(:func:`repro.dataset.likely_served.attribute_mlab_tests` — ASN
crosswalk union, accuracy-radius cap, intersection with the provider's
claimed footprint — kept on the :class:`MLabLocalization` as ``hits``),
so a tile's ``n_tests`` is the localization's test count by
construction.  Each tile aggregates its tests' measured throughputs
*per direction*, with the semantics of
:func:`repro.speedtests.aggregate.directional_summary` reproduced
bitwise by grouped array operations: median and p90 measured
download/upload over the finite, positive samples, with an unmeasured
direction coded as ``NaN`` — never ``0.0`` (a zero measurement and a
missing measurement mean opposite things to an overstatement ratio).

The result is a frozen struct-of-arrays table in sorted
(provider, cell) order with a lazy two-column composite index, persisted
as a :mod:`repro.utils.persist` bundle like every other artifact: raw
``.npy`` files — one per column — under a manifest committed last, so a
saved bundle loads read-only and zero-copy via
``numpy.load(mmap_mode="r")`` alongside the ``repro.store`` shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dataset.likely_served import MLabLocalization

# Unused since the truth map reads the localization's attribution pass.
# It stays importable here because the end-to-end benchmark's layer table
# (e2ebench/layers.py) wraps ``repro.enrich.truthmap.cells_within_radius``
# by name as its ``geo.radius`` span, which now counts 0 calls.
from repro.geo import cells_within_radius  # noqa: F401
from repro.obs.metrics import get_metrics
from repro.speedtests.aggregate import _P90
from repro.speedtests.mlab import MLabTest
from repro.utils.indexing import MultiColumnIndex
from repro.utils.persist import read_bundle, write_bundle

__all__ = ["TruthMap", "build_truth_map"]

_KIND = "truth-map"

#: Manifest major version; bump on layout changes.
_SCHEMA = 2

_INDEX_PREFIX = "index__"

#: Name and dtype of every persisted truth-map column, in order.
_COLUMNS = (
    ("provider_id", np.int64),
    ("cell", np.uint64),
    ("median_down", np.float64),
    ("p90_down", np.float64),
    ("median_up", np.float64),
    ("p90_up", np.float64),
    ("n_tests", np.int64),
)


@dataclass(frozen=True)
class TruthMap:
    """Measured-speed aggregates, one row per (provider, cell) tile.

    Parallel arrays in ascending (provider_id, cell) order; the speed
    columns carry ``NaN`` for directions with no valid measurement.
    ``positions`` maps arrays of (provider, cell) pairs to row positions
    (``-1`` = no tile) through a lazily-built composite index, so the
    feature path gathers a whole batch's truth in one pass.
    """

    provider_id: np.ndarray  # int64
    cell: np.ndarray  # uint64
    median_down: np.ndarray  # float64, NaN = direction unmeasured
    p90_down: np.ndarray  # float64
    median_up: np.ndarray  # float64
    p90_up: np.ndarray  # float64
    n_tests: np.ndarray  # int64 — attributed tests localized to the tile
    _index: MultiColumnIndex | None = field(
        default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return int(self.provider_id.size)

    @property
    def index(self) -> MultiColumnIndex:
        """The (provider, cell) composite index, built on first use."""
        if self._index is None:
            object.__setattr__(
                self,
                "_index",
                MultiColumnIndex(self.provider_id, self.cell),
            )
        return self._index

    def positions(self, provider_id, cell) -> np.ndarray:
        """Tile row per (provider, cell) query; ``-1`` marks no tile."""
        return self.index.positions(
            np.asarray(provider_id, dtype=np.int64),
            np.asarray(cell, dtype=np.uint64),
        )

    def export_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name, _ in _COLUMNS}

    @classmethod
    def from_arrays(
        cls, arrays: dict, index: MultiColumnIndex | None = None
    ) -> "TruthMap":
        fields = {
            name: np.ascontiguousarray(np.asarray(arrays[name]), dtype=dtype)
            for name, dtype in _COLUMNS
        }
        n = fields["provider_id"].size
        for name, _ in _COLUMNS:
            if fields[name].ndim != 1 or fields[name].size != n:
                raise ValueError(
                    f"truth-map column {name!r} must be 1-D with {n} rows, "
                    f"got shape {fields[name].shape}"
                )
        return cls(**fields, _index=index)

    # -- persistence ---------------------------------------------------------

    def save(self, root: str) -> str:
        """Write the bundle under ``root`` (crash-safe commit).

        One raw ``.npy`` per column plus the persisted composite index
        in a fresh :func:`~repro.utils.persist.write_bundle` generation,
        so an interrupted save never invalidates a previously committed
        bundle.
        """
        arrays = dict(self.export_arrays())
        for key, arr in self.index.export_state().items():
            arrays[f"{_INDEX_PREFIX}{key}"] = arr
        return write_bundle(root, _KIND, _SCHEMA, arrays, {"n_rows": len(self)})

    @classmethod
    def load(cls, root: str, mmap: bool = True) -> "TruthMap":
        """Open a saved bundle; ``mmap=True`` maps every column read-only.

        The persisted composite index loads the same way, so lookups on
        a national-scale map touch only the pages a query needs.
        """
        manifest, arrays = read_bundle(root, _KIND, _SCHEMA, mmap=mmap)
        index_state = {
            key[len(_INDEX_PREFIX):]: arrays.pop(key)
            for key in list(arrays)
            if key.startswith(_INDEX_PREFIX)
        }
        missing = {name for name, _ in _COLUMNS} - set(arrays)
        if missing:
            raise ValueError(f"truth map is missing columns {sorted(missing)}")
        index = (
            MultiColumnIndex.from_state(index_state) if index_state else None
        )
        out = cls.from_arrays(arrays, index=index)
        if int(manifest["n_rows"]) != len(out):
            raise ValueError(
                f"truth-map row count {len(out)} disagrees with manifest "
                f"({manifest['n_rows']})"
            )
        return out


def _median_p90(tile: np.ndarray, samples: np.ndarray, n_tiles: int):
    """Per-tile median and linear p90 of the finite, positive samples.

    Bitwise equal to ``np.median`` / ``np.quantile(..., 0.9)`` over each
    tile's valid samples (the arithmetic of numpy's even-length mean and
    linear interpolation, step for step); ``NaN`` where a tile has none.
    """
    valid = np.isfinite(samples) & (samples > 0.0)
    tile, samples = tile[valid], samples[valid]
    order = np.lexsort((samples, tile))
    values = samples[order]
    n = np.bincount(tile, minlength=n_tiles)
    start = np.cumsum(n) - n
    median = np.full(n_tiles, np.nan)
    p90 = np.full(n_tiles, np.nan)
    has = np.flatnonzero(n)
    s, m = start[has], n[has]

    mid = s + m // 2
    median[has] = values[mid]
    even = m % 2 == 0
    median[has[even]] = (values[mid[even] - 1] + values[mid[even]]) / 2.0

    virtual = (m - 1) * _P90
    below = np.floor(virtual)
    gamma = virtual - below
    lo = s + below.astype(np.int64)
    hi = np.minimum(lo + 1, s + m - 1)
    a, b = values[lo], values[hi]
    diff = b - a
    p90[has] = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return median, p90


def build_truth_map(
    tests: list[MLabTest], localization: MLabLocalization
) -> TruthMap:
    """Aggregate attributed MLab tests into per-(provider, cell) tiles.

    ``localization`` must come from
    :func:`repro.dataset.likely_served.localize_mlab_tests` over the same
    ``tests``: its ``hits`` are the attribution pass this aggregates, so
    the tiles are exactly the localization's (provider, cell) keys and
    ``n_tests`` its counts.  Each tile's measured throughputs aggregate
    per direction: an unmeasured direction is ``NaN``, never ``0.0``.
    A localization without hits (one restored from a feature-table
    bundle, which persists counts only) raises ``ValueError``.
    """
    hits = localization.hits
    if hits is None:
        raise ValueError(
            "localization carries no attribution hits (a feature-table "
            "bundle persists counts only); build the truth map from "
            "localize_mlab_tests over the original MLab tests"
        )
    with get_metrics().histogram("enrich_build_seconds", stage="truthmap").time():
        n = len(tests)
        down = np.fromiter((t.download_mbps for t in tests), np.float64, count=n)
        up = np.fromiter((t.upload_mbps for t in tests), np.float64, count=n)
        starts, n_tests = hits.tiles()
        n_tiles = starts.size
        tile = np.repeat(np.arange(n_tiles), n_tests)
        median_down, p90_down = _median_p90(tile, down[hits.test_index], n_tiles)
        median_up, p90_up = _median_p90(tile, up[hits.test_index], n_tiles)
        return TruthMap(
            provider_id=hits.provider_id[starts],
            cell=hits.cell[starts],
            median_down=median_down,
            p90_down=p90_down,
            median_up=median_up,
            p90_up=p90_up,
            n_tests=n_tests,
        )
