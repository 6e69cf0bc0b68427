"""Inferring likely served locations from crowdsourced tests (paper §4.2).

Two crowdsourced signals combine into synthetic "known good" claims:

1. **Ookla service coverage score** — unique testing devices per BSL in a
   hex cell.  A score >= 1 means the cell saw at least one device per
   serviceable location: service is clearly available there from *some*
   provider (Ookla has no provider attribution).
2. **MLab provider localization** — each NDT7 test is attributed to a
   provider through the ASN crosswalk, then localized to the hexes within
   its geolocation accuracy radius (tests with radius > 20 km are
   dropped), intersected with the provider's claimed NBM footprint.
   :func:`attribute_mlab_tests` makes that pass once, batched over all
   tests; the localization and the enrichment truth map both read it.

A claim (provider, cell, technology) is *likely served* when the cell's
coverage score clears the threshold, an attributed MLab test could have
run in the cell from that provider's network, and the provider claims the
cell in the NBM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.asn.matching import CrosswalkResult
from repro.fcc.bdc import AvailabilityTable, ClaimKey
from repro.fcc.fabric import Fabric

# Unused since attribution is batched.  It stays importable here because
# the end-to-end benchmark's layer table (e2ebench/layers.py) wraps
# ``repro.dataset.likely_served.cells_within_radius`` by name as its
# ``geo.radius`` span, which now counts 0 calls.
from repro.geo import cells_within_radius  # noqa: F401
from repro.geo.hexgrid import cells_within_radius_vec
from repro.geo.reproject import HexAggregate
from repro.speedtests.mlab import MLabTest
from repro.utils.indexing import MultiColumnIndex, expand_ranges

__all__ = [
    "service_coverage_scores",
    "MLabHits",
    "MLabLocalization",
    "attribute_mlab_tests",
    "localize_mlab_tests",
    "likely_served_claims",
    "MAX_GEOLOCATION_RADIUS_M",
]

#: Paper §4.2.2: tests with accuracy radius above 20 km are excluded.
MAX_GEOLOCATION_RADIUS_M = 20_000.0


def service_coverage_scores(
    fabric: Fabric, hex_aggregates: dict[int, HexAggregate]
) -> dict[int, float]:
    """Ookla unique devices per BSL for every occupied cell.

    Cells with Ookla data but no Fabric locations are skipped (nothing to
    serve); cells with locations but no tests score 0.
    """
    scores: dict[int, float] = {}
    for cell in fabric.occupied_cells:
        n_bsl = fabric.bsl_count_in_cell(cell)
        agg = hex_aggregates.get(cell)
        devices = agg.devices if agg is not None else 0
        scores[cell] = devices / n_bsl if n_bsl else 0.0
    return scores


@dataclass(frozen=True)
class MLabHits:
    """One attribution pass over an MLab test stream, as flat arrays.

    One row per (test, provider, cell) hit — a test attributed to the
    provider and localized to a cell in its claimed footprint — sorted
    by (provider_id, cell, test_index), so each (provider, cell) tile's
    hits are one contiguous run.
    """

    test_index: np.ndarray  # int64 — position in the test list
    provider_id: np.ndarray  # int64
    cell: np.ndarray  # uint64
    #: Tests dropped for exceeding the radius cap.
    n_dropped_radius: int
    #: Tests dropped because their ASN matched no provider.
    n_dropped_unattributed: int

    def tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """First row and hit count of each (provider, cell) tile, ascending."""
        new = np.ones(self.cell.size, dtype=bool)
        new[1:] = (self.provider_id[1:] != self.provider_id[:-1]) | (
            self.cell[1:] != self.cell[:-1]
        )
        starts = np.flatnonzero(new)
        return starts, np.diff(np.append(starts, self.cell.size))


def attribute_mlab_tests(
    tests: list[MLabTest],
    crosswalk: CrosswalkResult,
    claimed_cells_by_provider: dict[int, set[int]],
    res: int = 8,
    max_radius_m: float = MAX_GEOLOCATION_RADIUS_M,
) -> MLabHits:
    """Attribute and localize every MLab test in one batched pass (§4.2.2).

    Filters apply in order: the accuracy-radius cap, then ASN attribution
    through ``crosswalk.union`` (a shared ASN attributes one test to
    several providers).  Each remaining test's candidate hexes —
    centroids within its accuracy radius, computed for all tests at once
    by :func:`repro.geo.hexgrid.cells_within_radius_vec` — are joined
    with the claimed footprint of every provider it maps to.  A kept test
    with an invalid coordinate or a radius <= 0 raises the ``ValueError``
    of :func:`repro.geo.cells_within_radius`.
    """
    n = len(tests)
    lat = np.fromiter((t.lat for t in tests), dtype=np.float64, count=n)
    lng = np.fromiter((t.lng for t in tests), dtype=np.float64, count=n)
    radius = np.fromiter(
        (t.accuracy_radius_m for t in tests), dtype=np.float64, count=n
    )
    asn = np.fromiter((t.asn for t in tests), dtype=np.int64, count=n)

    # Sorted (asn, provider) pairs: a test's providers are the run of
    # pairs matching its ASN.
    pairs = sorted(
        {(a, pid) for pid, asns in crosswalk.union.items() for a in asns}
    )
    pair_asn = np.array([a for a, _ in pairs], dtype=np.int64)
    pair_pid = np.array([pid for _, pid in pairs], dtype=np.int64)
    first = np.searchsorted(pair_asn, asn, side="left")
    n_providers = np.searchsorted(pair_asn, asn, side="right") - first

    over_cap = radius > max_radius_m
    unattributed = ~over_cap & (n_providers == 0)
    kept = np.flatnonzero(~over_cap & ~unattributed)

    # Claimed footprints of the crosswalk's providers: localization only
    # needs the candidate hexes inside their union.
    fp_pid, fp_cell = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint64)]
    for pid in np.unique(pair_pid).tolist():
        claimed = claimed_cells_by_provider.get(pid) or ()
        fp_pid.append(np.full(len(claimed), pid, dtype=np.int64))
        fp_cell.append(np.fromiter(claimed, dtype=np.uint64, count=len(claimed)))
    fp_pid, fp_cell = np.concatenate(fp_pid), np.concatenate(fp_cell)
    point, cell = cells_within_radius_vec(
        lat[kept], lng[kept], radius[kept], res, among=np.unique(fp_cell)
    )
    test_index = kept[point]

    # One row per (test, cell, attributed provider); keep the rows whose
    # provider claims the cell.
    reps = n_providers[test_index]
    provider_id = pair_pid[expand_ranges(first[test_index], reps)]
    test_index, cell = np.repeat(test_index, reps), np.repeat(cell, reps)
    claimed_row = MultiColumnIndex(fp_pid, fp_cell).positions(provider_id, cell) >= 0
    test_index = test_index[claimed_row]
    provider_id = provider_id[claimed_row]
    cell = cell[claimed_row]

    order = np.lexsort((test_index, cell, provider_id))
    return MLabHits(
        test_index=test_index[order],
        provider_id=provider_id[order],
        cell=cell[order],
        n_dropped_radius=int(over_cap.sum()),
        n_dropped_unattributed=int(unattributed.sum()),
    )


@dataclass
class MLabLocalization:
    """Per-provider hex localizations of attributed MLab tests."""

    #: provider_id -> set of cells an attributed test may have run in.
    cells_by_provider: dict[int, set[int]]
    #: (provider_id, cell) -> number of attributed tests localized there.
    test_counts: dict[tuple[int, int], int]
    #: Tests dropped for exceeding the radius cap.
    n_dropped_radius: int
    #: Tests dropped because their ASN matched no provider.
    n_dropped_unattributed: int
    #: The attribution pass the counts came from; ``None`` when restored
    #: from a feature-table bundle, which persists counts only.
    hits: MLabHits | None = field(default=None, repr=False, compare=False)
    #: Lazily-built columnar (provider, cell) -> count index.
    _count_index: "MultiColumnIndex | None" = field(
        default=None, init=False, repr=False, compare=False
    )
    _count_values: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    def provider_test_count(self, provider_id: int, cell: int) -> int:
        return self.test_counts.get((provider_id, int(cell)), 0)

    def provider_test_counts(
        self, provider_ids: np.ndarray, cells: np.ndarray
    ) -> np.ndarray:
        """Attributed test count per (provider, cell) pair, vectorized.

        Element-wise equal to :meth:`provider_test_count`, but resolved
        through a lazily-built two-column index
        (:class:`repro.utils.indexing.MultiColumnIndex`) so batch feature
        building gathers all counts in one pass.
        """
        index, counts = self._count_columns()
        pos = index.positions(
            np.asarray(provider_ids, dtype=np.int64),
            np.asarray(cells, dtype=np.uint64),
        )
        out = np.zeros(pos.size, dtype=np.int64)
        found = pos >= 0
        out[found] = counts[pos[found]]
        return out

    def _count_columns(self) -> tuple[MultiColumnIndex, np.ndarray]:
        if self._count_index is None:
            if self.hits is not None:
                starts, counts = self.hits.tiles()
                pids = self.hits.provider_id[starts]
                cells = self.hits.cell[starts]
            else:
                n = len(self.test_counts)
                pids = np.empty(n, dtype=np.int64)
                cells = np.empty(n, dtype=np.uint64)
                counts = np.empty(n, dtype=np.int64)
                for i, ((pid, cell), count) in enumerate(self.test_counts.items()):
                    pids[i] = pid
                    cells[i] = cell
                    counts[i] = count
            self._count_index = MultiColumnIndex(pids, cells)
            self._count_values = counts
        return self._count_index, self._count_values


def localize_mlab_tests(
    tests: list[MLabTest],
    crosswalk: CrosswalkResult,
    claimed_cells_by_provider: dict[int, set[int]],
    res: int = 8,
    max_radius_m: float = MAX_GEOLOCATION_RADIUS_M,
) -> MLabLocalization:
    """Attribute and localize MLab tests (paper §4.2.2).

    Each test's candidate hexes (centroids within the accuracy radius) are
    intersected with the claimed footprint of every provider its ASN maps
    to.  Shared ASNs legitimately attribute one test to several providers.
    The per-tile counts and per-provider cell sets derive from one
    :func:`attribute_mlab_tests` pass, kept on the result as ``hits``.
    """
    hits = attribute_mlab_tests(
        tests, crosswalk, claimed_cells_by_provider, res, max_radius_m
    )
    starts, counts = hits.tiles()
    pids = hits.provider_id[starts].tolist()
    cells = hits.cell[starts].tolist()
    cells_by_provider: dict[int, set[int]] = {}
    for pid, cell in zip(pids, cells):
        cells_by_provider.setdefault(pid, set()).add(cell)
    return MLabLocalization(
        cells_by_provider=cells_by_provider,
        test_counts=dict(zip(zip(pids, cells), counts.tolist())),
        n_dropped_radius=hits.n_dropped_radius,
        n_dropped_unattributed=hits.n_dropped_unattributed,
        hits=hits,
    )


def likely_served_claims(
    table: AvailabilityTable,
    coverage_scores: dict[int, float],
    localization: MLabLocalization,
    threshold: float = 1.0,
) -> list[tuple[ClaimKey, float]]:
    """Candidate "known good" claims, sorted by descending coverage score.

    A claim qualifies when (a) its cell's Ookla coverage score is >= the
    threshold, and (b) an MLab test attributed to the claim's provider was
    localized to the cell.  Returns (claim, score) pairs.
    """
    out: list[tuple[ClaimKey, float]] = []
    for key in table.unique_claims():
        pid, cell, _tech = key
        score = coverage_scores.get(cell, 0.0)
        if score < threshold:
            continue
        provider_cells = localization.cells_by_provider.get(pid)
        if not provider_cells or cell not in provider_cells:
            continue
        out.append((key, score))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out
