"""National-shard claim store: per-state shards of ``ClaimColumns``.

The NBM's unit of release is the *state*: real BDC tooling downloads one
availability CSV per state and processes them slice by slice, and the
challenge-analysis literature works on the same per-state grain.  This
module splits the monolithic :class:`~repro.fcc.bdc.ClaimColumns`
parallel arrays into per-state (or grouped) shards that persist as raw
``.npy`` files — one file per column per shard — so a national-scale
store loads *read-only and zero-copy* via ``numpy.load(mmap_mode="r")``:
no column is paged in until something touches it.

Layout on disk: one :mod:`repro.utils.persist` bundle (crash-safe
generation + manifest commit, sha256 per file) whose array keys are::

    shards/<name>/<column>          the eight ClaimColumns columns
    shards/<name>/global_rows       monolithic row per shard row
    shards/<name>/index__<key>      persisted composite-key index
    shards/<name>/<extra>           caller payloads (e.g. margins)

The manifest adds per-shard row counts and states and the state->shard
routing map; ``verify_bundle`` re-hashes a saved bundle against it.

Equivalence contract (property-tested): every shard preserves the
monolithic lexicographic key order among its own rows and carries the
``global_rows`` scatter map, so :meth:`to_claims` reassembles the
original ``ClaimColumns`` bitwise and :meth:`positions` agrees with the
monolithic composite index on hits *and* misses.
"""

from __future__ import annotations

import numpy as np

from repro.fcc.bdc import ClaimColumns
from repro.fcc.states import STATES
from repro.obs.metrics import get_metrics
from repro.utils.indexing import MultiColumnIndex
from repro.utils.persist import MANIFEST_NAME, read_bundle, write_bundle


def _stage_timer(stage: str):
    """Shard split (per shard) / bundle write and load stage timer."""
    return get_metrics().histogram("shard_build_seconds", stage=stage).time()

__all__ = ["ShardedClaimColumns", "SHARD_MANIFEST_NAME"]

SHARD_MANIFEST_NAME = MANIFEST_NAME

_KIND = "sharded-claim-columns"

#: Manifest major version; bump on layout changes.
_SCHEMA = 2

_INDEX_PREFIX = "index__"

_STATE_ABBRS = tuple(s.abbr for s in STATES)


def _resolve_state_map(shards) -> dict[str, str]:
    """Normalize a shard layout spec into a full state->shard-name map.

    ``None``
        one shard per state, named by the lowercased abbreviation;
    ``int k``
        ``k`` shards named ``shard-00..`` with states dealt round-robin
        by state index (``k`` larger than the state count yields empty
        shards — a supported edge case);
    ``dict``
        explicit abbreviation->shard-name map (must cover every state).
    """
    if shards is None:
        return {abbr: abbr.lower() for abbr in _STATE_ABBRS}
    if isinstance(shards, int):
        if shards < 1:
            raise ValueError("shard count must be >= 1")
        width = max(2, len(str(shards - 1)))
        return {
            abbr: f"shard-{i % shards:0{width}d}"
            for i, abbr in enumerate(_STATE_ABBRS)
        }
    state_map = {str(k): str(v) for k, v in dict(shards).items()}
    missing = [a for a in _STATE_ABBRS if a not in state_map]
    if missing:
        raise ValueError(
            f"shard map must route every state; missing {missing[:5]}"
        )
    return state_map


class ShardedClaimColumns:
    """A ``ClaimColumns`` table partitioned into named per-state shards.

    Each shard is itself a :class:`~repro.fcc.bdc.ClaimColumns` (rows in
    monolithic relative order) plus a ``global_rows`` int64 array mapping
    shard rows back to monolithic rows.  Construct with
    :meth:`from_claims` (split an in-memory table) or :meth:`load`
    (memory-map a saved bundle).
    """

    def __init__(
        self,
        shards: dict[str, ClaimColumns],
        global_rows: dict[str, np.ndarray],
        state_to_shard: dict[str, str],
        n_rows: int,
        extra_arrays: dict[str, dict[str, np.ndarray]] | None = None,
    ):
        if set(shards) != set(global_rows):
            raise ValueError("shards and global_rows must share names")
        unknown = set(state_to_shard.values()) - set(shards)
        if unknown:
            raise ValueError(f"state map routes to unknown shards {unknown}")
        self._shards = dict(shards)
        self._global_rows = {
            name: np.asarray(rows, dtype=np.int64)
            for name, rows in global_rows.items()
        }
        self.state_to_shard = dict(state_to_shard)
        self._n_rows = int(n_rows)
        #: Per-shard caller payloads loaded from a bundle (e.g. margins).
        self.extra_arrays = extra_arrays or {}

    def __len__(self) -> int:
        return self._n_rows

    @property
    def shard_names(self) -> list[str]:
        return sorted(self._shards)

    def shard(self, name: str) -> ClaimColumns:
        return self._shards[name]

    def global_rows(self, name: str) -> np.ndarray:
        return self._global_rows[name]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_claims(
        cls, claims: ClaimColumns, shards=None
    ) -> "ShardedClaimColumns":
        """Partition a monolithic claim table by its per-row state.

        ``shards`` is a layout spec (see :func:`_resolve_state_map`).
        Row order within each shard is ascending monolithic row, so the
        monolithic lexicographic key order is preserved shard-locally.
        """
        state_map = _resolve_state_map(shards)
        names = sorted(set(state_map.values()))
        ordinal = {name: i for i, name in enumerate(names)}
        shard_of_state = np.array(
            [ordinal[state_map[a]] for a in _STATE_ABBRS], dtype=np.int64
        )
        shard_per_row = shard_of_state[claims.state_idx.astype(np.int64)]
        out_shards: dict[str, ClaimColumns] = {}
        out_rows: dict[str, np.ndarray] = {}
        for name in names:
            with _stage_timer("split"):
                rows = np.flatnonzero(shard_per_row == ordinal[name]).astype(
                    np.int64
                )
                out_shards[name] = claims.take(rows)
                out_rows[name] = rows
        return cls(out_shards, out_rows, state_map, len(claims))

    # -- monolithic views ----------------------------------------------------

    def to_claims(self) -> ClaimColumns:
        """Reassemble the monolithic table (bitwise) by scattering shards."""
        columns = {
            name: np.empty(self._n_rows, dtype=dtype)
            for name, dtype in ClaimColumns.EXPORT_FIELDS
        }
        for shard_name, shard in self._shards.items():
            rows = self._global_rows[shard_name]
            for name, _ in ClaimColumns.EXPORT_FIELDS:
                columns[name][rows] = getattr(shard, name)
        return ClaimColumns.from_arrays(columns)

    def positions(
        self, provider_id: np.ndarray, cell: np.ndarray, technology: np.ndarray
    ) -> np.ndarray:
        """Monolithic row per claim key (``-1`` = miss), probing shards.

        Keys are globally unique, so at most one shard answers each
        query; hits map through that shard's ``global_rows``.
        """
        provider_id = np.asarray(provider_id, dtype=np.int64)
        out = np.full(provider_id.size, -1, dtype=np.intp)
        for name, shard in self._shards.items():
            if not len(shard):
                continue
            pos = shard.positions(provider_id, cell, technology)
            hit = pos >= 0
            if hit.any():
                out[hit] = self._global_rows[name][pos[hit]]
        return out

    # -- persistence ---------------------------------------------------------

    def bundle(
        self,
        extra_shard_arrays: dict[str, dict[str, np.ndarray]] | None = None,
        extra_manifest: dict | None = None,
    ) -> tuple[dict[str, np.ndarray], dict]:
        """The ``(arrays, meta)`` payload :meth:`save` commits.

        Array keys are ``shards/<name>/<column>``.  ``extra_shard_arrays``
        adds caller payloads per shard (e.g. ``{"ca": {"margin": ...}}``);
        ``extra_manifest`` merges extra top-level keys (e.g. ingestion
        stats) into the manifest.
        """
        arrays: dict[str, np.ndarray] = {}
        shard_entries = []
        for name in self.shard_names:
            shard = self._shards[name]
            shard_arrays = dict(shard.export_arrays())
            shard_arrays["global_rows"] = self._global_rows[name]
            for key, arr in shard.index.export_state().items():
                shard_arrays[f"{_INDEX_PREFIX}{key}"] = arr
            for key, arr in (extra_shard_arrays or {}).get(name, {}).items():
                if key in shard_arrays:
                    raise ValueError(f"extra array {key!r} shadows a column")
                shard_arrays[key] = arr
            for key, arr in shard_arrays.items():
                arrays[f"shards/{name}/{key}"] = arr
            states = sorted(
                a for a, s in self.state_to_shard.items() if s == name
            )
            shard_entries.append(
                {"name": name, "n_rows": int(len(shard)), "states": states}
            )
        meta = {
            "n_rows": self._n_rows,
            "state_to_shard": dict(sorted(self.state_to_shard.items())),
            "shards": shard_entries,
        }
        for key, value in (extra_manifest or {}).items():
            if key in meta:
                raise ValueError(f"extra manifest key {key!r} is reserved")
            meta[key] = value
        return arrays, meta

    def save(
        self,
        root: str,
        extra_shard_arrays: dict[str, dict[str, np.ndarray]] | None = None,
        extra_manifest: dict | None = None,
    ) -> str:
        """Commit :meth:`bundle` as one crash-safe bundle under ``root``."""
        arrays, meta = self.bundle(extra_shard_arrays, extra_manifest)
        with _stage_timer("write"):
            return write_bundle(root, _KIND, _SCHEMA, arrays, meta)

    @classmethod
    def load(cls, root: str, mmap: bool = True) -> "ShardedClaimColumns":
        """Open a saved bundle; ``mmap=True`` maps every array read-only.

        Memory-mapped columns are zero-copy views: nothing is paged in
        until a lookup touches it, and persisted composite-key indexes
        load the same way (no re-factorization).
        """
        with _stage_timer("load"):
            manifest, files = read_bundle(root, _KIND, _SCHEMA, mmap=mmap)
        return cls.from_bundle(manifest, files)

    @classmethod
    def from_bundle(
        cls, manifest: dict, files: dict[str, np.ndarray]
    ) -> "ShardedClaimColumns":
        """Rebuild the table from a :meth:`bundle` payload."""
        column_names = {name for name, _ in ClaimColumns.EXPORT_FIELDS}
        per_shard: dict[str, dict[str, np.ndarray]] = {}
        for key, arr in files.items():
            head, _, col = key.rpartition("/")
            per_shard.setdefault(head[len("shards/"):], {})[col] = arr
        shards: dict[str, ClaimColumns] = {}
        global_rows: dict[str, np.ndarray] = {}
        extra: dict[str, dict[str, np.ndarray]] = {}
        for entry in manifest["shards"]:
            name = entry["name"]
            arrays = per_shard.get(name, {})
            missing = (column_names | {"global_rows"}) - set(arrays)
            if missing:
                raise ValueError(
                    f"shard {name!r} is missing columns {sorted(missing)}"
                )
            index_state = {
                key[len(_INDEX_PREFIX):]: arrays.pop(key)
                for key in list(arrays)
                if key.startswith(_INDEX_PREFIX)
            }
            global_rows[name] = arrays.pop("global_rows")
            shard_extra = {
                key: arrays.pop(key) for key in list(arrays)
                if key not in column_names
            }
            index = (
                MultiColumnIndex.from_state(index_state)
                if index_state
                else None
            )
            shard = ClaimColumns.from_arrays(arrays, index=index)
            if int(entry["n_rows"]) != len(shard):
                raise ValueError(
                    f"shard {name!r} row count {len(shard)} disagrees with "
                    f"manifest ({entry['n_rows']})"
                )
            shards[name] = shard
            if shard_extra:
                extra[name] = shard_extra
        return cls(
            shards,
            global_rows,
            manifest["state_to_shard"],
            manifest["n_rows"],
            extra_arrays=extra,
        )
