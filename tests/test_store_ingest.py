"""Streaming BDC ingestion: exact round-trips, fault rows, crash safety.

The contracts under test, per the module docstring of
:mod:`repro.store.ingest`:

* ``ClaimColumns -> write_bdc_csv -> ingest_csv -> to_claims`` is
  bitwise-exact (floats included) across source splits, chunk sizes,
  and shard layouts;
* every malformed row is rejected to the sidecar with its source file,
  line number, and reason — and never corrupts a shard;
* duplicate composite keys (within a file, across files, and across
  *states*, which route to different shards) keep the first occurrence
  by source order and reject the rest naming the first;
* a killed ingest never moves the manifest: a fresh root stays
  manifest-less, a populated root keeps serving the previous data.
"""

import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_claims
from repro.fcc.bdc import NBM_SPEED_FLOORS, ClaimColumns
from repro.store import (
    BDC_CSV_FIELDS,
    SHARD_MANIFEST_NAME,
    ShardedClaimColumns,
    ingest_csv,
    write_bdc_csv,
)
from repro.utils.persist import read_bundle, verify_bundle

HEADER = ",".join(BDC_CSV_FIELDS)


def _manifest(root: str) -> dict:
    return read_bundle(root, "sharded-claim-columns", 2)[0]


def assert_claims_bitwise(a: ClaimColumns, b: ClaimColumns):
    for name, _ in ClaimColumns.EXPORT_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _csv(*rows: str) -> io.StringIO:
    src = io.StringIO("\n".join((HEADER,) + rows) + "\n")
    src.name = "inline.csv"
    return src


# -- round-trip ---------------------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    chunk_rows=st.sampled_from([1, 7, 100, 65_536]),
    layout=st.sampled_from([None, 1, 5]),
    n_sources=st.integers(1, 3),
)
def test_round_trip_bitwise(tmp_path_factory, seed, chunk_rows, layout, n_sources):
    """CSV export -> chunked ingest reproduces the table bitwise, however
    the rows are split across source files."""
    claims = make_random_claims(seed, n=400)
    td = tmp_path_factory.mktemp("ingest")
    n = len(claims)
    bounds = np.linspace(0, n, n_sources + 1).astype(int)
    paths = []
    for i in range(n_sources):
        path = str(td / f"part-{i}.csv")
        write_bdc_csv(claims, path, rows=np.arange(bounds[i], bounds[i + 1]))
        paths.append(path)
    result = ingest_csv(paths, str(td / "root"), shards=layout, chunk_rows=chunk_rows)
    assert result.n_read == n
    assert result.n_ingested == n
    assert result.n_rejected == 0
    assert result.rejected_path is None
    assert_claims_bitwise(result.load().to_claims(), claims)


def test_round_trip_preserves_monolithic_order(tmp_path):
    """Ingested global_rows reproduce the canonical lexicographic order,
    so downstream stores see identical row numbering."""
    claims = make_random_claims(42, n=500)
    path = str(tmp_path / "all.csv")
    # Export in shuffled order: ingest must still recover the canonical one.
    rng = np.random.default_rng(0)
    write_bdc_csv(claims, path, rows=rng.permutation(len(claims)))
    result = ingest_csv([path], str(tmp_path / "root"), shards=4)
    back = result.load()
    assert_claims_bitwise(back.to_claims(), claims)
    pos = back.positions(
        claims.provider_id[:64], claims.cell[:64], claims.technology[:64]
    )
    assert np.array_equal(pos, np.arange(64))


# -- validation and fault rows ------------------------------------------------


def test_malformed_rows_rejected_with_line_numbers(tmp_path):
    good = "7,CA,00000000000000aa,50,3,100.0,20.0,1"
    src = _csv(
        good,                                                # line 2: kept
        "7,CA,00000000000000ab,99,3,100.0,20.0,1",           # line 3: bad tech
        "7,CA,00000000000000ac,50,3,fast,20.0,1",            # line 4: bad speed
        "7,ZZ,00000000000000ad,50,3,100.0,20.0,1",           # line 5: bad state
        "x,CA,00000000000000ae,50,3,100.0,20.0,1",           # line 6: bad pid
        "7,CA,zzzz,50,3,100.0,20.0,1",                       # line 7: bad cell
        "7,CA,00000000000000af,50,0,100.0,20.0,1",           # line 8: bad count
        "7,CA,00000000000000b0,50,3,100.0,20.0,maybe",       # line 9: bad flag
        "7,CA,00000000000000b1,50,3",                        # line 10: truncated
    )
    root = str(tmp_path / "root")
    result = ingest_csv([src], root, shards=2)
    assert result.n_read == 9
    assert result.n_ingested == 1
    assert result.n_rejected == 8
    assert result.reject_reasons == {
        "unknown technology code": 1,
        "bad advertised speed": 1,
        "unknown state": 1,
        "bad provider_id": 1,
        "bad h3 cell id": 1,
        "bad location count": 1,
        "bad low_latency flag": 1,
        "wrong field count": 1,
    }
    with open(result.rejected_path, encoding="utf-8") as fh:
        sidecar = fh.read()
    lines = sidecar.strip().splitlines()
    assert lines[0] == "source,line,reason,raw"
    assert len(lines) == 9
    rejected_lines = sorted(int(line.split(",")[1]) for line in lines[1:])
    assert rejected_lines == [3, 4, 5, 6, 7, 8, 9, 10]
    assert all(line.startswith("inline.csv,") for line in lines[1:])
    # The surviving shard bundle is intact and holds exactly the good row.
    verify_bundle(root)
    back = result.load().to_claims()
    assert len(back) == 1 and int(back.cell[0]) == 0xAA


def test_rejects_never_corrupt_a_shard(tmp_path):
    """A poison source (every row bad) still commits a valid — empty —
    bundle, and a later good ingest fully replaces it."""
    root = str(tmp_path / "root")
    result = ingest_csv(
        [_csv("nope,XX,zz,99,0,a,b,c")], root, shards=3
    )
    assert result.n_ingested == 0 and result.n_rejected == 1
    verify_bundle(root)
    assert len(result.load()) == 0
    claims = make_random_claims(3, n=100)
    path = str(tmp_path / "good.csv")
    write_bdc_csv(claims, path)
    result2 = ingest_csv([path], root, shards=3)
    verify_bundle(root)
    assert_claims_bitwise(result2.load().to_claims(), claims)
    # The poison run's sidecar is garbage-collected with its generation.
    assert not [e for e in os.listdir(root) if e.startswith("rejected-")]


def test_speed_floors_normalize_on_ingest(tmp_path):
    down_floor, up_floor = NBM_SPEED_FLOORS
    src = _csv(
        f"7,CA,00000000000000aa,50,3,{down_floor / 2},{up_floor / 2},1",
        f"8,CA,00000000000000ab,50,3,{down_floor},{up_floor},0",
    )
    result = ingest_csv([src], str(tmp_path / "root"))
    back = result.load().to_claims()
    assert back.max_download_mbps.tolist() == [0.0, float(down_floor)]
    assert back.max_upload_mbps.tolist() == [0.0, float(up_floor)]


def test_header_is_mandatory(tmp_path):
    src = io.StringIO("7,CA,00000000000000aa,50,3,100.0,20.0,1\n")
    with pytest.raises(ValueError, match="BDC header"):
        ingest_csv([src], str(tmp_path / "root"))
    assert not os.path.exists(os.path.join(tmp_path, "root", SHARD_MANIFEST_NAME))


# -- duplicates ---------------------------------------------------------------


def test_duplicate_keys_keep_first_by_source_order(tmp_path):
    a = _csv(
        "7,CA,00000000000000aa,50,3,100.0,20.0,1",
        "7,CA,00000000000000aa,50,9,555.0,55.0,0",  # dup within file
    )
    a.name = "a.csv"
    b = _csv(
        "7,CA,00000000000000aa,50,4,200.0,30.0,1",  # dup across files
    )
    b.name = "b.csv"
    result = ingest_csv([a, b], str(tmp_path / "root"))
    assert result.n_ingested == 1
    assert result.n_rejected == 2
    assert result.reject_reasons == {"duplicate claim key": 2}
    back = result.load().to_claims()
    assert int(back.claimed_count[0]) == 3  # first occurrence won
    with open(result.rejected_path, encoding="utf-8") as fh:
        sidecar = fh.read()
    assert "first seen at a.csv line 2" in sidecar
    assert "b.csv,2," in sidecar and "a.csv,3," in sidecar


def test_duplicate_across_states_lands_in_sidecar(tmp_path):
    """The same composite key filed under two states routes to two
    different shards — the global scan must still catch it."""
    src = _csv(
        "7,CA,00000000000000aa,50,3,100.0,20.0,1",
        "7,TX,00000000000000aa,50,3,100.0,20.0,1",
    )
    result = ingest_csv([src], str(tmp_path / "root"), shards=None)
    assert result.n_ingested == 1
    assert result.reject_reasons == {"duplicate claim key": 1}
    assert result.per_shard["ca"]["n_rows"] == 1
    assert result.per_shard["tx"]["n_rows"] == 0


# -- crash safety -------------------------------------------------------------


class _Dying:
    """A file-like source that dies mid-iteration (a killed ingest)."""

    name = "dying.csv"

    def __init__(self, rows_before_death: int):
        self._lines = [HEADER + "\n"]
        self._lines += [
            f"7,CA,{i:016x},50,3,100.0,20.0,1\n"
            for i in range(rows_before_death)
        ]

    def __iter__(self):
        yield from self._lines
        raise OSError("source truncated mid-stream")


def test_killed_ingest_leaves_fresh_root_empty(tmp_path):
    root = str(tmp_path / "root")
    with pytest.raises(OSError):
        ingest_csv([_Dying(5)], root)
    assert not os.path.exists(os.path.join(root, SHARD_MANIFEST_NAME))


def test_killed_ingest_preserves_previous_generation(tmp_path):
    root = str(tmp_path / "root")
    claims = make_random_claims(9, n=120)
    path = str(tmp_path / "good.csv")
    write_bdc_csv(claims, path)
    ingest_csv([path], root, shards=2)
    manifest_before = _manifest(root)
    with pytest.raises(OSError):
        ingest_csv([_Dying(50)], root, shards=2)
    # Manifest still points at the complete previous generation...
    assert _manifest(root) == manifest_before
    verify_bundle(root)
    # ...and it still loads bitwise.
    assert_claims_bitwise(
        ShardedClaimColumns.load(root).to_claims(), claims
    )


# -- bookkeeping --------------------------------------------------------------


def test_ingest_stats_recorded_in_manifest(tmp_path):
    claims = make_random_claims(21, n=80)
    path = str(tmp_path / "all.csv")
    write_bdc_csv(claims, path)
    src = _csv("7,CA,zzzz,50,3,100.0,20.0,1")
    result = ingest_csv([path, src], str(tmp_path / "root"), chunk_rows=16)
    manifest = _manifest(result.root)
    stats = manifest["ingest"]
    assert stats["rows_read"] == len(claims) + 1
    assert stats["rows_ingested"] == len(claims)
    assert stats["rows_rejected"] == 1
    assert stats["chunk_rows"] == 16
    assert stats["sources"] == ["all.csv", "inline.csv"]
    assert stats["rejected"] is not None
    assert os.path.basename(result.rejected_path) == stats["rejected"]
    assert sum(s["n_rows"] for s in stats["per_shard"].values()) == len(claims)


def test_stale_sidecars_are_cleaned_up(tmp_path):
    root = str(tmp_path / "root")
    r1 = ingest_csv([_csv("7,CA,zzzz,50,3,1,1,1")], root)
    assert os.path.exists(r1.rejected_path)
    claims = make_random_claims(5, n=40)
    path = str(tmp_path / "good.csv")
    write_bdc_csv(claims, path)
    r2 = ingest_csv([path], root)
    assert r2.rejected_path is None
    assert not os.path.exists(r1.rejected_path)
    sidecars = [e for e in os.listdir(root) if e.startswith("rejected-")]
    assert sidecars == []
