"""The bundle primitive behind every artifact: whole or not at all.

* A re-save killed at *any* array write leaves the previously committed
  bundle loading bitwise-unchanged and verifying clean, for every
  artifact kind in ``src/`` (``bundle_kinds.KINDS``).  The mid-stream
  death is the ingest suite's idiom applied to ``np.save``: the k-th
  write leaves a torn file and raises.
* Manifest paths are confined to the bundle: an absolute or ``..`` path
  is refused, never followed.
* The primitive's own contract: reserved meta keys, key validation,
  kind/schema checks, ``/`` keys, 0-d and empty arrays, mmap.
"""

import io
import json
import os
import shutil

import numpy as np
import pytest

from bundle_kinds import KINDS
from repro.utils.persist import (
    MANIFEST_NAME,
    read_bundle,
    verify_bundle,
    write_bundle,
)

_real_save = np.save


class _Dying:
    """``np.save`` stand-in that dies on write number ``die_at`` (0-based),
    leaving half the file on disk; ``None`` only counts the writes."""

    def __init__(self, die_at=None):
        self.die_at = die_at
        self.calls = 0

    def __call__(self, file, arr, allow_pickle=True):
        call, self.calls = self.calls, self.calls + 1
        if call == self.die_at:
            buf = io.BytesIO()
            _real_save(buf, arr, allow_pickle=allow_pickle)
            with open(file, "wb") as fh:
                fh.write(buf.getvalue()[: buf.tell() // 2])
            raise OSError("writer killed mid-write")
        _real_save(file, arr, allow_pickle=allow_pickle)


def _snapshot(root, kind):
    """Everything a bundle commits, generation-independent."""
    manifest, arrays = read_bundle(root, kind.kind, kind.schema, mmap=False)
    meta = {k: v for k, v in manifest.items() if k not in ("generation", "files")}
    files = {
        key: (m["sha256"], m["dtype"], m["shape"])
        for key, m in manifest["files"].items()
    }
    return meta, files, arrays


def _assert_same(got, want, context):
    assert got[0] == want[0], context
    assert got[1] == want[1], context
    assert got[2].keys() == want[2].keys(), context
    for key, arr in want[2].items():
        other = got[2][key]
        assert other.dtype == arr.dtype and other.shape == arr.shape, (context, key)
        assert other.tobytes() == arr.tobytes(), (context, key)


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_killed_resave_leaves_old_bundle(tmp_path, monkeypatch, request, kind):
    template = str(tmp_path / "old")
    kind.save(template, 0, request)
    old = _snapshot(template, kind)

    counter = _Dying()
    monkeypatch.setattr(np, "save", counter)
    kind.save(str(tmp_path / "count"), 1, request)
    new = _snapshot(str(tmp_path / "count"), kind)
    assert counter.calls > 1
    assert new[1] != old[1], "variants must differ or the test proves nothing"

    for k in range(counter.calls):
        root = str(tmp_path / f"killed-{k}")
        shutil.copytree(template, root)
        monkeypatch.setattr(np, "save", _Dying(die_at=k))
        with pytest.raises(OSError, match="killed"):
            kind.save(root, 1, request)
        monkeypatch.setattr(np, "save", _real_save)
        kind.load(root, request)
        _assert_same(_snapshot(root, kind), old, f"{kind} killed at write {k}")
        assert verify_bundle(root) == len(old[1])

    # The next complete save commits and sweeps the torn generation.
    kind.save(root, 1, request)
    _assert_same(_snapshot(root, kind), new, f"{kind} recovery")
    assert len([d for d in os.listdir(root) if d.startswith("data-")]) == 1


@pytest.mark.parametrize("kind", KINDS, ids=repr)
def test_manifest_paths_are_confined_to_the_bundle(tmp_path, request, kind):
    """A manifest path outside the root is an error, never a file read:
    the outside file here is a valid array of the right dtype and shape."""
    root = str(tmp_path / "bundle")
    kind.save(root, 0, request)
    manifest_path = os.path.join(root, MANIFEST_NAME)
    manifest = json.load(open(manifest_path))
    victim = manifest["files"][kind.victim]
    outside = str(tmp_path / "outside.npy")
    shutil.copyfile(os.path.join(root, victim["path"]), outside)
    for path in (outside, "../outside.npy", f"{manifest['generation']}/../../outside.npy"):
        victim["path"] = path
        json.dump(manifest, open(manifest_path, "w"))
        with pytest.raises(ValueError, match="escapes"):
            kind.load(root, request)
        with pytest.raises(ValueError, match="escapes"):
            verify_bundle(root)


# -- the primitive's own contract ----------------------------------------------


def test_round_trip_nested_keys_scalars_and_empties(tmp_path):
    arrays = {
        "a": np.arange(5, dtype=np.int64),
        "group/b": np.linspace(0, 1, 6).reshape(2, 3),
        "group/deeper/c": np.array([], dtype=np.uint64),
        "scalar": np.float64(2.5),
        "text": np.array(["x", "yz"]),
    }
    root = str(tmp_path / "b")
    write_bundle(root, "demo", 3, arrays, meta={"note": {"k": [1, 2]}})
    for mmap in (True, False):
        manifest, back = read_bundle(root, "demo", 3, mmap=mmap)
        assert manifest["note"] == {"k": [1, 2]}
        assert back.keys() == arrays.keys()
        for key, arr in arrays.items():
            assert back[key].dtype == np.asarray(arr).dtype, key
            assert np.array_equal(back[key], arr), key
    assert os.path.exists(
        os.path.join(root, manifest["generation"], "group", "deeper", "c.npy")
    )
    assert verify_bundle(root) == len(arrays)


def test_write_rejects_reserved_meta_and_escaping_keys(tmp_path):
    root = str(tmp_path / "b")
    for key in ("schema", "kind", "generation", "files"):
        with pytest.raises(ValueError, match="reserved"):
            write_bundle(root, "demo", 1, {}, meta={key: 1})
    for key in ("../x", "/abs", "a//b", "a/./b", ""):
        with pytest.raises(ValueError, match="escapes"):
            write_bundle(root, "demo", 1, {key: np.zeros(1)})
    # Nothing was committed by the refused writes.
    assert not os.path.exists(os.path.join(root, MANIFEST_NAME))


def test_read_rejects_missing_foreign_and_future_bundles(tmp_path):
    root = str(tmp_path / "b")
    with pytest.raises(FileNotFoundError):
        read_bundle(root, "demo", 1)
    with pytest.raises(FileNotFoundError):
        verify_bundle(root)
    write_bundle(root, "demo", 1, {"x": np.zeros(2)})
    with pytest.raises(ValueError, match="kind"):
        read_bundle(root, "other", 1)
    with pytest.raises(ValueError, match="schema"):
        read_bundle(root, "demo", 2)


def test_object_arrays_are_refused(tmp_path):
    with pytest.raises(ValueError):
        write_bundle(str(tmp_path / "b"), "demo", 1, {"x": np.array([{}, 1])})
