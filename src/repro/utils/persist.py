"""Crash-safe array bundles: the one commit protocol every artifact uses.

A bundle is named arrays, one raw ``.npy`` file each (a key's ``/``
separators become subdirectories), in a fresh ``data-NNNNNNNN/``
generation under ``root``, plus ``manifest.json``: ``kind``, ``schema``,
``generation``, a flat ``files`` map (path, sha256, dtype, shape per
key) and the caller's extra top-level keys.  The manifest is committed
last (tmp file fsync, directory fsync, ``os.replace``, directory fsync)
and only then are older generations removed, so a writer killed at any
point leaves the previous bundle intact: a bundle loads whole or not at
all.  Reads confine manifest paths to ``root``, check dtype and shape,
and never unpickle.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

__all__ = [
    "MANIFEST_NAME",
    "fsync_dir",
    "read_bundle",
    "verify_bundle",
    "write_bundle",
]

MANIFEST_NAME = "manifest.json"

_RESERVED = ("schema", "kind", "generation", "files")


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def fsync_dir(path: str) -> None:
    """fsync a directory so renames/creates inside it are durable.

    Platforms that cannot open a directory for fsync (Windows) get the
    old best-effort behaviour instead of an error.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - non-POSIX fallback
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - filesystems without dir fsync
        pass
    finally:
        os.close(fd)


def _parts(rel: str) -> list[str]:
    """``rel``'s components; ``ValueError`` unless it stays in the bundle."""
    parts = rel.split("/")
    if "\\" in rel or any(p in ("", ".", "..") for p in parts):
        raise ValueError(f"bundle path {rel!r} escapes the bundle root")
    return parts


def _next_generation(root: str) -> str:
    ordinals = [0]
    for entry in os.listdir(root):
        if entry.startswith("data-") and entry[5:].isdigit():
            ordinals.append(int(entry[5:]))
    return f"data-{max(ordinals) + 1:08d}"


def write_bundle(
    root: str,
    kind: str,
    schema: int,
    arrays: dict[str, np.ndarray],
    meta: dict | None = None,
) -> str:
    """Write ``arrays`` as a new generation under ``root`` and commit it.

    Keys may contain ``/`` (they become subdirectories).  ``meta`` adds
    JSON top-level manifest keys; one that shadows ``schema``, ``kind``,
    ``generation`` or ``files`` raises ``ValueError``.  Returns ``root``.
    """
    meta = dict(meta or {})
    clash = sorted(set(_RESERVED) & set(meta))
    if clash:
        raise ValueError(f"bundle meta keys {clash} are reserved")
    for key in arrays:
        _parts(key)
    os.makedirs(root, exist_ok=True)
    generation = _next_generation(root)
    files = {}
    for key, arr in arrays.items():
        arr = np.asarray(arr)
        rel = f"{generation}/{key}.npy"
        target = os.path.join(root, *rel.split("/"))
        os.makedirs(os.path.dirname(target), exist_ok=True)
        np.save(target, arr, allow_pickle=False)
        files[key] = {
            "path": rel,
            "sha256": _sha256_file(target),
            "dtype": str(arr.dtype),
            "shape": list(arr.shape),
        }
    manifest = dict(kind=kind, schema=schema, generation=generation, files=files)
    manifest.update(meta)
    # Durable commit: the rename is the commit point, so the tmp file's
    # *contents* must reach disk before it, and the directory entry
    # after it — otherwise a crash can surface a committed but
    # empty/torn manifest over intact data files.
    tmp = os.path.join(root, MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    fsync_dir(root)
    os.replace(tmp, os.path.join(root, MANIFEST_NAME))
    fsync_dir(root)
    # Best-effort removal of superseded generations.
    for entry in os.listdir(root):
        if entry.startswith("data-") and entry != generation:
            shutil.rmtree(os.path.join(root, entry), ignore_errors=True)
    return root


def _read_manifest(root: str) -> dict:
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise FileNotFoundError(f"no bundle manifest at {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_bundle(
    root: str, kind: str, schema: int, mmap: bool = True
) -> tuple[dict, dict[str, np.ndarray]]:
    """Open the committed bundle under ``root``: ``(manifest, arrays)``.

    Raises ``FileNotFoundError`` when ``root`` has no manifest and
    ``ValueError`` on a wrong kind or schema, a path outside ``root``,
    or a file whose dtype or shape disagrees with the manifest.
    ``mmap=True`` maps every array read-only (zero-copy).
    """
    manifest = _read_manifest(root)
    if manifest.get("kind") != kind:
        raise ValueError(
            f"artifact kind {manifest.get('kind')!r} is not {kind!r}"
        )
    if manifest.get("schema") != schema:
        raise ValueError(
            f"{kind} schema {manifest.get('schema')!r} is not supported "
            f"(expected {schema})"
        )
    mode = "r" if mmap else None
    arrays = {}
    for key, meta in manifest["files"].items():
        arr = np.load(
            os.path.join(root, *_parts(meta["path"])),
            mmap_mode=mode,
            allow_pickle=False,
        )
        if str(arr.dtype) != meta["dtype"] or list(arr.shape) != meta["shape"]:
            raise ValueError(
                f"{kind} array {key!r} has dtype {arr.dtype} and shape "
                f"{list(arr.shape)}, manifest says {meta['dtype']} and "
                f"{meta['shape']}"
            )
        arrays[key] = arr
    return manifest, arrays


def verify_bundle(root: str) -> int:
    """Re-hash every file of a bundle against its manifest.

    Returns the number of files checked; raises ``ValueError`` on the
    first content mismatch or a path outside ``root``, and
    ``FileNotFoundError`` for a file the manifest promises but the
    bundle lacks.
    """
    checked = 0
    for meta in _read_manifest(root)["files"].values():
        path = os.path.join(root, *_parts(meta["path"]))
        if not os.path.exists(path):
            raise FileNotFoundError(f"bundle is missing {meta['path']}")
        digest = _sha256_file(path)
        if digest != meta["sha256"]:
            raise ValueError(
                f"content hash mismatch for {meta['path']}: "
                f"manifest {meta['sha256'][:12]}…, file {digest[:12]}…"
            )
        checked += 1
    return checked
