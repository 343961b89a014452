"""Verified artifacts: one hashed container, one atomic writer, one verifier.

Every file that carries work between the offline and online halves of
the attack (EmoLeak §IV) — collection-cache passes, model, delta and
privacy-gate bundles — is an *artifact*: a ``.zip``/``.npz`` archive or
a directory holding member files and a ``manifest.json`` whose
``members`` table records each member's sha256 and byte count. The rest
of the manifest belongs to the caller. A member named ``*.npy`` is a
numpy array; any other member is bytes. Archive members are stored
uncompressed (deflate saved 7 % of a collection pass's bytes at 24× the
write time). A binary file object stands for an archive held in memory,
as a member of another artifact (a bundle's CNN weights) is.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import uuid
import zipfile
import zlib
from pathlib import Path
from typing import Callable, Dict, Mapping, Tuple, Union

import numpy as np

__all__ = [
    "MANIFEST", "ArtifactError", "ArtifactIntegrityError", "describe_source", "sha256",
    "encode_manifest", "member_table", "write_artifact", "open_artifact", "verify_members",
    "read_artifact",
]

MANIFEST = "manifest.json"

Member = Union[bytes, np.ndarray]
MemberTable = Dict[str, Dict[str, object]]


class ArtifactError(ValueError):
    """An artifact cannot be written or read."""


class ArtifactIntegrityError(ArtifactError):
    """An artifact is unreadable, or a member is missing, undeclared or fails its sha256."""


def describe_source(path) -> str:
    """How errors name an artifact: its path, or a file object's ``name``."""
    if isinstance(path, (str, bytes, os.PathLike)):
        return str(path)
    name = getattr(path, "name", None)
    return str(name) if name is not None else f"<{type(path).__name__}>"


def sha256(data: bytes) -> str:
    """Hex sha256 of a bytes-like object."""
    return hashlib.sha256(data).hexdigest()


def encode_manifest(payload: dict) -> bytes:
    """The bytes :func:`write_artifact` writes for a manifest payload."""
    return json.dumps(payload, indent=2).encode()


class _HashingSink:
    """A write-only stream that hashes and counts what passes through it."""

    def __init__(self, out=None):
        self.out, self.sha, self.nbytes = out, hashlib.sha256(), 0

    def write(self, data) -> None:
        self.sha.update(data)
        self.nbytes += memoryview(data).nbytes
        if self.out is not None:
            self.out.write(data)


def _write_member(name: str, member: Member, out=None) -> Dict[str, object]:
    """Stream one member to ``out`` (None: nowhere); its members-table entry."""
    sink = _HashingSink(out)
    if name.endswith(".npy"):
        np.lib.format.write_array(sink, np.asanyarray(member), allow_pickle=False)
    else:
        sink.write(member)
    return {"sha256": sink.sha.hexdigest(), "bytes": sink.nbytes}


def member_table(members: Mapping[str, Member]) -> MemberTable:
    """The members table :func:`write_artifact` stamps for ``members``."""
    return {name: _write_member(name, data) for name, data in sorted(members.items())}


def _sibling(path: Path, tag: str) -> Path:
    return path.with_name(f".{path.name}.{uuid.uuid4().hex}.{tag}")


def _write_all(members, manifest, open_member) -> None:
    table = {}
    for name, member in sorted(members.items()):
        with open_member(name) as out:
            table[name] = _write_member(name, member, out)
    with open_member(MANIFEST) as out:
        out.write(encode_manifest(manifest(table)))


def _commit(tmp: Path, path: Path) -> None:
    """Rename a finished temporary artifact over ``path``."""
    if not (tmp.is_dir() and path.is_dir()):
        os.replace(tmp, path)
        return
    # A directory cannot be renamed over a non-empty one: move the old
    # artifact aside, and back if the new one cannot move in. A process
    # killed between the two renames leaves it whole under ``old``.
    old = _sibling(path, "old")
    os.replace(path, old)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.replace(old, path)
        raise
    shutil.rmtree(old)


def write_artifact(
    path, members: Mapping[str, Member], manifest: Callable[[MemberTable], dict]
) -> None:
    """Write ``members`` and their manifest to ``path`` (``.zip``/``.npz``:
    an archive, else a directory), atomically.

    Each member is hashed as it streams into a temporary sibling;
    ``manifest(table)`` turns the members table into the manifest
    payload, written last; then the artifact is renamed into place, so a
    save that dies leaves the previous artifact whole. An existing
    directory is replaced only if it holds a ``manifest.json``; any other
    raises :class:`FileExistsError` and keeps its files. A writable
    binary file object gets the archive written straight into it.
    """
    if hasattr(path, "write"):
        with zipfile.ZipFile(path, "w") as zf:
            _write_all(members, manifest, lambda name: zf.open(name, "w"))
        return
    path = Path(path)
    if path.is_dir() and not (path / MANIFEST).is_file():
        raise FileExistsError(f"{path}: refusing to replace a directory without a {MANIFEST}")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(path, "tmp")
    try:
        if path.suffix.lower() in (".zip", ".npz"):
            with zipfile.ZipFile(tmp, "x") as zf:
                _write_all(members, manifest, lambda name: zf.open(name, "w"))
        else:
            tmp.mkdir()
            _write_all(members, manifest, lambda name: open(tmp / name, "xb"))
        _commit(tmp, path)
    except BaseException:
        if tmp.is_dir():
            shutil.rmtree(tmp)
        else:
            tmp.unlink(missing_ok=True)
        raise


def open_artifact(path) -> Tuple[dict, bytes, Dict[str, bytes]]:
    """``(manifest payload, manifest bytes, member bytes)``, UNVERIFIED:
    pass the members to :func:`verify_members` before parsing any of them.
    ``path`` may be a readable binary file object holding an archive.
    Nothing at ``path`` raises :class:`FileNotFoundError`."""
    source, stream = describe_source(path), hasattr(path, "read")
    path = path if stream else Path(path)
    try:
        if stream or path.is_file():
            with zipfile.ZipFile(path) as zf:
                members = {info.filename: zf.read(info) for info in zf.infolist()}
        else:
            members = {m.name: m.read_bytes() for m in sorted(path.iterdir()) if m.is_file()}
    except (zipfile.BadZipFile, EOFError, zlib.error) as exc:
        raise ArtifactIntegrityError(f"{source}: not a readable artifact archive: {exc}") from exc
    manifest_bytes = members.pop(MANIFEST, None)
    if manifest_bytes is None:
        raise ArtifactIntegrityError(f"{source}: artifact has no {MANIFEST}")
    try:
        payload = json.loads(manifest_bytes)
    except ValueError as exc:  # undecodable bytes or invalid JSON
        raise ArtifactIntegrityError(f"{source}: {MANIFEST} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ArtifactIntegrityError(f"{source}: {MANIFEST} is not a JSON object")
    return payload, manifest_bytes, members


def verify_members(source, table: Mapping[str, Mapping], members: Mapping[str, bytes]) -> None:
    """Check the exact member set, then every member's sha256, against a
    manifest's members table; :class:`ArtifactIntegrityError` if not."""
    declared, actual = set(table), set(members)
    if actual - declared:
        raise ArtifactIntegrityError(f"{source}: undeclared members {sorted(actual - declared)}")
    if declared - actual:
        raise ArtifactIntegrityError(f"{source}: missing members {sorted(declared - actual)}")
    for name in sorted(declared):
        expected, actual_hash = str(table[name].get("sha256", "")), sha256(members[name])
        if actual_hash != expected:
            raise ArtifactIntegrityError(
                f"{source}: member {name!r} failed its integrity check "
                f"(sha256 {actual_hash[:12]}… != manifest {expected[:12]}…); "
                "refusing to load a tampered artifact"
            )


def read_artifact(path) -> Tuple[dict, Dict[str, Member]]:
    """Read and verify an artifact: ``(manifest payload, members)``, with
    ``*.npy`` members as writable arrays and the rest as bytes."""
    manifest, _, members = open_artifact(path)
    verify_members(describe_source(path), dict(manifest.get("members") or {}), members)
    return manifest, {
        name: np.load(io.BytesIO(data), allow_pickle=False) if name.endswith(".npy") else data
        for name, data in members.items()
    }
