"""The ``bundle quantize --delta`` and ``bundle delta`` CLI commands.

Both print ``ships k/n members``: ``k`` must be the number of members the
delta archive really holds, and each source bundle is read (and hashed)
once per command.
"""

import re
import zipfile

from repro.serve import bundle as bundle_mod
from repro.serve.bundle import (
    MANIFEST_MEMBER,
    load_bundle,
    quantize_bundle,
    read_manifest,
    save_bundle,
    verify_bundle,
)
from repro.serve.cli import main

SHIPS = re.compile(r"ships (\d+)/(\d+) members")


def _ships(capsys):
    match = SHIPS.search(capsys.readouterr().out)
    assert match is not None
    return int(match.group(1)), int(match.group(2))


def _archive_members(path):
    with zipfile.ZipFile(path) as zf:
        return [name for name in zf.namelist() if name != MANIFEST_MEMBER]


def _count_reads(monkeypatch):
    reads = []
    read_members = bundle_mod._read_members

    def counting(path):
        reads.append(path)
        return read_members(path)

    monkeypatch.setattr(bundle_mod, "_read_members", counting)
    return reads


def _zip_bundle(packed_bundle, path):
    save_bundle(load_bundle(packed_bundle), path)
    return path


class TestBundleDeltaCli:
    def test_quantize_delta_ships_its_archive_and_reads_source_once(
        self, packed_bundle, tmp_path, capsys, monkeypatch
    ):
        src = _zip_bundle(packed_bundle, tmp_path / "src.zip")
        out = tmp_path / "int8.zip"
        reads = _count_reads(monkeypatch)
        assert main(["quantize", str(src), "--out", str(out), "--delta"]) == 0
        shipped, total = _ships(capsys)
        assert shipped == len(_archive_members(out))
        assert 0 < shipped < total == len(read_manifest(out).members)
        assert reads.count(src) == 1
        verify_bundle(out, parent_resolver=lambda ref: src)

    def test_delta_ships_its_archive(self, packed_bundle, tmp_path, capsys, monkeypatch):
        parent = _zip_bundle(packed_bundle, tmp_path / "parent.zip")
        child = tmp_path / "child.zip"
        save_bundle(quantize_bundle(load_bundle(parent), version="1-int8"), child)
        out = tmp_path / "child.delta.zip"
        reads = _count_reads(monkeypatch)
        assert main(["delta", str(child), "--parent", str(parent), "--out", str(out)]) == 0
        shipped, total = _ships(capsys)
        assert shipped == len(_archive_members(out))
        assert 0 < shipped < total == len(read_manifest(out).members)
        assert reads.count(parent) == reads.count(child) == 1
        verify_bundle(out, parent_resolver=lambda ref: parent)
