"""The bundle CLI commands.

``bundle quantize --delta`` and ``bundle delta`` print ``ships k/n
members``: ``k`` must be the number of members the delta archive really
holds, and each source bundle is read (and hashed) once per command.
``bundle pack``, ``bundle inspect`` and ``gate pack`` print one line per
member in one fixed format.
"""

import re
import types
import zipfile

from repro.artifact import MANIFEST
from repro.attack.pipeline import FeatureDataset
from repro.serve import bundle as bundle_mod
from repro.serve.bundle import (
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
        return [name for name in zf.namelist() if name != MANIFEST]


def _count_reads(monkeypatch):
    reads = []
    open_artifact = bundle_mod.open_artifact

    def counting(path):
        reads.append(path)
        return open_artifact(path)

    monkeypatch.setattr(bundle_mod, "open_artifact", counting)
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


def _member_lines(manifest, suffix=""):
    """The member lines the commands print, in the format they have always had."""
    return [
        f"  {name:<18} {meta['bytes']:>9} B  sha256 {str(meta['sha256'])[:16]}…{suffix}"
        for name, meta in sorted(manifest.members.items())
    ]


def _lines_after(out, header):
    lines = out.splitlines()
    return lines[next(i for i, line in enumerate(lines) if line.startswith(header)) + 1 :]


class TestMemberLines:
    def test_pack_twice_to_one_directory_then_inspect(
        self, tmp_path, blob_data, capsys, monkeypatch
    ):
        import repro.eval.experiment as experiment

        X, y = blob_data
        monkeypatch.setattr(
            experiment,
            "collect_scenario_datasets",
            lambda *args, **kwargs: types.SimpleNamespace(features=FeatureDataset(X=X, y=y)),
        )
        out = tmp_path / "bundle-dir"
        pack = ["pack", "--scenario", "tess-loud-oneplus7t", "--out", str(out)]
        for version in ("1", "2"):
            assert main([*pack, "--version", version]) == 0
            printed = _lines_after(capsys.readouterr().out, "packed")
            assert printed == _member_lines(read_manifest(out))
        assert main(["inspect", str(out)]) == 0
        printed = _lines_after(capsys.readouterr().out, "members")
        manifest, _ = verify_bundle(out)
        assert manifest.version == "2"
        assert printed == _member_lines(manifest, "  [verified]")

    def test_gate_pack(self, tmp_path, capsys, monkeypatch):
        import repro.eval.defense_grid as defense_grid

        from tests.serve.test_gate_bundle import _report

        monkeypatch.setattr(defense_grid, "run_defense_grid", lambda **kwargs: _report())
        out = tmp_path / "gate.zip"
        assert main(["gate", "pack", "--out", str(out)]) == 0
        printed = _lines_after(capsys.readouterr().out, "packed")
        assert printed == _member_lines(read_manifest(out))


class TestRejected:
    def test_a_bundle_that_fails_verification_is_rejected(self, packed_bundle, tmp_path, capsys):
        (packed_bundle / "classifier.json").write_text("{}")
        out = tmp_path / "int8.zip"
        quantize = ["quantize", str(packed_bundle), "--out", str(out)]
        for argv in (["inspect", str(packed_bundle)], quantize):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("REJECTED: ") and "classifier.json" in err
        assert not out.exists()
