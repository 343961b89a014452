"""Fault injection on bundle artifacts: tampering must be rejected loudly
before any model is instantiated (mirrors tests/attack/test_engine_faults.py).
"""

import json
import zipfile

import pytest

from repro.serve.bundle import (
    BundleError,
    BundleFormatError,
    BundleIntegrityError,
    ModelBundle,
    load_bundle,
    save_bundle,
)


def _flip_byte(path, offset=-10):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))


class TestTampering:
    @pytest.mark.parametrize(
        "member", ["classifier.json", "cnn.json", "cnn_weights.npz"]
    )
    def test_flipped_byte_rejected(self, packed_bundle, member):
        """Any flipped byte in any hashed member fails the integrity check."""
        _flip_byte(packed_bundle / member)
        with pytest.raises(BundleIntegrityError, match=member):
            load_bundle(packed_bundle)

    def test_truncated_member_rejected(self, packed_bundle):
        weights = packed_bundle / "cnn_weights.npz"
        weights.write_bytes(weights.read_bytes()[:-64])
        with pytest.raises(BundleIntegrityError, match="cnn_weights.npz"):
            load_bundle(packed_bundle)

    def test_tamper_never_instantiates_a_model(self, packed_bundle, monkeypatch):
        """The hash check fires before any deserialiser runs."""
        import repro.serve.bundle as bundle_mod

        def bomb(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("model deserialiser ran on a tampered bundle")

        monkeypatch.setattr(bundle_mod, "classifier_from_dict", bomb)
        monkeypatch.setattr(bundle_mod, "_cnn_from_members", bomb)
        _flip_byte(packed_bundle / "classifier.json")
        with pytest.raises(BundleIntegrityError):
            load_bundle(packed_bundle)

    def test_zip_tamper_rejected(self, packed_classifier_bundle):
        """Flipping a byte inside the zip's member payload is caught."""
        with zipfile.ZipFile(packed_classifier_bundle) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        payload = bytearray(members["classifier.json"])
        payload[len(payload) // 2] ^= 0x01
        members["classifier.json"] = bytes(payload)
        with zipfile.ZipFile(packed_classifier_bundle, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        with pytest.raises(BundleIntegrityError, match="classifier.json"):
            load_bundle(packed_classifier_bundle)

    def test_smuggled_member_rejected(self, packed_bundle):
        (packed_bundle / "extra.json").write_text("{}")
        with pytest.raises(BundleIntegrityError, match="undeclared"):
            load_bundle(packed_bundle)

    def test_missing_member_rejected(self, packed_bundle):
        (packed_bundle / "classifier.json").unlink()
        with pytest.raises(BundleIntegrityError, match="missing members"):
            load_bundle(packed_bundle)


def _rewrite_manifest(path, mutate):
    manifest = json.loads((path / "manifest.json").read_text())
    mutate(manifest)
    (path / "manifest.json").write_text(json.dumps(manifest))


class TestFormatRejection:
    def test_unknown_format_version(self, packed_bundle):
        _rewrite_manifest(
            packed_bundle, lambda m: m.update(format_version=999)
        )
        with pytest.raises(BundleFormatError, match="format version 999"):
            load_bundle(packed_bundle)

    def test_unknown_classifier_kind(self, tmp_path, fitted_logistic):
        """A manifest-consistent artifact with a hostile kind tag still
        cannot instantiate anything: the kind dispatch refuses it."""
        bundle = ModelBundle.create("x", "1", classifier=fitted_logistic)
        path = tmp_path / "hostile"
        save_bundle(bundle, path)
        # Rewrite the member with a hostile kind AND fix up its hash, so
        # only the kind dispatch (not the integrity check) can stop it.
        payload = json.loads((path / "classifier.json").read_text())
        payload["kind"] = "os.system"
        member_bytes = json.dumps(payload).encode()
        (path / "classifier.json").write_bytes(member_bytes)
        import hashlib

        _rewrite_manifest(
            path,
            lambda m: m["members"]["classifier.json"].update(
                sha256=hashlib.sha256(member_bytes).hexdigest(),
                bytes=len(member_bytes),
            ),
        )
        with pytest.raises(BundleFormatError, match="os.system"):
            load_bundle(path)

    def test_unknown_cnn_kind(self, packed_bundle):
        payload = json.loads((packed_bundle / "cnn.json").read_text())
        payload["kind"] = "arbitrary_code"
        member_bytes = json.dumps(payload).encode()
        (packed_bundle / "cnn.json").write_bytes(member_bytes)
        import hashlib

        _rewrite_manifest(
            packed_bundle,
            lambda m: m["members"]["cnn.json"].update(
                sha256=hashlib.sha256(member_bytes).hexdigest(),
                bytes=len(member_bytes),
            ),
        )
        with pytest.raises(BundleFormatError, match="arbitrary_code"):
            load_bundle(packed_bundle)

    def test_missing_manifest(self, packed_bundle):
        (packed_bundle / "manifest.json").unlink()
        with pytest.raises(BundleIntegrityError, match="manifest.json"):
            load_bundle(packed_bundle)

    def test_nonexistent_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bundle(tmp_path / "nowhere")

    def test_bundle_error_is_value_error(self):
        """Callers can catch the whole family as ValueError."""
        assert issubclass(BundleError, ValueError)
        assert issubclass(BundleIntegrityError, BundleError)
        assert issubclass(BundleFormatError, BundleError)


def _kill_before_rename(monkeypatch):
    """Kill every save at the shared writer's commit point, after the new
    artifact is written in full beside its path and before it is renamed."""
    import repro.artifact as artifact

    def killed(tmp, path):
        assert tmp.exists()
        raise OSError("killed between write and rename")

    monkeypatch.setattr(artifact, "_commit", killed)


class TestAtomicZipSave:
    """A zip save that dies midway keeps the previous bundle at its path."""

    def _assert_old_bundle_intact(self, path, before):
        assert path.read_bytes() == before
        assert sorted(p.name for p in path.parent.iterdir()) == [path.name]

    def test_save_bundle(self, packed_classifier_bundle, fitted_logistic, monkeypatch):
        from repro.serve.bundle import verify_bundle

        path = packed_classifier_bundle
        before = path.read_bytes()
        _kill_before_rename(monkeypatch)
        newer = ModelBundle.create("blobs-clf", "2", classifier=fitted_logistic)
        with pytest.raises(OSError, match="killed"):
            save_bundle(newer, path)
        monkeypatch.undo()
        self._assert_old_bundle_intact(path, before)
        manifest, _ = verify_bundle(path)
        assert manifest.version == "1"
        assert load_bundle(path).manifest.version == "1"

    def test_save_delta_bundle(
        self, packed_classifier_bundle, fitted_logistic, blob_data, monkeypatch
    ):
        from repro.ml.preprocessing import StandardScaler
        from repro.serve.bundle import save_delta_bundle, verify_bundle

        parent = load_bundle(packed_classifier_bundle)
        path = packed_classifier_bundle.parent / "delta.zip"
        # The scaler is the member the delta ships beside its manifest.
        child = ModelBundle.create(
            "blobs-clf", "2", classifier=fitted_logistic, scaler=StandardScaler().fit(blob_data[0])
        )
        save_delta_bundle(child, path, parent.manifest)
        before = path.read_bytes()
        _kill_before_rename(monkeypatch)
        with pytest.raises(OSError, match="killed"):
            save_delta_bundle(child, path, parent.manifest)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert {p.name for p in path.parent.iterdir()} == {path.name, packed_classifier_bundle.name}
        manifest, _ = verify_bundle(path, parent_resolver=lambda ref: packed_classifier_bundle)
        assert manifest.version == "2"

    def test_save_gate_bundle(self, tmp_path, monkeypatch):
        from repro.serve.bundle import load_gate_bundle, save_gate_bundle

        from tests.serve.test_gate_bundle import _report

        path = tmp_path / "gate.zip"
        save_gate_bundle(_report(), path, version="1")
        before = path.read_bytes()
        _kill_before_rename(monkeypatch)
        with pytest.raises(OSError, match="killed"):
            save_gate_bundle(_report(), path, version="2")
        monkeypatch.undo()
        self._assert_old_bundle_intact(path, before)
        manifest, _ = load_gate_bundle(path)
        assert manifest.version == "1"


def _tree(path):
    return {p.relative_to(path): p.read_bytes() for p in path.rglob("*") if p.is_file()}


class TestAtomicDirectorySave:
    """A directory save is written beside its path and renamed into place."""

    def test_crash_between_write_and_rename_keeps_old_bundle(
        self, packed_bundle, fitted_logistic, monkeypatch
    ):
        from repro.serve.bundle import verify_bundle

        before = _tree(packed_bundle)
        newer = ModelBundle.create("blobs", "2", classifier=fitted_logistic)
        _kill_before_rename(monkeypatch)
        with pytest.raises(OSError, match="killed"):
            save_bundle(newer, packed_bundle)
        monkeypatch.undo()
        assert _tree(packed_bundle) == before
        assert [p.name for p in packed_bundle.parent.iterdir()] == [packed_bundle.name]
        manifest, _ = verify_bundle(packed_bundle)
        assert manifest.version == "1"
        assert load_bundle(packed_bundle).cnn is not None

        # Without the crash the same save replaces the old bundle whole.
        save_bundle(newer, packed_bundle)
        assert [p.name for p in packed_bundle.parent.iterdir()] == [packed_bundle.name]
        replaced = load_bundle(packed_bundle)
        assert replaced.manifest.version == "2" and replaced.cnn is None

    def test_save_over_a_non_bundle_directory_raises(self, tmp_path, fitted_logistic):
        target = tmp_path / "models"
        (target / "notes").mkdir(parents=True)
        (target / "classifier.json").write_text("not a bundle member")
        (target / "notes" / "todo.txt").write_text("keep me")
        before = _tree(target)
        bundle = ModelBundle.create("blobs", "1", classifier=fitted_logistic)
        with pytest.raises(FileExistsError, match="manifest.json"):
            save_bundle(bundle, target)
        assert _tree(target) == before
        assert [p.name for p in tmp_path.iterdir()] == [target.name]
