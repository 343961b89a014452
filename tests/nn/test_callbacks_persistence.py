"""Tests for NN callbacks and model weight persistence."""

import io
import zipfile

import numpy as np
import pytest

from repro.artifact import ArtifactIntegrityError, read_artifact, write_artifact
from repro.nn.callbacks import EarlyStopping, StepDecay
from repro.nn.layers import BatchNorm, Conv1D, Dense, Flatten, MaxPool1D, ReLU
from repro.nn.model import Sequential
from repro.nn.optim import Adam, SGD


def blobs(n_per_class=50, k=3, d=6, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 3.0, size=(k, d))
    X = np.vstack(
        [centers[i] + 0.6 * rng.normal(size=(n_per_class, d)) for i in range(k)]
    )
    y = np.repeat(np.arange(k), n_per_class)
    return X, y


def mlp(k=3, seed=0):
    return Sequential([Dense(16), ReLU(), Dense(k)], n_classes=k, seed=seed)


def checkpoint_arrays(path):
    """The named arrays of a checkpoint written by ``save_weights``."""
    _, members = read_artifact(path)
    return {name[: -len(".npy")]: array for name, array in members.items()}


def write_checkpoint(path, arrays):
    """A well-formed checkpoint holding exactly ``arrays``."""
    members = {f"{name}.npy": array for name, array in arrays.items()}
    write_artifact(path, members, lambda table: {"members": table})


class TestEarlyStopping:
    def test_stops_on_plateau(self):
        X, y = blobs()
        model = mlp()
        # min_delta sets the plateau bar: stop once per-epoch improvement
        # drops below 0.01 nats for 3 consecutive epochs.
        stopper = EarlyStopping(monitor="loss", patience=2, min_delta=0.01)
        history = model.fit(X, y, epochs=200, callbacks=[stopper])
        assert len(history.loss) < 200
        assert stopper.stopped_epoch_ is not None

    def test_monitors_validation(self):
        X, y = blobs()
        model = mlp()
        stopper = EarlyStopping(monitor="val_accuracy", patience=3)
        history = model.fit(
            X, y, epochs=100, validation_data=(X, y), callbacks=[stopper]
        )
        assert len(history.val_accuracy) <= 100

    def test_no_validation_series_is_noop(self):
        X, y = blobs()
        model = mlp()
        stopper = EarlyStopping(monitor="val_loss", patience=0)
        history = model.fit(X, y, epochs=5, callbacks=[stopper])
        assert len(history.loss) == 5  # nothing to monitor, never stops

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EarlyStopping(monitor="f1")
        with pytest.raises(ValueError):
            EarlyStopping(patience=-1)

    def test_reusable_across_fits(self):
        X, y = blobs()
        stopper = EarlyStopping(monitor="loss", patience=1)
        for _ in range(2):
            model = mlp()
            model.fit(X, y, epochs=30, callbacks=[stopper])
        # on_train_begin reset state; second run also trained.
        assert stopper.best_ is not None


class TestStepDecay:
    def test_decays_lr(self):
        X, y = blobs()
        model = mlp()
        optimizer = Adam(lr=1e-2)
        model.fit(
            X, y, epochs=10, optimizer=optimizer,
            callbacks=[StepDecay(factor=0.5, every=5)],
        )
        assert optimizer.lr == pytest.approx(1e-2 * 0.25)

    def test_min_lr_floor(self):
        X, y = blobs()
        model = mlp()
        optimizer = SGD(lr=1e-3)
        model.fit(
            X, y, epochs=20, optimizer=optimizer,
            callbacks=[StepDecay(factor=0.1, every=1, min_lr=1e-5)],
        )
        assert optimizer.lr == pytest.approx(1e-5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            StepDecay(factor=0.0)
        with pytest.raises(ValueError):
            StepDecay(every=0)


class TestWeightPersistence:
    def test_round_trip_mlp(self, tmp_path):
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=20)
        path = tmp_path / "weights.npz"
        model.save_weights(path)
        clone = mlp()
        clone.load_weights(path, input_shape=(6,))
        assert np.allclose(model.predict_proba(X), clone.predict_proba(X))

    def test_round_trip_with_batchnorm(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 8, 1))
        y = (X.mean(axis=(1, 2)) > 0).astype(int)
        def build():
            return Sequential(
                [Conv1D(4, 3), BatchNorm(), ReLU(), MaxPool1D(2),
                 Flatten(), Dense(2)],
                n_classes=2, seed=0,
            )
        model = build()
        model.fit(X, y, epochs=10)
        path = tmp_path / "bn.npz"
        model.save_weights(path)
        clone = build()
        clone.load_weights(path, input_shape=(8, 1))
        assert np.allclose(model.predict_proba(X), clone.predict_proba(X))

    def test_unbuilt_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            mlp().save_weights(tmp_path / "x.npz")

    def test_load_needs_shape_when_unbuilt(self, tmp_path):
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=2)
        path = tmp_path / "w.npz"
        model.save_weights(path)
        with pytest.raises(RuntimeError):
            mlp().load_weights(path)

    def test_shape_mismatch_detected(self, tmp_path):
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=2)
        path = tmp_path / "w.npz"
        model.save_weights(path)
        other = Sequential([Dense(8), ReLU(), Dense(3)], n_classes=3, seed=0)
        with pytest.raises(ValueError):
            other.load_weights(path, input_shape=(6,))

    def _batchnorm_checkpoint(self, tmp_path):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(40, 8, 1))
        y = (X.mean(axis=(1, 2)) > 0).astype(int)

        def build():
            return Sequential(
                [Conv1D(4, 3), BatchNorm(), ReLU(), MaxPool1D(2),
                 Flatten(), Dense(2)],
                n_classes=2, seed=0,
            )

        model = build()
        model.fit(X, y, epochs=2)
        path = tmp_path / "bn.npz"
        model.save_weights(path)
        return build, path

    def test_missing_running_stats_is_valueerror(self, tmp_path):
        """A checkpoint without BatchNorm stats names the missing key."""
        build, path = self._batchnorm_checkpoint(tmp_path)
        arrays = {k: v for k, v in checkpoint_arrays(path).items()
                  if not k.endswith("running_mean")}
        stripped = tmp_path / "stripped.npz"
        write_checkpoint(stripped, arrays)
        with pytest.raises(ValueError, match="layer1_running_mean"):
            build().load_weights(stripped, input_shape=(8, 1))

    def test_running_stats_shape_mismatch_detected(self, tmp_path):
        build, path = self._batchnorm_checkpoint(tmp_path)
        arrays = checkpoint_arrays(path)
        arrays["layer1_running_var"] = np.ones(7)
        broken = tmp_path / "broken.npz"
        write_checkpoint(broken, arrays)
        with pytest.raises(ValueError, match="layer1_running_var"):
            build().load_weights(broken, input_shape=(8, 1))

    def test_bad_running_stat_leaves_the_model_unchanged(self, tmp_path):
        build, path = self._batchnorm_checkpoint(tmp_path)
        arrays = checkpoint_arrays(path)
        arrays["layer1_running_var"] = np.ones(7)
        broken = tmp_path / "broken.npz"
        write_checkpoint(broken, arrays)
        model = build()
        model.build((8, 1))
        norm = model.layers[1]
        before = [param.copy() for layer in model.layers for param in layer.params]
        stats = (norm.running_mean.copy(), norm.running_var.copy())
        with pytest.raises(ValueError, match="layer1_running_var"):
            model.load_weights(broken)
        after = [param for layer in model.layers for param in layer.params]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))
        assert norm.running_mean.tobytes() == stats[0].tobytes()
        assert norm.running_var.tobytes() == stats[1].tobytes()


class TestCheckpointErrorNaming:
    """Regression guard: checkpoint errors name the offending source, so
    a bad weights member inside a serving bundle is identifiable."""

    def _checkpoint(self, tmp_path):
        X, y = blobs()
        model = mlp()
        model.fit(X, y, epochs=2)
        path = tmp_path / "weights.npz"
        model.save_weights(path)
        return path

    def test_missing_key_names_checkpoint_path(self, tmp_path):
        path = self._checkpoint(tmp_path)
        arrays = {k: v for k, v in checkpoint_arrays(path).items() if not k.endswith("param0")}
        stripped = tmp_path / "stripped.npz"
        write_checkpoint(stripped, arrays)
        with pytest.raises(ValueError, match=r"checkpoint .*stripped\.npz"):
            mlp().load_weights(stripped, input_shape=(6,))

    def test_shape_mismatch_names_checkpoint_path(self, tmp_path):
        path = self._checkpoint(tmp_path)
        other = Sequential([Dense(8), ReLU(), Dense(3)], n_classes=3, seed=0)
        with pytest.raises(ValueError, match=r"checkpoint .*weights\.npz"):
            other.load_weights(path, input_shape=(6,))

    def test_tampered_weight_is_refused_and_named(self, tmp_path):
        """A weight changed inside an otherwise valid archive fails its
        hash before any parameter is overwritten."""
        path = self._checkpoint(tmp_path)
        with zipfile.ZipFile(path) as zf:
            members = {info.filename: zf.read(info) for info in zf.infolist()}
        weights = np.load(io.BytesIO(members["layer0_param0.npy"]))
        weights.flat[0] += 1.0
        buffer = io.BytesIO()
        np.save(buffer, weights)
        members["layer0_param0.npy"] = buffer.getvalue()
        with zipfile.ZipFile(path, "w") as zf:
            for name, data in members.items():
                zf.writestr(name, data)
        clone = mlp()
        clone.build((6,))
        before = [param.copy() for layer in clone.layers for param in layer.params]
        with pytest.raises(ArtifactIntegrityError, match=r"weights\.npz.*layer0_param0"):
            clone.load_weights(path)
        after = [param for layer in clone.layers for param in layer.params]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_mismatch_leaves_every_parameter_unchanged(self, tmp_path):
        """A 3-class checkpoint in a 4-class model fails at layer 2 before
        layer 0 is written."""
        path = self._checkpoint(tmp_path)
        other = mlp(k=4, seed=1)
        other.build((6,))
        before = [param.copy() for layer in other.layers for param in layer.params]
        with pytest.raises(ValueError, match=r"weights\.npz: layer2_param0: shape"):
            other.load_weights(path)
        after = [param for layer in other.layers for param in layer.params]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))

    def test_file_objects_name_their_label(self, tmp_path):
        """In-memory checkpoints (bundle members) surface their .name."""
        from repro.nn.model import describe_checkpoint_source

        path = self._checkpoint(tmp_path)
        buffer = io.BytesIO(path.read_bytes())
        buffer.name = "bundle.zip:cnn_weights.npz"
        other = Sequential([Dense(8), ReLU(), Dense(3)], n_classes=3, seed=0)
        with pytest.raises(ValueError, match=r"checkpoint bundle\.zip:cnn_weights\.npz"):
            other.load_weights(buffer, input_shape=(6,))
        assert describe_checkpoint_source(path) == str(path)
        assert describe_checkpoint_source(io.BytesIO()) == "<BytesIO>"
