"""Sequential model container with a Keras-style training loop.

``fit`` records per-epoch training and validation loss/accuracy in a
:class:`History`, which is exactly what the paper's Fig. 7 plots.

The container is policy-aware: layers build their parameters in the
:mod:`repro.nn.policy` compute dtype (pinned per model at build time)
and inputs are cast to that dtype on entry. Layers run through an
execution plan (:func:`repro.nn.layers.execution_plan`) that fuses each
``ReLU -> Dropout -> MaxPool`` run into one unit; the layer list, and
so every weight key, stays as given. ``fit`` accumulates per-unit
forward/backward wall time and records it as ``layer_forward`` /
``layer_backward`` spans on the ambient :mod:`repro.obs` tracer when
training ends, so a trace of a CNN cell shows where the epochs
actually went.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.artifact import describe_source as describe_checkpoint_source
from repro.artifact import read_artifact, write_artifact
from repro.nn.activations import softmax
from repro.nn.layers import Layer, _release_input, execution_plan
from repro.nn.losses import CategoricalCrossEntropy
from repro.nn.optim import Adam
from repro.nn.policy import get_policy

__all__ = ["Sequential", "History", "describe_checkpoint_source", "forward_batched"]


def forward_batched(forward, X: np.ndarray, batch_size: int, n_classes: int) -> np.ndarray:
    """Logits of ``forward`` over ``X``, ``batch_size`` rows at a time.

    A single slice comes back as ``forward`` returned it; zero rows give
    ``(0, n_classes)`` logits in ``X``'s dtype.
    """
    chunks = [
        forward(X[start : start + batch_size])
        for start in range(0, X.shape[0], batch_size)
    ]
    if not chunks:
        return np.empty((0, n_classes), dtype=X.dtype)
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks, axis=0)


def _checked(bundle, key: str, current: np.ndarray, source: str) -> np.ndarray:
    """Checkpoint entry ``key``, which must exist with ``current``'s shape."""
    if key not in bundle:
        raise ValueError(f"checkpoint {source}: missing {key}")
    stored = bundle[key]
    if stored.shape != current.shape:
        raise ValueError(
            f"checkpoint {source}: {key}: shape {stored.shape} != expected {current.shape}"
        )
    return stored


@dataclass
class History:
    """Per-epoch training curves (the data behind paper Fig. 7)."""

    loss: List[float] = field(default_factory=list)
    accuracy: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    val_accuracy: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "loss": list(self.loss),
            "accuracy": list(self.accuracy),
            "val_loss": list(self.val_loss),
            "val_accuracy": list(self.val_accuracy),
        }


class Sequential:
    """A linear stack of layers trained with softmax cross-entropy.

    Parameters
    ----------
    layers:
        The layer stack (unbuilt; shapes are inferred at first fit).
    n_classes:
        Output dimensionality (the final Dense layer must produce this).
    seed:
        Weight-initialisation seed.
    """

    def __init__(self, layers: Sequence[Layer], n_classes: int, seed: int = 0):
        if n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        self.layers = list(layers)
        self._plan = execution_plan(self.layers)
        self.n_classes = int(n_classes)
        self.seed = int(seed)
        self.loss_fn = CategoricalCrossEntropy()
        self._built = False
        self._dtype = get_policy().compute_dtype

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Build every layer given the per-sample input shape."""
        rng = np.random.default_rng(self.seed)
        self._dtype = get_policy().compute_dtype
        shape = tuple(input_shape)
        self.input_shape_: Tuple[int, ...] = shape
        for layer in self.layers:
            layer.build(shape, rng)
            shape = layer.output_shape(shape)
        if shape != (self.n_classes,):
            raise ValueError(
                f"model output shape {shape} != (n_classes={self.n_classes},)"
            )
        self._plan = execution_plan(self.layers)
        self._built = True

    def _forward(self, x: np.ndarray, training: bool) -> np.ndarray:
        """Logits of ``x``; an inference pass keeps nothing for a backward."""
        out = x
        for _, unit in self._plan:
            out = unit.forward(out, training)
            if not training:
                _release_input(unit)
        return out

    def _backward(self, grad: np.ndarray) -> None:
        for _, unit in reversed(self._plan):
            grad = unit.backward(grad)

    def _forward_timed(self, x: np.ndarray, seconds: np.ndarray) -> np.ndarray:
        out = x
        for i, (_, unit) in enumerate(self._plan):
            t0 = time.perf_counter()
            out = unit.forward(out, True)
            seconds[i] += time.perf_counter() - t0
        return out

    def _backward_timed(self, grad: np.ndarray, seconds: np.ndarray) -> None:
        for i in range(len(self._plan) - 1, -1, -1):
            t0 = time.perf_counter()
            grad = self._plan[i][1].backward(grad)
            seconds[i] += time.perf_counter() - t0

    def _record_layer_spans(self, fwd_s: np.ndarray, bwd_s: np.ndarray) -> None:
        """Attach accumulated per-unit timings as spans on the tracer.

        One span per executed unit: a fused tail is labelled with its
        layers, e.g. ``1-3:ReLU+Dropout+MaxPool2D``.
        """
        from repro.obs import tracer

        tr = tracer()
        for i, (name, _) in enumerate(self._plan):
            tr.record(
                "layer_forward", fwd_s[i], metric_labels={"layer": name}, layer=name
            )
            tr.record(
                "layer_backward", bwd_s[i], metric_labels={"layer": name}, layer=name
            )

    def _forward_batched(self, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Logits for ``X`` in inference mode, computed in batches."""
        if not self._built:
            raise RuntimeError("model is not built/fitted")
        X = np.asarray(X, dtype=self._dtype)
        return forward_batched(
            lambda x: self._forward(x, training=False), X, batch_size, self.n_classes
        )

    def predict_proba(self, X: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Class probabilities, computed in inference mode."""
        return softmax(self._forward_batched(X, batch_size))

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Argmax class codes."""
        return np.argmax(self.predict_proba(X), axis=1)

    def evaluate(
        self, X: np.ndarray, y_codes: np.ndarray, batch_size: int = 256
    ) -> Tuple[float, float]:
        """(loss, accuracy) in inference mode, via the shared loss."""
        y_codes = np.asarray(y_codes, dtype=int)
        logits = self._forward_batched(X, batch_size)
        loss, proba = self.loss_fn.forward_codes(logits, y_codes)
        acc = float(np.mean(np.argmax(proba, axis=1) == y_codes))
        return loss, acc

    def fit(
        self,
        X: np.ndarray,
        y_codes: np.ndarray,
        epochs: int = 20,
        batch_size: int = 32,
        optimizer=None,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        shuffle_seed: int = 0,
        verbose: bool = False,
        callbacks: Optional[Sequence] = None,
    ) -> History:
        """Train with minibatch gradient descent.

        ``y_codes`` are integer class codes in ``[0, n_classes)``.
        ``callbacks`` are :class:`repro.nn.callbacks.Callback` instances;
        any callback returning True from ``on_epoch_end`` stops training.
        """
        X = np.asarray(X)
        y_codes = np.asarray(y_codes, dtype=int)
        if X.shape[0] != y_codes.shape[0]:
            raise ValueError(
                f"X has {X.shape[0]} samples but y has {y_codes.shape[0]}"
            )
        if y_codes.size and (y_codes.min() < 0 or y_codes.max() >= self.n_classes):
            raise ValueError("class codes out of range")
        if not self._built:
            self.build(X.shape[1:])
        X = np.asarray(X, dtype=self._dtype)
        optimizer = optimizer or Adam()
        callbacks = list(callbacks or [])
        for callback in callbacks:
            callback.on_train_begin(optimizer)
        rng = np.random.default_rng(shuffle_seed)
        history = History()
        n = X.shape[0]
        fwd_s = np.zeros(len(self._plan))
        bwd_s = np.zeros(len(self._plan))
        try:
            for epoch in range(epochs):
                order = rng.permutation(n)
                epoch_loss = 0.0
                epoch_correct = 0
                for start in range(0, n, batch_size):
                    idx = order[start : start + batch_size]
                    codes = y_codes[idx]
                    logits = self._forward_timed(X[idx], fwd_s)
                    loss, proba = self.loss_fn.forward_codes(logits, codes)
                    epoch_loss += loss * idx.size
                    epoch_correct += int(
                        np.sum(np.argmax(proba, axis=1) == codes)
                    )
                    self._backward_timed(self.loss_fn.backward(), bwd_s)
                    params, grads = self._params_grads()
                    optimizer.step(params, grads)
                history.loss.append(epoch_loss / n)
                history.accuracy.append(epoch_correct / n)
                if validation_data is not None:
                    val_loss, val_acc = self.evaluate(*validation_data)
                    history.val_loss.append(val_loss)
                    history.val_accuracy.append(val_acc)
                if verbose:
                    msg = (
                        f"epoch {epoch + 1}/{epochs} "
                        f"loss={history.loss[-1]:.4f} acc={history.accuracy[-1]:.4f}"
                    )
                    if validation_data is not None:
                        msg += (
                            f" val_loss={history.val_loss[-1]:.4f}"
                            f" val_acc={history.val_accuracy[-1]:.4f}"
                        )
                    print(msg)
                if any(cb.on_epoch_end(epoch, history, optimizer) for cb in callbacks):
                    break
        finally:
            self._record_layer_spans(fwd_s, bwd_s)
        return history

    def _params_grads(self):
        params, grads = [], []
        for layer in self.layers:
            params.extend(layer.params)
            grads.extend(layer.grads)
        return params, grads

    # -- persistence --------------------------------------------------------
    def save_weights(self, path) -> None:
        """Persist all layer parameters (and BatchNorm statistics) as a
        :mod:`repro.artifact` container, one hashed ``.npy`` member per
        array. ``path`` is a file path (``.npz``/``.zip``: an archive,
        else a directory), replaced atomically, or a binary file object.
        """
        if not self._built:
            raise RuntimeError("model is not built/fitted")
        arrays = {}
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.params):
                arrays[f"layer{i}_param{j}.npy"] = param
            if hasattr(layer, "running_mean"):
                arrays[f"layer{i}_running_mean.npy"] = layer.running_mean
                arrays[f"layer{i}_running_var.npy"] = layer.running_var
        write_artifact(path, arrays, lambda table: {"members": table})

    def load_weights(self, path, input_shape: Optional[Tuple[int, ...]] = None) -> None:
        """Restore parameters saved by :meth:`save_weights`.

        An unbuilt model needs ``input_shape`` to allocate its layers
        before loading. Every member's hash is checked before any
        parameter changes, and every error names the checkpoint being
        loaded, so a bad artifact in a directory of checkpoints is
        identifiable from the exception alone.
        """
        if not self._built:
            if input_shape is None:
                raise RuntimeError(
                    "model is not built; pass input_shape to load_weights"
                )
            self.build(input_shape)
        source = describe_checkpoint_source(path)
        _, members = read_artifact(path)
        bundle = {name[: -len(".npy")]: array for name, array in members.items()}
        # Check every entry's presence and shape first, so a mismatched
        # checkpoint raises with the model untouched.
        params, stats = [], []
        for i, layer in enumerate(self.layers):
            for j, param in enumerate(layer.params):
                params.append((param, _checked(bundle, f"layer{i}_param{j}", param, source)))
            if hasattr(layer, "running_mean"):
                for stat in ("running_mean", "running_var"):
                    stored = _checked(bundle, f"layer{i}_{stat}", getattr(layer, stat), source)
                    stats.append((layer, stat, stored))
        for param, stored in params:
            param[...] = stored
        for layer, stat, stored in stats:
            setattr(layer, stat, stored.astype(getattr(layer, stat).dtype, copy=False))
