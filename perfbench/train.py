"""``train`` workload: the paper's seven classifier rows on one fixed scenario.

Set-up collects ``tess-loud-oneplus7t`` once (140 utterances, seed from
``--seed``). One operation fits and evaluates all seven rows with the
80/20 split of ``run_feature_experiment`` / ``run_spectrogram_experiment``:
the five classical classifiers, the feature CNN and the spectrogram CNN,
whose epoch counts are cut so that one operation takes a few seconds.
Nearly all of the time is ``repro.nn`` training kernels and ``repro.ml``
fits; there is no collection and no serving in the timed loop.

Output check: every row scores above chance, and every operation
reproduces the first operation's accuracies exactly (fits are
deterministic per seed with BLAS pinned to one thread).
"""

from __future__ import annotations

from harness import op_outcome, per_op

SCENARIO = "tess-loud-oneplus7t"
SUBSAMPLE = 20  # utterances per emotion
CLASSICAL = ("logistic", "multiclass", "lmt", "random_forest", "random_subspace")
ROWS = CLASSICAL + ("cnn", "cnn_spectrogram")
FEATURE_CNN = {"epochs": 15, "width_scale": 0.5}
SPECTROGRAM_CNN = {"epochs": 8, "width_scale": 0.25, "lr": 3e-3}
NN_LAYERS = (
    "Conv2D", "Conv1D", "Dense", "MaxPool2D", "MaxPool1D",
    "BatchNorm", "Dropout", "ReLU", "Flatten",
)


def _classifier(row, seed):
    from repro.eval.experiment import (
        FeatureCNNClassifier,
        SpectrogramCNNClassifier,
        make_classifier,
    )

    if row == "cnn":
        return FeatureCNNClassifier(seed=seed, **FEATURE_CNN)
    if row == "cnn_spectrogram":
        return SpectrogramCNNClassifier(seed=seed, **SPECTROGRAM_CNN)
    return make_classifier(row, seed=seed, fast=True)


def run(seed, seconds, trace, workdir, inject_fault=False):
    import numpy as np
    from repro.attack.engine import CollectionCache
    from repro.eval.experiment import collect_scenario_datasets
    from repro.ml.metrics import accuracy_score
    from repro.ml.preprocessing import clean_features, train_test_split

    def setup_steps():
        return [lambda: collect_scenario_datasets(
            SCENARIO, subsample=SUBSAMPLE, seed=seed, executor="serial",
            cache=CollectionCache(),
        )]

    reference = {}

    def make_op(bundle):
        X, y, _ = clean_features(bundle.features.X, bundle.features.y)
        images, image_labels = bundle.spectrograms.images, bundle.spectrograms.y
        splits = {
            row: train_test_split(
                *((images, image_labels) if row == "cnn_spectrogram" else (X, y)),
                test_fraction=0.2, seed=seed,
            )
            for row in ROWS
        }
        chance = {
            row: 1.0 / np.unique(image_labels if row == "cnn_spectrogram" else y).size
            for row in ROWS
        }

        def op(k):
            steps, predictions, work = [], {}, 0
            for row in ROWS:
                X_train, X_test, y_train, _ = splits[row]
                model = _classifier(row, seed)
                steps.append((f"ml.{row}.fit", lambda m=model, a=X_train, b=y_train: m.fit(a, b)))
                steps.append((f"ml.{row}.predict", lambda row=row, m=model, a=X_test: (
                    predictions.__setitem__(row, m.predict(a))
                )))
                work += X_train.shape[0] * getattr(model, "epochs", 1)

            def check():
                accuracies = {
                    row: accuracy_score(splits[row][3], predictions[row]) for row in ROWS
                }
                if not reference:
                    reference.update(accuracies)
                    if inject_fault:
                        reference["cnn"] = -1.0
                return all(
                    acc > chance[row] and acc == reference[row]
                    for row, acc in accuracies.items()
                )

            return steps, work, check

        return op

    outcome, _, traced = op_outcome(make_op, setup_steps, seconds, trace, _install)
    if traced is None:
        return outcome
    table, n_ops = traced
    # Call counts are fixed by the epoch counts, so only busy time is reported.
    names = [f"nn.{layer}.{d}" for layer in NN_LAYERS for d in ("forward", "backward")]
    names += ["nn.loss", "nn.optimizer"]
    names += [f"ml.{row}.{step}" for row in ROWS for step in ("fit", "predict")]
    for name in names:
        outcome.layers.update(per_op(table, name, n_ops, calls=False))
    # Fit-loop time of the two CNNs outside every wrapped nn call.
    nn_self_s = sum(table[f"ml.{row}.fit"]["self_s"] for row in ("cnn", "cnn_spectrogram"))
    outcome.layers["nn.self_ms"] = 1e3 * nn_self_s / n_ops
    return outcome


def _install(recorder, _state):
    from repro.nn import layers
    from repro.nn.losses import CategoricalCrossEntropy
    from repro.nn.optim import Adam

    for layer in NN_LAYERS:
        cls = getattr(layers, layer)
        recorder.wrap(cls, "forward", f"nn.{layer}.forward")
        recorder.wrap(cls, "backward", f"nn.{layer}.backward")
    recorder.wrap(CategoricalCrossEntropy, "forward_codes", "nn.loss")
    recorder.wrap(CategoricalCrossEntropy, "backward", "nn.loss")
    recorder.wrap(Adam, "step", "nn.optimizer")
