#!/usr/bin/env python
"""Full attacker workflow: scarce data, augmentation, training, deployment.

The paper's attacker model has two phases: an offline phase where the
attacker records known audio on matching hardware to train a model, and
a deployment phase where that model classifies the victim's motion
traces. This example runs the whole workflow with the library's
production features:

1. capture a *scarce* training set (the attacker rarely controls much
   recording time);
2. expand it with region-level augmentation;
3. train the paper's feature CNN with early stopping;
4. persist both models (CNN weights to .npz, random forest to a hashed
   .zip artifact holding its JSON);
5. reload them in a fresh "deployed" instance and attack unseen traces.

Run:
    python examples/attacker_workflow.py
"""

import tempfile
from pathlib import Path


from repro.attack import EmoLeakAttack, RegionAugmenter, augmented_feature_dataset
from repro.datasets import build_tess
from repro.eval.experiment import FeatureCNNClassifier
from repro.ml import (
    RandomForest,
    accuracy_score,
    clean_features,
    load_classifier,
    save_classifier,
)
from repro.phone import VibrationChannel


def main() -> None:
    print("EmoLeak attacker workflow")
    print("=" * 60)
    corpus = build_tess(words_per_emotion=25, seed=1)
    channel = VibrationChannel("oneplus7t")

    # --- Phase 1: offline training on scarce attacker recordings -------
    train_corpus = corpus.subsample(per_class=8, seed=3)
    train_ids = {s.utterance_id for s in train_corpus.specs}
    print(f"attacker captures: {len(train_corpus)} utterances "
          f"({len(train_corpus) // 7} per emotion)")

    augmenter = RegionAugmenter(copies=3, seed=3)
    train = augmented_feature_dataset(
        corpus, channel, augmenter, specs=train_corpus.specs, seed=3
    )
    X_train, y_train, _ = clean_features(train.X, train.y)
    print(f"after 3x augmentation: {X_train.shape[0]} training rows")

    forest = RandomForest(n_estimators=30, seed=0)
    forest.fit(X_train, y_train)

    cnn = FeatureCNNClassifier(epochs=60, width_scale=0.5, seed=0)
    cnn.fit(X_train, y_train)
    print(f"feature CNN trained for {len(cnn.history_.loss)} epochs "
          f"(final loss {cnn.history_.loss[-1]:.3f})")

    # --- Phase 2: persist and redeploy ----------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        forest_path = Path(tmp) / "forest.zip"
        save_classifier(forest, forest_path)
        deployed_forest = load_classifier(forest_path)
        print(f"forest model persisted: {forest_path.stat().st_size} bytes (verified JSON artifact)")

        # --- Phase 3: attack unseen victim traces ----------------------
        victim_specs = [s for s in corpus.specs
                        if s.utterance_id not in train_ids]
        victim = EmoLeakAttack(channel, seed=11).collect_features(
            corpus, specs=victim_specs
        )
        X_victim, y_victim, _ = clean_features(victim.X, victim.y)
        print(f"victim traces: {X_victim.shape[0]} recovered regions")

        for name, model in (("random forest", deployed_forest), ("CNN", cnn)):
            accuracy = accuracy_score(y_victim, model.predict(X_victim))
            print(f"  deployed {name:<13} accuracy {accuracy:6.2%} "
                  f"(chance 14.29%)")


if __name__ == "__main__":
    main()
