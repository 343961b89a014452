"""``collect`` workload: TESS at benchmark scale through the collection engine.

One operation is three steps on one pass: collect it on a fresh seed
(cache miss, stored to disk), reopen its key through a new
``CollectionCache`` on the same directory (disk hit), and relabel it to
``task="gender"`` (re-label from the cached products). It loads render,
transmit, detect and the Table II / spectrogram products, plus the
cache's write, read and relabel paths, and none of ``repro.nn`` or
``repro.serve``.

Output check: each pass's feature and image digests must equal the ones
committed in ``collect_digests.json`` (the float64 batch policy is
byte-stable), and the reopened and relabelled passes must hold the same
bytes as the pass they came from.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from harness import op_outcome, per_op

#: 2 speakers x 7 emotions x 30 words = 420 utterances.
WORDS_PER_EMOTION = 30
CORPUS_SEED = 1
DEVICE = "oneplus7t"
#: Collection seeds come from this pool so every one has a committed digest.
SEED_BASE = 1000
SEED_POOL = 64
WARM_SEED = 999
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "collect_digests.json")

#: Spans of the wrapped layer calls, reported per operation.
LAYERS = (
    "datasets.render_batch",
    "phone.transmit_batch",
    "attack.regions.detect_batch",
    "attack.features.extract_features_batch",
    "attack.specimages.images_batch",
    "attack.engine.cache_store",
    "attack.engine.cache_lookup",
    "attack.engine.relabel",
)
#: The operation's steps (root spans); their self time is orchestration.
ORCHESTRATION = ("attack.engine.collect", "attack.engine.reopen", "attack.engine.relabel")


def pass_seed(run_seed, k):
    return SEED_BASE + (run_seed + k) % SEED_POOL


def digest(result):
    features, images = result.features, result.spectrograms
    h_feat = hashlib.sha256(features.X.tobytes() + "|".join(features.y).encode())
    h_img = hashlib.sha256(images.images.tobytes() + "|".join(images.y).encode())
    return {"features": h_feat.hexdigest()[:32], "images": h_img.hexdigest()[:32]}


def _corpus_and_channel():
    from repro.datasets import build_tess
    from repro.phone import VibrationChannel

    corpus = build_tess(words_per_emotion=WORDS_PER_EMOTION, seed=CORPUS_SEED)
    channel = VibrationChannel(DEVICE, mode="loudspeaker", placement="table_top")
    return corpus, channel


def _collect(corpus, channel, seed, cache=None, task="emotion"):
    from repro.attack.engine import collect_datasets

    return collect_datasets(
        corpus, channel, seed=seed, executor="serial", pipeline="batched",
        cache=cache, task=task,
    )


def write_digests():
    """Recompute the committed digest table (run after a deliberate numeric change)."""
    corpus, channel = _corpus_and_channel()
    table = {
        str(seed): digest(_collect(corpus, channel, seed))
        for seed in range(SEED_BASE, SEED_BASE + SEED_POOL)
    }
    with open(DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return DIGESTS_PATH


def run(seed, seconds, trace, workdir, inject_fault=False):
    from repro.attack.engine import CollectionCache

    with open(DIGESTS_PATH) as handle:
        expected = json.load(handle)
    if inject_fault:
        first = str(pass_seed(seed, 0))
        expected[first] = dict(expected[first], features="0" * 32)
    cache_dir = os.path.join(workdir, "collection-cache")
    counts, rates = [], []  # (cache hits, cache misses) and extraction rate per op

    def setup_steps():
        # Building the corpus and one uncached pass fill every lazy
        # process-wide cache (filter designs, glottal pulse bank, ramp
        # LRU) before timing starts.
        built = {}

        def build():
            built["corpus"], built["channel"] = _corpus_and_channel()

        def warm():
            _collect(built["corpus"], built["channel"], WARM_SEED)
            return built["corpus"], built["channel"]

        return [build, warm]

    def make_op(state):
        corpus, channel = state

        def op(k):
            s = pass_seed(seed, k)
            cache, reopener = CollectionCache(cache_dir), CollectionCache(cache_dir)
            out = {}

            def collect():
                out["fresh"] = _collect(corpus, channel, s, cache=cache)

            def reopen():
                out["reopened"] = _collect(corpus, channel, s, cache=reopener)

            def relabel():
                out["relabelled"] = _collect(corpus, channel, s, cache=cache, task="gender")

            def check():
                fresh, reopened = out["fresh"], out["reopened"]
                counts.append((cache.hits + reopener.hits, cache.misses + reopener.misses))
                rates.append(fresh.features.extraction_rate)
                return (
                    digest(fresh) == expected.get(str(s))
                    and reopened.features.X.tobytes() == fresh.features.X.tobytes()
                    and reopened.spectrograms.images.tobytes()
                    == fresh.spectrograms.images.tobytes()
                    and out["relabelled"].features.X.tobytes() == fresh.features.X.tobytes()
                )

            steps = [
                ("attack.engine.collect", collect),
                ("attack.engine.reopen", reopen),
                ("attack.engine.relabel", relabel),
            ]
            return steps, len(corpus.specs), check

        return op

    try:
        outcome, _, traced = op_outcome(make_op, setup_steps, seconds, trace, _install)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if traced is None:
        return outcome
    table, n_ops = traced
    for name in LAYERS:
        outcome.layers.update(per_op(table, name, n_ops))
    self_s = sum(table[name]["self_s"] for name in ORCHESTRATION if name in table)
    hits, misses = (sum(column) for column in zip(*counts))
    outcome.layers.update({
        "attack.engine.self_ms": 1e3 * self_s / n_ops,
        "attack.engine.cache_hit_frac": hits / (hits + misses),
        "attack.engine.regions_used_frac": sum(rates) / len(rates),
    })
    return outcome


def _install(recorder, state):
    import repro.attack.engine as engine
    from repro.attack.engine import CollectionCache
    from repro.attack.regions import RegionDetector
    from repro.phone.channel import VibrationChannel

    recorder.wrap(type(state[0]), "render_batch", "datasets.render_batch")
    recorder.wrap(VibrationChannel, "transmit_batch", "phone.transmit_batch")
    recorder.wrap(RegionDetector, "detect_batch", "attack.regions.detect_batch")
    recorder.wrap(engine, "extract_features_batch", "attack.features.extract_features_batch")
    recorder.wrap(engine, "region_spectrogram_images_batch", "attack.specimages.images_batch")
    recorder.wrap(CollectionCache, "store", "attack.engine.cache_store")
    recorder.wrap(CollectionCache, "lookup", "attack.engine.cache_lookup")
