"""Per-stage byte parity: batched stages vs their scalar references.

Every batched stage must produce *byte-identical* float64 output
regardless of batch composition, batch size or padding width — that is
the contract that lets the batched pipeline share golden fixtures with
the per-utterance reference path. Each test compares ``.tobytes()``, not
``allclose``.
"""

import numpy as np
import pytest

from repro.attack.features import extract_features, extract_features_batch
from repro.attack.regions import RegionDetector
from repro.attack.specimages import (
    region_spectrogram_image,
    region_spectrogram_images_batch,
)
from repro.datasets import build_tess
from repro.dsp.spectrogram import spectrogram_image, spectrogram_image_batch
from repro.dsp.stft import frame_signal, stft
from repro.phone import VibrationChannel
from repro.speech.formants import formant_filter, formant_filter_batch
from repro.speech.glottal import glottal_source, glottal_source_banked


def _item_rng(seed, index):
    return np.random.default_rng([0x454D4F, seed & 0xFFFFFFFF, index])


@pytest.fixture(scope="module")
def corpus():
    return build_tess(words_per_emotion=2, seed=123)


@pytest.fixture(scope="module")
def channel():
    return VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")


class TestGlottalBanked:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_output_and_rng_stream_match(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 4000))
        f0 = np.where(
            rng.random(n) > 0.2, rng.uniform(80, 320, n), 0.0
        )
        ref_rng = np.random.default_rng([seed, 1])
        fast_rng = np.random.default_rng([seed, 1])
        ref = glottal_source(f0, 8000.0, ref_rng)
        fast = glottal_source_banked(f0, 8000.0, fast_rng)
        assert ref.tobytes() == fast.tobytes()
        # The banked path must consume the RNG stream identically, so
        # anything drawn *after* the call is also identical.
        assert (
            ref_rng.standard_normal(16).tobytes()
            == fast_rng.standard_normal(16).tobytes()
        )

    def test_unvoiced_contour(self):
        ref = glottal_source(np.zeros(512), 8000.0, np.random.default_rng(3))
        fast = glottal_source_banked(np.zeros(512), 8000.0, np.random.default_rng(3))
        assert ref.tobytes() == fast.tobytes()


class TestFormantFilterBatch:
    def test_parity_with_mixed_formant_targets(self, rng):
        formant_sets = [
            (730.0, 1090.0, 2440.0),
            (270.0, 2290.0, 3010.0),
            (730.0, 1090.0, 2440.0),  # duplicate target: grouped rows
        ]
        sources = [rng.normal(size=rng.integers(64, 2000)) for _ in formant_sets]
        batched = formant_filter_batch(sources, formant_sets, 8000.0)
        for src, formants, got in zip(sources, formant_sets, batched):
            ref = formant_filter(src, formants, 8000.0)
            assert ref.tobytes() == got.tobytes()

    def test_parity_independent_of_batchmates(self, rng):
        src = rng.normal(size=777)
        formants = (500.0, 1500.0, 2500.0)
        alone = formant_filter_batch([src], [formants], 8000.0)[0]
        other = rng.normal(size=3000)
        crowded = formant_filter_batch(
            [other, src], [formants, formants], 8000.0
        )[1]
        assert alone.tobytes() == crowded.tobytes()


class TestRenderBatch:
    def test_corpus_render_batch_parity(self, corpus, render_memo):
        specs = corpus.specs[:10]
        ref = [corpus.render(s) for s in specs]
        render_memo.clear()  # the batch must synthesise, not hit the memo
        got = corpus.render_batch(specs)
        assert len(got) == len(ref)
        for a, b in zip(ref, got):
            assert a.tobytes() == b.tobytes()

    def test_batch_composition_independence(self, corpus, render_memo):
        specs = corpus.specs[:6]
        whole = corpus.render_batch(specs)
        render_memo.clear()
        head = corpus.render_batch(specs[:2])
        render_memo.clear()
        pieces = head + corpus.render_batch(specs[2:])
        for a, b in zip(whole, pieces):
            assert a.tobytes() == b.tobytes()


class TestTransmitBatch:
    def test_parity(self, corpus, channel):
        specs = corpus.specs[:6]
        audios = [corpus.render(s) for s in specs]
        rngs = [_item_rng(0, i) for i in range(len(specs))]
        got = channel.transmit_batch(audios, corpus.audio_fs, rngs)
        ref_rngs = [_item_rng(0, i) for i in range(len(specs))]
        for audio, r, g in zip(audios, ref_rngs, got):
            ref = channel.transmit(audio, corpus.audio_fs, r)
            assert ref.tobytes() == g.tobytes()

    def test_handheld_rejected(self, corpus):
        handheld = VibrationChannel(
            "oneplus7t", mode="ear_speaker", placement="handheld"
        )
        with pytest.raises(ValueError, match="handheld"):
            handheld.transmit_batch(
                [np.zeros(100)], corpus.audio_fs, [_item_rng(0, 0)]
            )


class TestFrameSignalBatched:
    def test_2d_framing_matches_per_row(self, rng):
        x = rng.normal(size=(4, 1000))
        batched = frame_signal(x, 64, 16, pad=True)
        for i in range(4):
            ref = frame_signal(x[i], 64, 16, pad=True)
            assert ref.tobytes() == batched[i].tobytes()

    def test_2d_stft_matches_per_row(self, rng):
        x = rng.normal(size=(3, 800))
        _, _, Z = stft(x, 500.0, 64, 16)
        for i in range(3):
            _, _, ref = stft(x[i], 500.0, 64, 16)
            assert ref.tobytes() == Z[i].tobytes()


class TestSpectrogramImageBatch:
    def test_ragged_parity(self, rng):
        rows = [rng.normal(size=n) for n in (9, 40, 64, 500, 1931)]
        got = spectrogram_image_batch(rows, 500.0)
        for row, g in zip(rows, got):
            ref = spectrogram_image(row, 500.0)
            assert ref.tobytes() == g.tobytes()

    def test_flat_row_parity(self):
        rows = [np.zeros(100), np.ones(64)]
        got = spectrogram_image_batch(rows, 500.0)
        for row, g in zip(rows, got):
            assert spectrogram_image(row, 500.0).tobytes() == g.tobytes()


class TestDetectBatch:
    @pytest.mark.parametrize("placement", ["table_top", "handheld"])
    def test_parity(self, corpus, channel, placement):
        detector = RegionDetector.for_setting(placement)
        specs = corpus.specs[:6]
        traces = []
        for i, spec in enumerate(specs):
            audio = corpus.render(spec)
            pad = np.zeros(int(0.3 * corpus.audio_fs))
            audio = np.concatenate([pad, audio, pad])
            traces.append(
                channel.transmit(audio, corpus.audio_fs, _item_rng(0, i))
            )
        fs = channel.accel_fs
        batched = detector.detect_batch(traces, fs)
        for trace, regions in zip(traces, batched):
            assert detector.detect(trace, fs) == regions

    def test_degenerate_rows(self):
        detector = RegionDetector.for_setting("table_top")
        traces = [
            np.zeros(0),
            np.zeros(1),
            np.full(300, 9.80665),
            np.random.default_rng(0).normal(size=2000),
        ]
        batched = detector.detect_batch(traces, 500.0)
        for trace, regions in zip(traces, batched):
            assert detector.detect(trace, 500.0) == regions


class TestFeaturesBatch:
    def test_bucketed_parity(self, rng):
        rows = [rng.normal(size=n) for n in (4, 5, 64, 64, 64, 500, 500, 2000)]
        matrix = extract_features_batch(rows, 500.0)
        for row, got in zip(rows, matrix):
            ref = extract_features(row, 500.0)
            assert ref.tobytes() == got.tobytes()

    def test_degenerate_rows_parity(self, rng):
        rows = [
            np.zeros(50),
            np.full(50, 9.80665),
            rng.normal(size=50),
        ]
        matrix = extract_features_batch(rows, 500.0)
        for row, got in zip(rows, matrix):
            assert extract_features(row, 500.0).tobytes() == got.tobytes()

    def test_too_short_row_named(self):
        with pytest.raises(ValueError, match="region 1"):
            extract_features_batch([np.ones(10), np.ones(2)], 500.0)


class TestRegionImagesBatch:
    def test_parity(self, corpus, channel):
        detector = RegionDetector.for_setting("table_top")
        specs = corpus.specs[:5]
        traces, regions = [], []
        for i, spec in enumerate(specs):
            audio = corpus.render(spec)
            pad = np.zeros(int(0.3 * corpus.audio_fs))
            trace = channel.transmit(
                np.concatenate([pad, audio, pad]), corpus.audio_fs, _item_rng(0, i)
            )
            found = detector.detect(trace, channel.accel_fs)
            if found:
                traces.append(trace)
                regions.append(found[0])
        assert traces, "fixture produced no detectable regions"
        got = region_spectrogram_images_batch(traces, regions)
        for trace, region, g in zip(traces, regions, got):
            ref = region_spectrogram_image(trace, region)
            assert ref.tobytes() == g.tobytes()
