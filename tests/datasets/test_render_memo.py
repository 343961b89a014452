"""The process-wide render memo of ``repro.datasets.base``.

A waveform is a function of ``(spec, voice, expressiveness,
variability, audio_fs)`` only, so the memo may serve it to any corpus
object with those values — and to no other. Every test starts from an
empty memo (the ``render_memo`` fixture of ``tests/conftest.py``), so
hit and eviction counts are deterministic.
"""

import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.attack.engine import collect_datasets
from repro.datasets import base, build_songs, build_tess
from repro.datasets.base import Corpus
from repro.memo import ByteBudgetMemo
from repro.obs import metrics
from repro.phone import VibrationChannel


def _fresh_memo(monkeypatch, budget=base.RENDER_MEMO_BYTES):
    memo = ByteBudgetMemo(budget, "render.cache_evictions")
    monkeypatch.setattr(base, "_RENDER_MEMO", memo)
    return memo


@pytest.fixture()
def memo(render_memo):
    return render_memo


@pytest.fixture(scope="module")
def corpus():
    return build_tess(words_per_emotion=2, seed=31)


def _hits():
    return metrics().counter_total("render.cache_hits")


def _evictions():
    return metrics().counter_total("render.cache_evictions")


def _cold_bytes(corpus, specs):
    """Reference renders, each from an empty memo."""
    out = []
    for spec in specs:
        base._RENDER_MEMO.clear()
        out.append(corpus.render(spec).tobytes())
    base._RENDER_MEMO.clear()
    return out


class TestByteBudgetMemo:
    def test_budget_holds_and_evictions_are_counted(self):
        memo = ByteBudgetMemo(100, "test.memo_evictions")
        before = metrics().counter_total("test.memo_evictions")
        for k in range(10):
            memo.put(k, str(k), 30)
            assert memo.nbytes <= 100
        assert len(memo) == 3 and memo.nbytes == 90
        assert metrics().counter_total("test.memo_evictions") - before == 7

    def test_replacing_a_key_reaccounts_its_bytes(self):
        memo = ByteBudgetMemo(100, "test.memo_evictions")
        memo.put("a", 1, 60)
        memo.put("a", 2, 10)
        assert memo.get("a") == 2 and memo.nbytes == 10 and len(memo) == 1

    def test_value_larger_than_budget_is_not_kept(self):
        memo = ByteBudgetMemo(100, "test.memo_evictions")
        memo.put("a", 1, 50)
        memo.put("big", 2, 101)
        assert "big" not in memo and memo.get("a") == 1

    def test_clear(self):
        memo = ByteBudgetMemo(100, "test.memo_evictions")
        memo.put("a", 1, 50)
        memo.clear()
        assert len(memo) == 0 and memo.nbytes == 0 and memo.get("a") is None

    def test_concurrent_puts_keep_the_books(self):
        """8 threads churn a 10-entry budget under a 1 µs switch interval."""
        memo = ByteBudgetMemo(1000, "test.memo_evictions")
        wrong = []

        def churn(worker):
            for k in range(2000):
                key = (worker * 7 + k) % 40
                memo.put(key, key, 100 + key % 3)
                value = memo.get((key + 1) % 40)
                if value not in (None, (key + 1) % 40):
                    wrong.append(value)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(w,)) for w in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and not wrong
        held = [(key, memo.get(key)) for key in range(40) if key in memo]
        assert memo.nbytes == sum(100 + key % 3 for key, _ in held) <= 1000
        assert len(memo) == len(held) and all(key == value for key, value in held)
        assert sorted(memo._keys) == sorted(key for key, _ in held)


class TestHits:
    def test_hit_is_byte_identical_and_read_only(self, memo, corpus):
        spec = corpus.specs[0]
        (reference,) = _cold_bytes(corpus, [spec])
        cold = corpus.render(spec)
        before = _hits()
        warm = corpus.render(spec)
        assert _hits() - before == 1
        assert warm is cold and warm.tobytes() == reference
        for wave in (cold, warm):
            assert not wave.flags.writeable
            with pytest.raises(ValueError):
                wave[0] = 1.0

    def test_batch_and_single_paths_share_entries(self, memo, corpus):
        specs = corpus.specs[:5]
        references = _cold_bytes(corpus, specs)
        singles = [corpus.render(spec) for spec in specs[:2]]
        before = _hits()
        batch = corpus.render_batch(specs)
        assert _hits() - before == 2
        assert batch[0] is singles[0] and batch[1] is singles[1]
        assert [w.tobytes() for w in batch] == references
        assert all(not w.flags.writeable for w in batch)

    def test_fresh_corpus_objects_hit(self, memo):
        first = build_tess(words_per_emotion=1, seed=5)
        waves = first.render_batch(first.specs)
        again = build_tess(words_per_emotion=1, seed=5).subsample(per_class=1, seed=0)
        before = _hits()
        for spec in again.specs:
            assert again.render(spec) is waves[first.specs.index(spec)]
        assert _hits() - before == len(again.specs)

    def test_bad_spec_rejected_before_lookup(self, memo, corpus):
        corpus.render(corpus.specs[0])
        bad = replace(corpus.specs[0], emotion="melancholy")
        with pytest.raises(ValueError, match="melancholy"):
            corpus.render_batch([corpus.specs[0], bad])
        with pytest.raises(KeyError):
            corpus.render(replace(corpus.specs[0], speaker_id="NOBODY"))


def _variants(corpus):
    sid = corpus.specs[0].speaker_id
    voice = corpus.speakers[sid]
    return {
        "voice": replace(
            corpus,
            speakers={**corpus.speakers, sid: replace(voice, base_f0_hz=voice.base_f0_hz + 25)},
        ),
        "variability": replace(corpus, variability=corpus.variability + 0.1),
        "expressiveness": replace(corpus, expressiveness=corpus.expressiveness * 1.5),
        "audio_fs": replace(corpus, audio_fs=corpus.audio_fs * 2),
    }


class TestKeying:
    @pytest.mark.parametrize("knob", ["voice", "variability", "expressiveness", "audio_fs"])
    def test_value_differences_do_not_share(self, memo, corpus, knob):
        variant = _variants(corpus)[knob]
        spec = corpus.specs[0]
        (reference,) = _cold_bytes(variant, [spec])
        original = corpus.render(spec)
        before = _hits()
        wave = variant.render(spec)
        assert _hits() == before and len(memo) == 2
        assert wave.tobytes() == reference
        assert wave.tobytes() != original.tobytes()

    def test_render_override_is_not_served_the_base_waveform(self, memo):
        songs = build_songs(clips_per_song=2, songs=["pop-100"])
        # A plain Corpus with every field equal keys its waveforms exactly
        # as the song corpus's specs would.
        speech = Corpus(
            name=songs.name,
            emotions=songs.emotions,
            speakers=songs.speakers,
            specs=songs.specs,
            expressiveness=songs.expressiveness,
            variability=songs.variability,
            audio_fs=songs.audio_fs,
        )
        speech_waves = speech.render_batch(speech.specs)
        clips = songs.render_batch(songs.specs)
        base._RENDER_MEMO.clear()
        cold = [songs.render(spec).tobytes() for spec in songs.specs]
        assert [c.tobytes() for c in clips] == cold
        assert all(c.tobytes() != s.tobytes() for c, s in zip(clips, speech_waves))

    def test_pickled_corpus_does_not_carry_the_memo(self, memo, corpus):
        cold_size = len(pickle.dumps(corpus))
        waves = corpus.render_batch(corpus.specs)
        assert len(pickle.dumps(corpus)) == cold_size
        assert cold_size < sum(w.nbytes for w in waves)


class TestEviction:
    def test_eviction_rebuilds_byte_identically(self, monkeypatch, corpus):
        specs = corpus.specs
        _fresh_memo(monkeypatch)
        references = _cold_bytes(corpus, specs)
        budget = 3 * max(len(r) for r in references)
        memo = _fresh_memo(monkeypatch, budget)
        before = _evictions()
        for _ in range(2):
            assert [w.tobytes() for w in corpus.render_batch(specs)] == references
            assert [corpus.render(s).tobytes() for s in specs] == references
            assert memo.nbytes <= budget
        assert _evictions() > before

    def test_in_order_passes_larger_than_the_budget_hit_in_part(self, monkeypatch, corpus):
        specs = corpus.specs
        _fresh_memo(monkeypatch)
        total = sum(len(b) for b in _cold_bytes(corpus, specs))
        _fresh_memo(monkeypatch, total // 2)

        def walk():  # in chunks, as the collection engine walks a corpus
            for start in range(0, len(specs), 4):
                corpus.render_batch(specs[start:start + 4])

        walk()
        for _ in range(3):
            before = _hits()
            walk()
            assert 0 < _hits() - before < len(specs)


def _collect_with(corpus, executor):
    channel = VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")
    n_jobs = 1 if executor == "serial" else 2
    return collect_datasets(corpus, channel, seed=3, executor=executor, n_jobs=n_jobs)


class TestCollectionParity:
    @pytest.mark.parametrize("state", ["cold", "warm"])
    def test_serial_thread_process_agree(self, monkeypatch, corpus, state):
        results = []
        for executor in ("serial", "thread", "process"):
            _fresh_memo(monkeypatch)
            if state == "warm":
                corpus.render_batch(corpus.specs)
            results.append(_collect_with(corpus, executor))
        serial = results[0]
        for other in results[1:]:
            assert other.features.X.tobytes() == serial.features.X.tobytes()
            assert other.spectrograms.images.tobytes() == serial.spectrograms.images.tobytes()
            assert list(other.features.y) == list(serial.features.y)

    def test_pool_worker_reads_but_stores_nothing(self, monkeypatch, memo, corpus):
        import repro.attack.engine as engine

        monkeypatch.setattr(engine, "_WORKER_CONTEXT", None)
        inherited = corpus.render(corpus.specs[0])
        engine._init_worker(None)  # what each process-pool worker runs first
        assert corpus.render(corpus.specs[0]) is inherited
        corpus.render_batch(corpus.specs[1:5])
        assert len(memo) == 1


def _golden_checks():
    """Each golden fixture as ``(collect, check)``; check asserts exact bytes."""
    from tests.attack import test_golden_batch as gb
    from tests.attack import test_golden_defended as gd
    from tests.attack import test_golden_features as gf
    from tests.attack import test_multitask_golden as gm

    def matrix_check(fixture):
        def check(result):
            with np.load(fixture, allow_pickle=False) as bundle:
                assert result.features.X.tobytes() == bundle["X"].tobytes()
                assert result.spectrograms.images.tobytes() == bundle["images"].tobytes()

        return check

    def features_check(collected):
        index, label, features, image = gf._golden_product(collected[1])
        with np.load(gf.FIXTURE, allow_pickle=False) as bundle:
            assert int(bundle["spec_index"]) == index and str(bundle["emotion"]) == label
            assert features.tobytes() == bundle["features"].tobytes()
            assert image.tobytes() == bundle["image"].tobytes()

    def multitask(setup, name):
        def collect():
            return collect_datasets(*setup(), seed=0)

        def check(result):
            with np.load(f"{gm.FIXTURES}/{name}", allow_pickle=False) as fixture:
                gm._assert_matches_fixture(result, fixture)

        return collect, check

    return {
        "golden_features": (lambda: gf._collect("serial"), features_check),
        "golden_batch": (lambda: gb._collect("batched"), matrix_check(gb.FIXTURE)),
        "golden_multitask_savee": multitask(
            gm._savee_setup, "golden_multitask_emotion_savee.npz"
        ),
        "golden_multitask_handheld": multitask(
            gm._handheld_setup, "golden_multitask_emotion_handheld.npz"
        ),
        "golden_defended": (lambda: gd._collect("batched"), matrix_check(gd.FIXTURE)),
    }


@pytest.mark.parametrize("state", ["cold", "warm"])
@pytest.mark.parametrize(
    "golden",
    [
        "golden_features",
        "golden_batch",
        "golden_multitask_savee",
        "golden_multitask_handheld",
        "golden_defended",
    ],
)
def test_golden_fixtures_byte_identical(monkeypatch, golden, state):
    collect, check = _golden_checks()[golden]
    _fresh_memo(monkeypatch)
    if state == "warm":
        collect()
        before = _hits()
        check(collect())
        assert _hits() > before
    else:
        check(collect())
