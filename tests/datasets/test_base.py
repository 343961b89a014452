"""Tests for repro.datasets.base."""

import numpy as np
import pytest

from repro.datasets.base import UtteranceSpec
from repro.datasets import build_tess


@pytest.fixture(scope="module")
def corpus():
    return build_tess(words_per_emotion=4, seed=11)


class TestCorpusBasics:
    def test_len_and_iter(self, corpus):
        assert len(corpus) == 2 * 7 * 4
        assert len(list(corpus)) == len(corpus)

    def test_class_counts_balanced(self, corpus):
        counts = corpus.class_counts()
        assert set(counts.values()) == {8}

    def test_render_deterministic(self, corpus, render_memo):
        spec = corpus.specs[0]
        first = corpus.render(spec)
        render_memo.clear()  # the second render must synthesise again
        again = corpus.render(spec)
        assert again is not first
        assert np.array_equal(first, again)

    def test_render_distinct_specs_differ(self, corpus):
        a = corpus.render(corpus.specs[0])
        b = corpus.render(corpus.specs[1])
        assert a.shape != b.shape or not np.allclose(a, b)

    def test_render_unknown_speaker(self, corpus):
        bad = UtteranceSpec("x", "NOBODY", "angry", seed=1)
        with pytest.raises(KeyError):
            corpus.render(bad)

    def test_render_unknown_emotion(self, corpus):
        sid = corpus.specs[0].speaker_id
        bad = UtteranceSpec("x", sid, "melancholy", seed=1)
        with pytest.raises(ValueError):
            corpus.render(bad)

    def test_iter_rendered(self, corpus):
        pairs = list(corpus.iter_rendered())
        assert len(pairs) == len(corpus)
        spec, wave = pairs[0]
        assert isinstance(spec, UtteranceSpec)
        assert wave.ndim == 1 and wave.size > 0


class TestSubsample:
    def test_per_class_counts(self, corpus):
        sub = corpus.subsample(per_class=3, seed=0)
        counts = sub.class_counts()
        assert all(v == 3 for v in counts.values())

    def test_speaker_balance(self, corpus):
        sub = corpus.subsample(per_class=4, seed=0)
        speakers = {s.speaker_id for s in sub.specs}
        assert len(speakers) == 2

    def test_oversized_request_capped(self, corpus):
        sub = corpus.subsample(per_class=10_000, seed=0)
        assert len(sub) == len(corpus)

    def test_invalid(self, corpus):
        with pytest.raises(ValueError):
            corpus.subsample(per_class=0)

    def test_deterministic(self, corpus):
        a = corpus.subsample(per_class=2, seed=3)
        b = corpus.subsample(per_class=2, seed=3)
        assert [s.utterance_id for s in a.specs] == [s.utterance_id for s in b.specs]


class TestFilterEmotions:
    def test_restricts(self, corpus):
        sub = corpus.filter_emotions(["angry", "sad"])
        assert set(sub.emotions) == {"angry", "sad"}
        assert all(s.emotion in ("angry", "sad") for s in sub.specs)

    def test_no_overlap_raises(self, corpus):
        with pytest.raises(ValueError):
            corpus.filter_emotions(["nostalgia"])
