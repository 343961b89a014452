"""Property-based tests (hypothesis) on the multi-task label plane.

Invariants: every record's task label lies in the task's inventory,
gender is a pure function of the voice's base F0 against the split
constant, task-name resolution is idempotent, and the ramp cache is
transparent (values equal linspace for arbitrary parameters).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import TASKS, build_savee, build_songs, build_tess, resolve_task
from repro.datasets.base import GENDER_F0_SPLIT_HZ
from repro.speech.synthesizer import SpeakerVoice, _cached_ramp

SPEECH_CORPORA = {
    "tess": build_tess(words_per_emotion=2),
    "savee": build_savee(),
}
SONG_CORPUS = build_songs(clips_per_song=3)


class TestLabelPlaneProperties:
    @given(
        st.sampled_from(sorted(SPEECH_CORPORA)),
        st.integers(min_value=0, max_value=10_000),
        st.sampled_from([t for t in TASKS if t != "content-id"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_speech_label_in_inventory(self, corpus_name, index, task):
        corpus = SPEECH_CORPORA[corpus_name]
        spec = corpus.specs[index % len(corpus.specs)]
        label = corpus.task_label(spec, task)
        assert label in corpus.task_inventory(task)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_song_content_label_in_inventory(self, index):
        spec = SONG_CORPUS.specs[index % len(SONG_CORPUS.specs)]
        label = SONG_CORPUS.task_label(spec, "content-id")
        assert label in SONG_CORPUS.task_inventory("content-id")
        assert label == spec.speaker_id

    @given(
        st.sampled_from(sorted(SPEECH_CORPORA)),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_gender_is_pure_function_of_voice_f0(self, corpus_name, index):
        corpus = SPEECH_CORPORA[corpus_name]
        speakers = sorted(corpus.speakers)
        sid = speakers[index % len(speakers)]
        voice = corpus.speakers[sid]
        expected = "female" if voice.base_f0_hz > GENDER_F0_SPLIT_HZ else "male"
        assert corpus.speaker_gender(sid) == expected

    @given(
        st.floats(min_value=60.0, max_value=400.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_partitions_f0_axis(self, f0):
        import dataclasses

        base = build_tess(words_per_emotion=1)
        corpus = dataclasses.replace(
            base,
            speakers={"probe": SpeakerVoice(base_f0_hz=f0), **base.speakers},
        )
        gender = corpus.speaker_gender("probe")
        assert gender == ("female" if f0 > GENDER_F0_SPLIT_HZ else "male")

    @given(st.sampled_from(TASKS))
    @settings(max_examples=20, deadline=None)
    def test_resolve_task_idempotent_and_case_insensitive(self, task):
        assert resolve_task(task) == task
        assert resolve_task(task.upper()) == task
        assert resolve_task(task.replace("-", "_")) == task
        assert resolve_task(resolve_task(task)) == task


class TestRampCacheProperties:
    @given(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=1, max_value=512),
        st.one_of(
            st.none(), st.floats(min_value=0.25, max_value=4.0, allow_nan=False)
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_cached_ramp_equals_linspace(self, start, stop, n, power):
        ramp = _cached_ramp(start, stop, n, power)
        expected = np.linspace(start, stop, n)
        if power is not None:
            expected = expected**power
        assert ramp.tobytes() == expected.tobytes()
        info = _cached_ramp.cache_info()
        assert info.currsize <= info.maxsize
