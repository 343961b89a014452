"""The process-wide vibration memo of ``VibrationChannel.transmit_batch``.

A table-top row's vibration (speaker drive, then chassis transfer) is a
function of the audio, the speaker, the chassis, the audio rate and the
pad; only the ADC draws from the row's generator. The memo keys a row by
the identity of its read-only audio array, so it may serve a row only to
that same array — never to a writable one, a fresh copy or an array that
reuses a dead one's ``id`` — and a hit must leave every trace byte as a
cold pass makes it. Every test starts from an empty memo (the
``transmit_memo`` fixture of ``tests/conftest.py``).
"""

import os
import weakref

import numpy as np
import pytest

import repro.attack.engine as engine
from repro.attack.defense import (
    LowPassObfuscationDefense,
    RateLimitDefense,
    SensorDampingDefense,
)
from repro.attack.engine import collect_datasets
from repro.datasets import build_tess
from repro.memo import ByteBudgetMemo
from repro.obs import capture_observability, metrics
from repro.parallel import ExecutorPool
from repro.phone import VibrationChannel
from repro.phone import channel as phone_channel

from tests.phone._transmit_reference import reference_transmit_batch

FS = 8000.0
PAD = 240


@pytest.fixture(scope="module")
def corpus():
    return build_tess(words_per_emotion=2, seed=31)


def _hits():
    return metrics().counter_total("transmit.cache_hits")


def _evictions():
    return metrics().counter_total("transmit.cache_evictions")


def _rows(lengths, seed, writable=False):
    rng = np.random.default_rng(seed)
    rows = [rng.uniform(0.05, 0.8) * rng.normal(size=n) for n in lengths]
    for row in rows:
        row.setflags(write=writable)
    return rows


def _rngs(seed, n):
    return [np.random.default_rng([seed, i]) for i in range(n)]


def _oracle(channel, audios, seed):
    padded = [np.pad(a, PAD) for a in audios]
    traces = reference_transmit_batch(channel, padded, FS, _rngs(seed, len(audios)))
    return [t.tobytes() for t in traces]


def _send(channel, audios, seed):
    traces = channel.transmit_batch(audios, FS, _rngs(seed, len(audios)), pad=PAD)
    return [t.tobytes() for t in traces]


class TestKeying:
    def test_writable_audio_never_hits_nor_stores(self, transmit_memo):
        channel = VibrationChannel("oneplus7t")
        audios = _rows([300, 900, 1200], 1, writable=True)
        reference = _oracle(channel, audios, 1)
        before = _hits()
        for _ in range(2):
            assert _send(channel, audios, 1) == reference
        assert _hits() == before and len(transmit_memo) == 0

    def test_read_only_view_of_a_writable_base_never_hits(self, transmit_memo):
        channel = VibrationChannel("oneplus7t")
        base = _rows([800], 2, writable=True)[0]
        view = base[:]
        view.setflags(write=False)
        reference = _oracle(channel, [view], 2)
        assert _send(channel, [view], 2) == reference
        assert len(transmit_memo) == 0

    def test_fresh_copies_of_the_same_samples_miss(self, transmit_memo):
        channel = VibrationChannel("oneplus7t")
        (audio,) = _rows([700], 3)
        reference = _oracle(channel, [audio], 3)
        before = _hits()
        for _ in range(3):
            copy = audio.copy()
            copy.setflags(write=False)
            assert _send(channel, [copy], 3) == reference
        assert _hits() == before

    def test_stale_entry_under_a_recycled_id_misses_and_is_replaced(self, transmit_memo):
        channel = VibrationChannel("oneplus7t")
        (audio,) = _rows([600], 4)
        reference = _oracle(channel, [audio], 4)
        gone = np.zeros(3)
        dead = weakref.ref(gone)
        del gone
        assert dead() is None
        key = channel._vibration_key(audio, FS, PAD)
        junk = np.full(audio.size + 2 * PAD, 7.0)
        transmit_memo.put(key, (dead, junk), junk.nbytes)
        before = _hits()
        assert _send(channel, [audio], 4) == reference
        assert _hits() == before
        ref, row = transmit_memo.get(key)
        assert ref() is audio and row.tobytes() != junk.tobytes()
        assert _send(channel, [audio], 4) == reference
        assert _hits() - before == 1

    def test_speaker_chassis_rate_and_pad_are_in_the_key(self, transmit_memo):
        audios = _rows([500, 900], 5)
        loud = VibrationChannel("oneplus7t")
        loud.transmit_batch(audios, FS, _rngs(5, 2), pad=PAD)
        before = _hits()
        others = (VibrationChannel("oneplus7t", mode="ear_speaker"), VibrationChannel("pixel5"))
        for channel in others:
            assert _send(channel, audios, 5) == _oracle(channel, audios, 5)
        loud.transmit_batch(audios, 2 * FS, _rngs(5, 2), pad=PAD)
        loud.transmit_batch(audios, FS, _rngs(5, 2), pad=PAD + 1)
        assert _hits() == before
        # An equal channel built anew (another sensor rate, another seed) hits.
        capped = VibrationChannel("oneplus7t", sample_rate=200, seed=9)
        assert _send(capped, audios, 5) == _oracle(capped, audios, 5)
        assert _hits() - before == 2

    def test_a_held_row_is_an_exact_length_read_only_copy(self, transmit_memo):
        channel = VibrationChannel("oneplus7t")
        audios = _rows([400, 2000], 6)
        channel.transmit_batch(audios, FS, _rngs(6, 2), pad=PAD)
        for audio in audios:
            _, row = transmit_memo.get(channel._vibration_key(audio, FS, PAD))
            assert row.base is None and not row.flags.writeable
            assert row.shape == (audio.size + 2 * PAD,)
        assert transmit_memo.nbytes == sum(8 * (a.size + 2 * PAD) for a in audios)
        assert metrics().gauge_max("transmit.memo_bytes") >= transmit_memo.nbytes


class TestEviction:
    def test_tiny_budget_evicts_counted_with_unchanged_bytes(self, monkeypatch):
        channel = VibrationChannel("oneplus7t", environment="busy_office")
        audios = _rows([900, 1000, 1100, 1200, 1300, 1400], 7)
        reference = _oracle(channel, audios, 7)
        budget = 3 * 8 * (1400 + 2 * PAD)
        memo = ByteBudgetMemo(budget, "transmit.cache_evictions")
        monkeypatch.setattr(phone_channel, "_TRANSMIT_MEMO", memo)
        before = _evictions()
        for start in (0, 3, 0, 3):
            chunk = audios[start : start + 3]
            got = _send(channel, chunk, 7)
            assert got == _oracle(channel, chunk, 7) and memo.nbytes <= budget
        assert _evictions() > before
        assert _send(channel, audios, 7) == reference


def _collect(corpus, channel, defense=None):
    return collect_datasets(corpus, channel, seed=3, defense=defense)


def _result_bytes(result):
    return (result.features.X.tobytes(), result.spectrograms.images.tobytes())


class TestCollection:
    @pytest.mark.parametrize(
        "defense, hits",
        [
            (RateLimitDefense(200.0), True),
            (LowPassObfuscationDefense(20.0), True),
            (SensorDampingDefense(26.0), False),
        ],
    )
    def test_defended_pass_after_an_undefended_one(self, transmit_memo, corpus, defense, hits):
        channel = VibrationChannel("oneplus7t")
        cold = _result_bytes(_collect(corpus, channel, defense))
        transmit_memo.clear()
        _collect(corpus, channel)
        before = _hits()
        warm = _result_bytes(_collect(corpus, channel, defense))
        assert warm == cold
        assert _hits() - before == (len(corpus.specs) if hits else 0)

    def test_wrapper_corpus_fresh_arrays_never_hit(self, transmit_memo, corpus):
        class CopyingCorpus:
            """Delegating corpus that hands out a fresh read-only copy per render."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def _fresh(self, audio):
                copy = np.array(audio, copy=True)
                copy.setflags(write=False)
                return copy

            def render(self, spec):
                return self._fresh(self._inner.render(spec))

            def render_batch(self, specs):
                return [self._fresh(a) for a in self._inner.render_batch(specs)]

        channel = VibrationChannel("oneplus7t")
        wrapped = CopyingCorpus(corpus)
        reference = _result_bytes(_collect(corpus, channel))
        before = _hits()
        for _ in range(2):
            assert _result_bytes(_collect(wrapped, channel)) == reference
        assert _hits() == before

    def test_pool_worker_reads_but_stores_nothing(self, transmit_memo, corpus):
        channel = VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")
        pad = int(engine._UTTERANCE_PAD_S * corpus.audio_fs)
        inherited = corpus.render(corpus.specs[0])
        channel.transmit_batch([inherited], corpus.audio_fs, _rngs(0, 1), pad=pad)
        (key,) = list(transmit_memo._values)
        held = transmit_memo.get(key)
        # A config built by another process: the task runs as a worker
        # of that process's pool would.
        config = engine._PassConfig(
            corpus=corpus, channel=channel, detector=engine._default_detector(channel),
            seed=3, size=32, feature_highpass_hz=None, origin_pid=os.getpid() + 1,
        )
        task = (config, list(enumerate(corpus.specs[:5])))
        with capture_observability() as capture:
            [(rows, error)] = ExecutorPool().map_traced(engine._run_chunk_task, [task])
        assert error is None
        assert any(label is not None for _, label, _, _ in rows)
        assert capture.registry.counter_total("transmit.cache_hits") == 1
        assert len(transmit_memo) == 1 and transmit_memo.get(key) is held

    def test_serial_pass_in_another_pools_worker_stores(self, transmit_memo, corpus):
        """A serial pass inside an ``eval.suite`` cell's worker keeps its rows."""
        with ExecutorPool(n_jobs=2, executor="process") as pool:
            sizes = pool.map(_serial_pass_memo_size, [corpus, corpus])
        assert sizes == [len(corpus.specs)] * 2
        assert len(transmit_memo) == 0  # the workers' memos are their own


def _serial_pass_memo_size(corpus):
    _collect(corpus, VibrationChannel("oneplus7t"))
    return len(phone_channel._TRANSMIT_MEMO)
