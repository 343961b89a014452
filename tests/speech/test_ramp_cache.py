"""Regression tests for the bounded envelope-ramp cache.

The synthesizer memoizes ``np.linspace``-equivalent ramps keyed by
``(start, stop, n, power)``. The cache must (a) return byte-identical
values to fresh linspace computations, (b) stay bounded at
``_RAMP_CACHE_MAX`` entries under non-repeating workloads, and (c) evict
least-recently-used entries first so repeating syllable lengths stay
warm.
"""

import numpy as np
import pytest

from repro.speech import synthesizer as synth_mod
from repro.speech.synthesizer import _cached_ramp


@pytest.fixture(autouse=True)
def _fresh_cache():
    saved = dict(synth_mod._RAMP_CACHE)
    synth_mod._RAMP_CACHE.clear()
    yield
    synth_mod._RAMP_CACHE.clear()
    synth_mod._RAMP_CACHE.update(saved)


def _reference(start, stop, n, power=None):
    ramp = np.linspace(start, stop, n)
    if power is not None:
        ramp = ramp**power
    return ramp


@pytest.mark.parametrize(
    "start,stop,n,power",
    [
        (0.0, 1.0, 64, None),
        (1.0, 0.0, 64, None),
        (0.3, 0.9, 257, None),
        (0.0, 1.0, 128, 2.0),
        (1.0, 0.2, 33, 0.7),
        (-0.5, 0.5, 2, None),
        (0.4, 0.4, 1, None),
    ],
)
def test_cached_ramp_byte_identical_to_linspace(start, stop, n, power):
    ramp = _cached_ramp(start, stop, n, power)
    expected = _reference(start, stop, n, power)
    assert ramp.dtype == expected.dtype
    assert ramp.tobytes() == expected.tobytes()
    # Hit path returns the same immutable array.
    again = _cached_ramp(start, stop, n, power)
    assert again is ramp
    assert not ramp.flags.writeable


def test_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(synth_mod, "_RAMP_CACHE_MAX", 16)
    for n in range(2, 100):
        _cached_ramp(0.0, 1.0, n)
    assert len(synth_mod._RAMP_CACHE) <= 16


def test_lru_eviction_keeps_recently_used(monkeypatch):
    monkeypatch.setattr(synth_mod, "_RAMP_CACHE_MAX", 4)
    for n in (2, 3, 4, 5):
        _cached_ramp(0.0, 1.0, n)
    # Touch the oldest entry, then insert one more: the touched entry
    # must survive and the least-recently-used one (n=3) must go.
    _cached_ramp(0.0, 1.0, 2)
    _cached_ramp(0.0, 1.0, 6)
    keys = {key[2] for key in synth_mod._RAMP_CACHE}
    assert 2 in keys
    assert 3 not in keys
    assert len(synth_mod._RAMP_CACHE) == 4


def test_evicted_ramp_rebuilds_byte_identical(monkeypatch):
    monkeypatch.setattr(synth_mod, "_RAMP_CACHE_MAX", 2)
    first = _cached_ramp(0.2, 0.8, 97, 1.5).copy()
    # Force eviction of the first entry, then rebuild it.
    for n in (10, 11, 12):
        _cached_ramp(0.0, 1.0, n)
    assert (0.2, 0.8, 97, 1.5) not in synth_mod._RAMP_CACHE
    rebuilt = _cached_ramp(0.2, 0.8, 97, 1.5)
    assert rebuilt.tobytes() == first.tobytes()


def test_render_unchanged_by_cache_churn(monkeypatch, render_memo):
    """Synthesis output must not depend on cache state (golden stability)."""
    from repro.datasets import build_tess

    corpus = build_tess(words_per_emotion=1)
    spec = corpus.specs[0]
    baseline = corpus.render(spec)
    # Shrink the cache and churn it so renders run with constant
    # eviction pressure, then re-render.
    monkeypatch.setattr(synth_mod, "_RAMP_CACHE_MAX", 1)
    synth_mod._RAMP_CACHE.clear()
    for n in range(2, 50):
        _cached_ramp(0.0, 1.0, n)
    render_memo.clear()  # re-synthesise rather than return the memoised wave
    again = corpus.render(spec)
    assert again.tobytes() == baseline.tobytes()
