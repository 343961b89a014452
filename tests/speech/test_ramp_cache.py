"""Regression tests for the bounded envelope-ramp cache.

The synthesizer memoizes ``np.linspace``-equivalent ramps keyed by
``(start, stop, n, power)``. The cache must (a) return byte-identical
values to fresh linspace computations, (b) stay bounded at its
``lru_cache`` cap under non-repeating workloads, and (c) evict
least-recently-used entries first so repeating syllable lengths stay
warm. The bound and eviction checks run on a small cap by re-wrapping
the module function.
"""

from functools import lru_cache

import numpy as np
import pytest

from repro.speech import synthesizer as synth_mod
from repro.speech.synthesizer import _cached_ramp


def _small_cache(monkeypatch, maxsize):
    """Swap ``_cached_ramp`` for the same builder behind a ``maxsize`` LRU."""
    small = lru_cache(maxsize=maxsize)(_cached_ramp.__wrapped__)
    monkeypatch.setattr(synth_mod, "_cached_ramp", small)
    return small


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
    assert _cached_ramp.cache_info().maxsize == 4096
    ramp = _small_cache(monkeypatch, 16)
    for n in range(2, 100):
        ramp(0.0, 1.0, n)
        assert ramp.cache_info().currsize <= 16


def test_lru_eviction_keeps_recently_used(monkeypatch):
    ramp = _small_cache(monkeypatch, 4)
    for n in (2, 3, 4, 5):
        ramp(0.0, 1.0, n)
    # Touch the oldest entry, then insert one more: the touched entry
    # must survive and the least-recently-used one (n=3) must go.
    ramp(0.0, 1.0, 2)
    ramp(0.0, 1.0, 6)
    assert ramp.cache_info().currsize == 4
    misses = ramp.cache_info().misses
    ramp(0.0, 1.0, 2)
    assert ramp.cache_info().misses == misses
    ramp(0.0, 1.0, 3)
    assert ramp.cache_info().misses == misses + 1


def test_evicted_ramp_rebuilds_byte_identical(monkeypatch):
    ramp = _small_cache(monkeypatch, 2)
    first = ramp(0.2, 0.8, 97, 1.5).copy()
    # Force eviction of the first entry, then rebuild it.
    for n in (10, 11, 12):
        ramp(0.0, 1.0, n)
    misses = ramp.cache_info().misses
    rebuilt = ramp(0.2, 0.8, 97, 1.5)
    assert ramp.cache_info().misses == misses + 1  # it was evicted
    assert rebuilt.tobytes() == first.tobytes()


def test_render_unchanged_by_cache_churn(monkeypatch, render_memo):
    """Synthesis output must not depend on cache state (golden stability)."""
    from repro.datasets import build_tess

    corpus = build_tess(words_per_emotion=1)
    spec = corpus.specs[0]
    baseline = corpus.render(spec)
    # Shrink the cache and churn it so renders run with constant
    # eviction pressure, then re-render.
    ramp = _small_cache(monkeypatch, 1)
    for n in range(2, 50):
        ramp(0.0, 1.0, n)
    render_memo.clear()  # re-synthesise rather than return the memoised wave
    again = corpus.render(spec)
    assert again.tobytes() == baseline.tobytes()
