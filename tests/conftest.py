"""Shared fixtures for the EmoLeak test suite.

Expensive artefacts (small corpora, collected datasets) are session-scoped
so the cost is paid once.

Every test gets an empty process-wide render memo, so a waveform the
test renders is synthesised by that test and never served from another
test's renders.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attack.pipeline import EmoLeakAttack
from repro.datasets import base, build_tess
from repro.memo import ByteBudgetMemo
from repro.phone import VibrationChannel


@pytest.fixture(autouse=True)
def render_memo(monkeypatch):
    """An empty render memo for this test; clear it to force re-synthesis."""
    memo = ByteBudgetMemo(base.RENDER_MEMO_BYTES, "render.cache_evictions")
    monkeypatch.setattr(base, "_RENDER_MEMO", memo)
    return memo


@pytest.fixture(scope="session")
def tiny_tess():
    """A small TESS-style corpus (7 emotions x 2 speakers x 4 words)."""
    return build_tess(words_per_emotion=4, seed=123)


@pytest.fixture(scope="session")
def small_tess():
    """A mid-size TESS-style corpus for accuracy-sensitive tests."""
    return build_tess(words_per_emotion=10, seed=7)


@pytest.fixture(scope="session")
def loud_channel():
    """OnePlus 7T loudspeaker / table-top channel."""
    return VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")


@pytest.fixture(scope="session")
def ear_channel():
    """OnePlus 7T ear-speaker / handheld channel."""
    return VibrationChannel("oneplus7t", mode="ear_speaker", placement="handheld")


@pytest.fixture(scope="session")
def tess_features(small_tess, loud_channel):
    """Feature dataset collected through the loudspeaker channel."""
    return EmoLeakAttack(loud_channel, seed=5).collect_features(small_tess)


@pytest.fixture(scope="session")
def tess_spectrograms(small_tess, loud_channel):
    """Spectrogram dataset collected through the loudspeaker channel."""
    return EmoLeakAttack(loud_channel, seed=5).collect_spectrograms(small_tess)


@pytest.fixture()
def rng():
    return np.random.default_rng(42)
