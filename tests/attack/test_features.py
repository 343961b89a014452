"""Tests for repro.attack.features (the Table II feature set)."""

import numpy as np
import pytest

from repro.attack.features import (
    FEATURE_NAMES,
    FREQ_FEATURES,
    TIME_FEATURES,
    extract_features,
    extract_freq_features,
    extract_time_features,
)


@pytest.fixture()
def region():
    rng = np.random.default_rng(0)
    t = np.arange(420) / 420.0
    return 9.81 + 0.1 * np.sin(2 * np.pi * 50 * t) + 0.01 * rng.normal(size=420)


class TestInventory:
    def test_twelve_plus_twelve(self):
        assert len(TIME_FEATURES) == 12
        assert len(FREQ_FEATURES) == 12
        assert len(FEATURE_NAMES) == 24

    def test_paper_feature_names_present(self):
        expected_time = {"min", "max", "mean", "std", "variance", "range", "cv",
                         "skewness", "kurtosis", "quantile25", "quantile50",
                         "mean_crossing_rate"}
        assert set(TIME_FEATURES) == expected_time
        assert "spec_centroid" in FREQ_FEATURES
        assert "irregularity_k" in FREQ_FEATURES
        assert "irregularity_j" in FREQ_FEATURES


class TestTimeFeatures:
    def test_basic_statistics(self, region):
        feats = extract_time_features(region)
        assert feats["min"] == pytest.approx(region.min())
        assert feats["max"] == pytest.approx(region.max())
        assert feats["mean"] == pytest.approx(region.mean())
        assert feats["variance"] == pytest.approx(region.var())
        assert feats["range"] == pytest.approx(region.max() - region.min())
        assert feats["quantile50"] == pytest.approx(np.median(region))

    def test_cv_definition(self, region):
        feats = extract_time_features(region)
        assert feats["cv"] == pytest.approx(region.std() / abs(region.mean()))

    def test_cv_finite_at_zero_mean(self):
        """Zero-mean regions get cv == 0.0, not a NaN sentinel.

        A NaN here used to flow into the feature matrix and get the whole
        row dropped by ``clean_features``; the finite fallback keeps the
        sample.
        """
        x = np.array([-1.0, 1.0, -1.0, 1.0])
        cv = extract_time_features(x)["cv"]
        assert np.isfinite(cv)
        assert cv == 0.0

    def test_constant_region(self):
        feats = extract_time_features(np.full(100, 9.81))
        assert feats["std"] == pytest.approx(0.0, abs=1e-12)
        assert feats["skewness"] == 0.0
        assert feats["kurtosis"] == 0.0
        assert feats["mean_crossing_rate"] == 0.0

    def test_mean_crossing_rate_of_alternating(self):
        x = np.array([1.0, -1.0] * 50)
        assert extract_time_features(x)["mean_crossing_rate"] == pytest.approx(1.0)

    def test_skewness_sign(self):
        right_skewed = np.concatenate([np.zeros(95), np.full(5, 10.0)])
        assert extract_time_features(right_skewed)["skewness"] > 1.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            extract_time_features(np.array([1.0]))


class TestFreqFeatures:
    def test_dc_excluded(self):
        """Gravity offset must not affect spectral statistics."""
        t = np.arange(420) / 420.0
        tone = 0.1 * np.sin(2 * np.pi * 50 * t)
        a = extract_freq_features(tone, 420.0)
        b = extract_freq_features(tone + 9.81, 420.0)
        assert a["spec_centroid"] == pytest.approx(b["spec_centroid"], rel=1e-6)

    def test_centroid_tracks_tone(self):
        t = np.arange(840) / 420.0
        low = extract_freq_features(np.sin(2 * np.pi * 30 * t), 420.0)
        high = extract_freq_features(np.sin(2 * np.pi * 150 * t), 420.0)
        assert low["spec_centroid"] == pytest.approx(30.0, abs=5.0)
        assert high["spec_centroid"] == pytest.approx(150.0, abs=5.0)

    def test_entropy_bounds(self):
        rng = np.random.default_rng(1)
        noise = extract_freq_features(rng.normal(size=420), 420.0)
        t = np.arange(420) / 420.0
        tone = extract_freq_features(np.sin(2 * np.pi * 50 * t), 420.0)
        assert 0.0 <= tone["entropy"] < noise["entropy"] <= 1.0

    def test_crest_higher_for_tone(self):
        rng = np.random.default_rng(2)
        t = np.arange(420) / 420.0
        tone = extract_freq_features(np.sin(2 * np.pi * 50 * t), 420.0)
        noise = extract_freq_features(rng.normal(size=420), 420.0)
        assert tone["spec_crest"] > 5 * noise["spec_crest"]

    def test_energy_definition(self, region):
        feats = extract_freq_features(region, 420.0)
        assert feats["energy"] == pytest.approx(np.sum(region**2))

    def test_silent_region_zeros(self):
        feats = extract_freq_features(np.zeros(100), 420.0)
        assert all(v == 0.0 for v in feats.values())

    def test_frequency_ratio_direction(self):
        t = np.arange(840) / 420.0
        low = extract_freq_features(np.sin(2 * np.pi * 20 * t), 420.0)
        high = extract_freq_features(np.sin(2 * np.pi * 180 * t), 420.0)
        assert high["frequency_ratio"] > 10 * max(low["frequency_ratio"], 1e-6)

    def test_frequency_ratio_finite_with_empty_low_band(self):
        """An empty low band yields 0.0, not a NaN/inf sentinel.

        An 8-sample region at fs=8 Hz has non-DC bins at 1..4 Hz, all at
        or above the fs/8 = 1 Hz split, so the low band holds no energy.
        """
        x = np.array([1.0, -1.0] * 4)  # pure Nyquist tone
        ratio = extract_freq_features(x, 8.0)["frequency_ratio"]
        assert np.isfinite(ratio)
        assert ratio == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            extract_freq_features(np.ones(3), 420.0)

    def test_invalid_fs(self):
        with pytest.raises(ValueError):
            extract_freq_features(np.ones(100), 0.0)


class TestExtractFeatures:
    def test_vector_order(self, region):
        vec = extract_features(region, 420.0)
        assert vec.shape == (24,)
        named = extract_time_features(region)
        named.update(extract_freq_features(region, 420.0))
        assert vec[FEATURE_NAMES.index("mean")] == pytest.approx(named["mean"])
        assert vec[FEATURE_NAMES.index("spec_centroid")] == pytest.approx(
            named["spec_centroid"]
        )

    def test_finite_for_typical_region(self, region):
        vec = extract_features(region, 420.0)
        assert np.all(np.isfinite(vec))


def _small_plan_cache(monkeypatch, maxsize):
    """Swap ``features._plan`` for the same builder behind a ``maxsize`` LRU."""
    from functools import lru_cache

    from repro.attack import features

    small = lru_cache(maxsize=maxsize)(features._plan.__wrapped__)
    monkeypatch.setattr(features, "_plan", small)
    return small


class TestPlanCache:
    def test_default_cap(self):
        from repro.attack import features

        assert features._plan.cache_info().maxsize == 1024

    def test_bounded_and_evicted_length_rebuilds_identically(self, monkeypatch):
        """Client-chosen window lengths cannot grow the constants cache
        without bound, and an evicted length rebuilds byte-identically."""
        plan = _small_plan_cache(monkeypatch, 4)
        rng = np.random.default_rng(3)
        first = rng.normal(size=100)
        before = extract_features(first, 420.0)
        for n in range(101, 111):
            extract_features(rng.normal(size=n), 420.0)
            assert plan.cache_info().currsize <= 4
        misses = plan.cache_info().misses
        assert extract_features(first, 420.0).tobytes() == before.tobytes()
        assert plan.cache_info().misses == misses + 1  # it was evicted

    def test_recently_used_length_survives(self, monkeypatch):
        plan = _small_plan_cache(monkeypatch, 3)
        hot = np.ones(64)
        for n in (65, 66, 67, 68):
            extract_features(hot, 420.0)
            extract_features(np.ones(n), 420.0)
        misses = plan.cache_info().misses
        extract_features(hot, 420.0)
        assert plan.cache_info().misses == misses  # still cached

    def test_threads_share_a_tiny_cache_safely(self, monkeypatch):
        """More threads than cores churn a 5-plan cache; every answer
        still matches its single-threaded bytes and the cap holds."""
        import sys
        import threading

        rng = np.random.default_rng(11)
        rows = [rng.normal(size=n) for n in range(40, 60)]
        expected = [extract_features(row, 420.0).tobytes() for row in rows]
        plan = _small_plan_cache(monkeypatch, 5)
        mismatches = []

        def churn(seed):
            order = np.random.default_rng(seed).integers(0, len(rows), size=150)
            for i in order:
                if extract_features(rows[i], 420.0).tobytes() != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert mismatches == []
        assert plan.cache_info().currsize <= 5
