"""Property-based tests (hypothesis) for the fused Table II kernel.

The oracle is the plain per-row maths in
``tests/attack/_features_reference.py``. Under float64 every row of
``extract_features_batch`` must equal it byte for byte, whatever else
the batch holds: ragged and duplicate lengths, the n = 4…8 edges where
the spectral 3-point statistics switch off, constant, tiny-σ and
zero-mean rows, and rows carrying NaN or ±inf. The quantile columns are
also checked against ``np.quantile`` itself, so a numpy release that
changes its interpolation fails here loudly instead of drifting.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.features import (
    FEATURE_NAMES,
    extract_features,
    extract_features_batch,
    extract_time_features,
)
from tests.attack._features_reference import reference_features, reference_time_features

_KINDS = ("speech", "constant", "tiny_sigma", "zero_mean", "nan", "inf", "ternary")
_SEEDS = st.integers(min_value=0, max_value=2**31 - 1)
_FS = st.sampled_from([8.0, 100.0, 420.0, 500.0])
_Q25 = FEATURE_NAMES.index("quantile25")
_MCR = FEATURE_NAMES.index("mean_crossing_rate")


def _row(n, kind, rng):
    if kind == "constant":
        return np.full(n, 9.81)
    if kind == "tiny_sigma":
        return 9.81 + 1e-13 * rng.normal(size=n)
    if kind == "zero_mean":
        x = rng.normal(size=n)
        return x - x.mean()
    if kind == "ternary":  # signed zeros and ties
        return rng.choice([-0.0, 0.0, 1.0], size=n)
    x = 9.81 + rng.normal(size=n) * 10.0 ** rng.integers(-6, 2)
    if kind in ("nan", "inf"):
        bad = np.nan if kind == "nan" else rng.choice([np.inf, -np.inf])
        x[rng.integers(0, n, size=rng.integers(1, 3))] = bad
    return x


def _batch(spec, seed):
    """Rows from ``(length, kind)`` pairs; every other length repeats."""
    rng = np.random.default_rng(seed)
    rows = [_row(n, kind, rng) for n, kind in spec]
    rows += [_row(n, kind, rng) for n, kind in spec[::2]]
    return rows


def _specs(min_len, max_len, max_size=8):
    return st.lists(
        st.tuples(st.integers(min_len, max_len), st.sampled_from(_KINDS)),
        min_size=1,
        max_size=max_size,
    )


def _assert_rows_match_oracle(rows, fs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        matrix = extract_features_batch(rows, fs)
        for row, got in zip(rows, matrix):
            assert got.tobytes() == reference_features(row, fs).tobytes()
            assert got[_Q25 : _Q25 + 2].tobytes() == np.quantile(row, [0.25, 0.5]).tobytes()


class TestFloat64ByteParity:
    @given(_specs(4, 1024), _SEEDS, _FS)
    @settings(max_examples=60, deadline=None)
    def test_ragged_batches(self, spec, seed, fs):
        _assert_rows_match_oracle(_batch(spec, seed), fs)

    @given(_specs(4, 8, max_size=12), _SEEDS, _FS)
    @settings(max_examples=60, deadline=None)
    def test_guard_edges(self, spec, seed, fs):
        _assert_rows_match_oracle(_batch(spec, seed), fs)

    @given(st.integers(4, 600), st.sampled_from(_KINDS), _SEEDS, _FS)
    @settings(max_examples=40, deadline=None)
    def test_single_row_views(self, n, kind, seed, fs):
        row = _row(n, kind, np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert extract_features(row, fs).tobytes() == reference_features(row, fs).tobytes()
            got = np.array(list(extract_time_features(row).values()))
            want = np.array(list(reference_time_features(row).values()))
        assert got.tobytes() == want.tobytes()

    @given(st.integers(2, 3), st.sampled_from(_KINDS), _SEEDS)
    @settings(max_examples=30, deadline=None)
    def test_short_time_only_regions(self, n, kind, seed):
        row = _row(n, kind, np.random.default_rng(seed))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = np.array(list(extract_time_features(row).values()))
            want = np.array(list(reference_time_features(row).values()))
        assert got.tobytes() == want.tobytes()


class TestFloat32Policy:
    @given(st.lists(st.integers(16, 1024), min_size=1, max_size=6), _SEEDS, _FS)
    @settings(max_examples=30, deadline=None)
    def test_tolerance_close_on_healthy_rows(self, lengths, seed, fs):
        rng = np.random.default_rng(seed)
        rows = [9.81 + rng.normal(size=n) for n in lengths]
        hot = extract_features_batch(rows, fs, dtype=np.float32)
        assert hot.dtype == np.float32
        golden = np.vstack([reference_features(row, fs) for row in rows])
        rest = [i for i in range(len(FEATURE_NAMES)) if i != _MCR]
        np.testing.assert_allclose(
            hot[:, rest], golden[:, rest].astype(np.float32), rtol=2e-3, atol=2e-3
        )
        # A sample within float32 rounding of the mean may flip its sign:
        # the crossing count can move by two per such sample.
        slack = 4.0 / (np.array(lengths) - 1) + 1e-6
        assert np.all(np.abs(hot[:, _MCR] - golden[:, _MCR]) <= slack)
