"""The flat Table II kernel: batch layout never reaches a row's bytes.

``extract_features_batch`` sorts a ragged batch by length into one flat
buffer and runs the elementwise maths once over it, with only the FFT,
the quantile partition and the reductions per distinct length. Every
check compares ``.tobytes()`` with the per-row oracle in
``tests/attack/_features_reference.py``.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attack.features import TIME_FEATURES, extract_features_batch, extract_time_features
from tests.attack._features_reference import reference_features, reference_time_features

FS = 420.0


def _speech(rng, n):
    return 9.81 + rng.normal(size=n) * 10.0 ** rng.integers(-4, 1)


def _assert_oracle_bytes(rows, matrix, fs=FS):
    assert matrix.shape == (len(rows), 24)
    for row, got in zip(rows, matrix):
        assert got.tobytes() == reference_features(row, fs).tobytes()


class TestPermutation:
    @settings(max_examples=25, deadline=None)
    @given(
        lengths=st.lists(st.integers(4, 300), min_size=2, max_size=24),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_rows_keep_their_bytes_in_any_order(self, lengths, seed):
        rng = np.random.default_rng(seed)
        rows = [_speech(rng, n) for n in lengths]
        rows += [_speech(rng, n) for n in lengths[::3]]  # repeated lengths
        expected = [reference_features(row, FS).tobytes() for row in rows]
        for _ in range(3):
            order = rng.permutation(len(rows))
            matrix = extract_features_batch([rows[i] for i in order], FS)
            assert [got.tobytes() for got in matrix] == [expected[i] for i in order]


class TestPoisonWindow:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_one_bad_window_leaves_the_rest_byte_identical(self, bad):
        """The server batches untrusted windows: a non-finite sample in
        one must not touch any other row, whatever its length."""
        rng = np.random.default_rng(7)
        lengths = [64, 64, 65, 128, 64, 300, 65, 7, 64]
        rows = [_speech(rng, n) for n in lengths]
        clean = extract_features_batch(rows, FS)
        for victim in (0, 2, 5, 8):
            poisoned = [row.copy() for row in rows]
            poisoned[victim][rng.integers(0, lengths[victim])] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                matrix = extract_features_batch(poisoned, FS)
                reference = reference_features(poisoned[victim], FS)
            assert matrix[victim].tobytes() == reference.tobytes()
            others = [i for i in range(len(rows)) if i != victim]
            assert matrix[others].tobytes() == clean[others].tobytes()


class TestShapes:
    def test_many_duplicate_lengths(self):
        rng = np.random.default_rng(3)
        lengths = rng.choice([50, 51, 200, 1024], size=120)
        rows = [_speech(rng, n) for n in lengths]
        _assert_oracle_bytes(rows, extract_features_batch(rows, FS))

    def test_four_sample_rows(self):
        """n = 4 leaves two spectral bins: no 3-point statistics."""
        rng = np.random.default_rng(4)
        rows = [_speech(rng, 4) for _ in range(9)] + [np.full(4, 9.81), np.zeros(4)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _assert_oracle_bytes(rows, extract_features_batch(rows, FS))

    def test_mixed_short_and_long_rows(self):
        rng = np.random.default_rng(5)
        rows = [_speech(rng, n) for n in (4, 5, 6, 7, 8, 9, 5000, 4, 6)]
        _assert_oracle_bytes(rows, extract_features_batch(rows, FS))

    @pytest.mark.parametrize("n", [2, 3])
    def test_time_only_rows(self, n):
        rng = np.random.default_rng(n)
        rows = [_speech(rng, n) for _ in range(5)]
        rows += [np.full(n, 9.81), np.array([-0.0, 0.0, 1.0][:n])]
        for row in rows:
            got = np.array([extract_time_features(row)[k] for k in TIME_FEATURES])
            ref = np.array([reference_time_features(row)[k] for k in TIME_FEATURES])
            assert got.tobytes() == ref.tobytes()

    def test_empty_batch(self):
        assert extract_features_batch([], FS).shape == (0, 24)
