"""Window requests: one feature-extraction call per micro-batch per fs.

Batching extraction changes scheduling, never answers: a micro-batch
that mixes sample rates, window lengths and feature requests answers
exactly as the one-request-at-a-time path does, a batch-level fault
falls back to per-window extraction so only the poison window errors,
and a window carrying NaN keeps the label the per-row path gave it.
"""

import numpy as np
import pytest

from repro.obs import metrics, reset_observability
from repro.serve.bundle import load_bundle
from repro.serve.registry import ModelRegistry
from repro.serve.server import InferenceServer
from tests.attack._features_reference import reference_features
from tests.serve.conftest import make_blobs

POISON = 1234.5


@pytest.fixture()
def registry(packed_classifier_bundle):
    reg = ModelRegistry()
    reg.register(packed_classifier_bundle)
    return reg


def _windows(n, seed):
    rng = np.random.default_rng(seed)
    return [9.81 + rng.normal(size=int(size)) for size in rng.integers(64, 300, size=n)]


def _serve(registry, submissions, max_batch=32):
    """Submit everything inside one linger window; return answers in order."""
    with InferenceServer(
        registry, model="blobs-clf", max_batch=max_batch, max_linger_s=0.5
    ) as server:
        futures = [
            server.submit_window(payload, fs) if fs else server.submit_features(payload)
            for payload, fs in submissions
        ]
        results = [future.result(timeout=30.0) for future in futures]
        batches = server.batches_run
    return results, batches


def _assert_same_answers(batched, serial):
    assert [r.status for r in batched] == [r.status for r in serial]
    assert [r.label for r in batched] == [r.label for r in serial]
    for b, s in zip(batched, serial):
        np.testing.assert_allclose(b.proba, s.proba, rtol=1e-9, atol=1e-12)


class TestOneExtractionPerFs:
    def test_two_sample_rates_in_one_group(self, registry):
        windows = _windows(12, seed=1)
        submissions = [(w, 420.0 if i % 2 else 500.0) for i, w in enumerate(windows)]
        batched, batches = _serve(registry, submissions)
        serial, _ = _serve(registry, submissions, max_batch=1)
        assert batches == 1
        assert all(r.ok for r in batched)
        _assert_same_answers(batched, serial)

    def test_features_and_windows_in_one_group(self, registry):
        X, _ = make_blobs(n_per_class=2, seed=5)
        windows = _windows(len(X), seed=2)
        submissions = []
        for row, window in zip(X, windows):
            submissions += [(row, None), (window, 420.0)]
        batched, batches = _serve(registry, submissions)
        serial, _ = _serve(registry, submissions, max_batch=1)
        assert batches == 1
        assert all(r.ok for r in batched)
        _assert_same_answers(batched, serial)

    def test_one_batch_call_per_fs(self, registry, monkeypatch):
        import repro.serve.server as server_module

        calls = []
        real = server_module.extract_features_batch

        def spy(rows, fs, dtype=None):
            calls.append((len(rows), fs))
            return real(rows, fs, dtype)

        monkeypatch.setattr(server_module, "extract_features_batch", spy)
        windows = _windows(9, seed=3)
        submissions = [(w, (420.0, 500.0, 100.0)[i % 3]) for i, w in enumerate(windows)]
        results, batches = _serve(registry, submissions)
        assert batches == 1 and all(r.ok for r in results)
        assert sorted(calls) == [(3, 100.0), (3, 420.0), (3, 500.0)]


class TestExtractionFaults:
    def test_batch_fault_isolates_the_poison_window(self, registry, monkeypatch):
        import repro.serve.server as server_module

        def poisoned(payload):
            return payload[0] == POISON

        real_batch = server_module.extract_features_batch
        real_single = server_module.extract_features

        def fragile_batch(rows, fs, dtype=None):
            if any(poisoned(row) for row in rows):
                raise FloatingPointError("poisoned window")
            return real_batch(rows, fs, dtype)

        def fragile_single(row, fs):
            if poisoned(row):
                raise FloatingPointError("poisoned window")
            return real_single(row, fs)

        windows = _windows(8, seed=4)
        windows[5][0] = POISON
        submissions = [(w, 420.0) for w in windows]
        healthy, _ = _serve(registry, [s for i, s in enumerate(submissions) if i != 5])

        reset_observability()
        monkeypatch.setattr(server_module, "extract_features_batch", fragile_batch)
        monkeypatch.setattr(server_module, "extract_features", fragile_single)
        results, batches = _serve(registry, submissions)

        assert batches == 1
        assert results[5].status == "error"
        assert "poisoned window" in results[5].error
        good = [r for i, r in enumerate(results) if i != 5]
        assert all(r.ok for r in good)
        _assert_same_answers(good, healthy)
        reg = metrics()
        assert reg.counter_value("serve.errors", model="blobs-clf", reason="input") == 1
        assert reg.counter_total("serve.errors") == 1
        assert reg.counter_total("serve.extract_isolation") == 1

    def test_nan_window_keeps_its_per_row_label(self, registry, packed_classifier_bundle):
        windows = _windows(6, seed=6)
        windows[2][[3, 40]] = np.nan
        windows[4][7] = np.inf
        windows.append(windows[2] + 0.5)  # a same-length batchmate
        with np.errstate(all="ignore"):
            rows = [np.nan_to_num(reference_features(w, 420.0), nan=0.0) for w in windows]
        expected = load_bundle(packed_classifier_bundle).predict(np.vstack(rows))
        results, _ = _serve(registry, [(w, 420.0) for w in windows])
        assert all(r.ok for r in results)
        assert [r.label for r in results] == [str(label) for label in expected]
