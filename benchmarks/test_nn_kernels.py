"""NN compute-kernel microbenchmarks: GEMM vs reference conv kernels.

Times the conv kernels three ways — the seed's kernel-offset loop in
float64 (``reference/f64``), the im2col GEMM rewrite in float64
(``gemm/f64``), and GEMM under the float32 precision policy
(``gemm/f32``) — first as isolated layer forward/backward
microbenchmarks, then as full one-epoch ``fit`` runs of the paper's
feature CNN and spectrogram CNN.

A last row times the spectrogram CNN's first ``ReLU -> Dropout ->
MaxPool2D`` tail two ways: the three standalone layers in turn
(``stack``) and the fused unit ``Sequential`` actually runs
(``fused``), at widths 1.0 and 0.25.

The acceptance gates live here: the GEMM+float32 spectrogram-CNN epoch
must run at least 2x faster than the seed kernel path, and the fused
tail at least 1.5x faster than the stack. All timings and the derived
speedups are written to ``BENCH_4.json`` (override the path with
``EMOLEAK_BENCH_OUT``) so CI uploads the trajectory as an artifact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.attack.models import build_feature_cnn, build_spectrogram_cnn
from repro.nn.layers import (
    Conv1D,
    Conv2D,
    Dropout,
    MaxPool2D,
    ReLU,
    ReLUDropoutPool,
)
from repro.nn.optim import Adam
from repro.nn.policy import policy_scope

from benchmarks._common import print_header

#: (label, conv_kernel, compute_dtype). ``reference/f64`` is the seed path.
CONFIGS = [
    ("reference/f64", "reference", "float64"),
    ("gemm/f64", "gemm", "float64"),
    ("gemm/f32", "gemm", "float32"),
]

#: Filled by the tests, serialised to BENCH_4.json at session end.
RESULTS: dict[str, dict[str, float]] = {}
#: Fused-tail row: {"stack": s, "fused": s} per width.
TAIL: dict[str, dict[str, float]] = {}


def _best_of(fn, repeats: int = 3) -> float:
    """Best-of-N wall time: the least-noisy point estimate on shared CI."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _print_block(name: str) -> None:
    print_header(f"NN kernel benchmark - {name}")
    block = RESULTS[name]
    base = block["reference/f64"]
    for label, _, _ in CONFIGS:
        secs = block[label]
        print(f"  {label:<14}: {secs * 1e3:9.2f} ms  ({base / secs:5.2f}x)")


@pytest.fixture(scope="module", autouse=True)
def _write_bench_artifact():
    """Write the timing trajectory once every benchmark has reported."""
    yield
    path = os.environ.get("EMOLEAK_BENCH_OUT", "BENCH_4.json")
    speedups = {
        name: {
            label: block["reference/f64"] / block[label]
            for label, _, _ in CONFIGS
        }
        for name, block in RESULTS.items()
    }
    payload = {
        "schema": "emoleak/nn-kernel-bench/v1",
        "numpy": np.__version__,
        "configs": [
            {"label": label, "conv_kernel": kernel, "compute_dtype": dtype}
            for label, kernel, dtype in CONFIGS
        ],
        "seconds": RESULTS,
        "speedup_vs_reference_f64": speedups,
        "fused_tail_seconds": TAIL,
        "fused_tail_speedup_vs_stack": {
            name: block["stack"] / block["fused"] for name, block in TAIL.items()
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"\n[emoleak] wrote kernel benchmark trajectory to {path}")


def _conv_layer_seconds(make_layer, input_shape, x64, kernel, dtype):
    """Forward+backward wall time for one conv layer under a config."""
    with policy_scope(compute_dtype=dtype, conv_kernel=kernel):
        layer = make_layer()
        layer.build(input_shape, np.random.default_rng(0))
    x = x64.astype(layer.params[0].dtype)
    grad_shape = layer.forward(x, training=True).shape
    grad = np.ones(grad_shape, dtype=x.dtype)

    def step():
        layer.forward(x, training=True)
        layer.backward(grad)

    step()  # warm the im2col workspace before timing
    return _best_of(step)


class TestConvMicrobench:
    def test_conv2d_forward_backward(self):
        x64 = np.random.default_rng(1).normal(size=(32, 32, 32, 8))
        RESULTS["conv2d_32x32x8_f16k3"] = {
            label: _conv_layer_seconds(
                lambda: Conv2D(16, (3, 3), padding="same"),
                (32, 32, 8), x64, kernel, dtype,
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("conv2d_32x32x8_f16k3")

    def test_conv1d_forward_backward(self):
        x64 = np.random.default_rng(2).normal(size=(64, 96, 8))
        RESULTS["conv1d_96x8_f16k5"] = {
            label: _conv_layer_seconds(
                lambda: Conv1D(16, 5, padding="same"),
                (96, 8), x64, kernel, dtype,
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("conv1d_96x8_f16k5")


def _epoch_seconds(builder, shape, width_scale, n, kernel, dtype, batch_size=32):
    """One-epoch fit wall time for a paper CNN under a config."""
    rng = np.random.default_rng(0)
    X = rng.random((n,) + shape) - 0.5
    y = rng.integers(0, 4, n)
    with policy_scope(compute_dtype=dtype, conv_kernel=kernel):
        model = builder(4, width_scale=width_scale, seed=0)
        model.build(shape)

        def epoch():
            model.fit(
                X, y, epochs=1, batch_size=batch_size,
                optimizer=Adam(lr=1e-3), shuffle_seed=0,
            )

        epoch()  # warm workspaces + dtype casts before timing
        return _best_of(epoch, repeats=2)


class TestModelEpochBench:
    def test_feature_cnn_epoch(self):
        RESULTS["feature_cnn_epoch"] = {
            label: _epoch_seconds(
                build_feature_cnn, (24, 1), 0.5, 128, kernel, dtype
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("feature_cnn_epoch")

    def test_spectrogram_cnn_epoch_meets_speedup_gate(self):
        """Acceptance gate: GEMM+float32 epoch >= 2x the seed kernel path.

        Paper-scale width: at toy widths the conv layers are too small to
        dominate and the measurement reflects Python overhead instead.
        """
        RESULTS["spectrogram_cnn_epoch"] = {
            label: _epoch_seconds(
                build_spectrogram_cnn, (32, 32, 1), 1.0, 64, kernel, dtype
            )
            for label, kernel, dtype in CONFIGS
        }
        _print_block("spectrogram_cnn_epoch")
        block = RESULTS["spectrogram_cnn_epoch"]
        speedup = block["reference/f64"] / block["gemm/f32"]
        assert speedup >= 2.0, (
            f"GEMM+float32 spectrogram epoch only {speedup:.2f}x faster than "
            f"the reference float64 kernels (gate: 2x)"
        )


class TestFusedTailBench:
    @pytest.mark.parametrize("width_scale", [1.0, 0.25])
    def test_fused_tail_meets_speedup_gate(self, width_scale):
        """Acceptance gate: the fused tail runs >= 1.5x faster than the stack.

        The spectrogram CNN's first block at batch 32: its 1x1 conv's
        32x32 float64 maps through ReLU -> Dropout(0.2) -> MaxPool2D(2),
        forward and backward over a few batches, best of 3 (interleaved).
        """
        filters = build_spectrogram_cnn(7, width_scale=width_scale).layers[0].filters
        rng = np.random.default_rng(3)
        x = rng.normal(size=(32, 32, 32, filters))
        grad = rng.normal(size=(32, 16, 16, filters))
        stack = [ReLU(), Dropout(0.2, seed=1), MaxPool2D(2)]
        fused = [ReLUDropoutPool(Dropout(0.2, seed=1), MaxPool2D(2))]

        def batches(units):
            for _ in range(3):
                out = x
                for unit in units:
                    out = unit.forward(out, True)
                g = grad
                for unit in reversed(units):
                    g = unit.backward(g)

        batches(stack)  # warm caches, allocators and the fused scratch
        batches(fused)
        best = {"stack": float("inf"), "fused": float("inf")}
        for _ in range(3):
            for label, units in (("stack", stack), ("fused", fused)):
                t0 = time.perf_counter()
                batches(units)
                best[label] = min(best[label], time.perf_counter() - t0)
        name = f"relu_dropout_maxpool2d_32x32x{filters}"
        TAIL[name] = best
        speedup = best["stack"] / best["fused"]
        print_header(f"NN kernel benchmark - {name}")
        print(f"  stack: {best['stack'] * 1e3:9.2f} ms")
        print(f"  fused: {best['fused'] * 1e3:9.2f} ms  ({speedup:5.2f}x)")
        assert speedup >= 1.5, (
            f"fused ReLU->Dropout->MaxPool2D only {speedup:.2f}x faster than "
            f"the three-layer stack at width {width_scale} (gate: 1.5x)"
        )
