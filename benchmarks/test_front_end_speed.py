"""Stacked region detection vs the per-row detector (speed gate).

One collection chunk — 32 TESS utterances rendered, padded with 0.3 s of
silence on each side and transmitted table-top, as the engine does —
goes through ``RegionDetector.detect_batch`` (envelopes, percentiles and
Otsu thresholds over the whole stack; only the hysteresis walk and the
merge per row) and through the frozen per-row oracle
``tests/attack/_detect_reference.py`` (the per-row ``np.percentile`` /
``np.histogram`` maths the batch replaced). Both must find the same
regions; the batch must run at least 2x faster.

Run with::

    PYTHONPATH=src python -m pytest -q -s benchmarks/test_front_end_speed.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import numpy as np

from benchmarks._common import print_header

CHUNK_ROWS = 32
SPEEDUP_GATE = 2.0


def _chunk():
    from repro.attack.engine import _UTTERANCE_PAD_S, _item_rng
    from repro.datasets import build_tess
    from repro.phone import VibrationChannel

    corpus = build_tess(words_per_emotion=3, seed=1)
    channel = VibrationChannel("oneplus7t", mode="loudspeaker", placement="table_top")
    specs = corpus.specs[:CHUNK_ROWS]
    pad = np.zeros(int(_UTTERANCE_PAD_S * corpus.audio_fs))
    audios = [np.concatenate([pad, a, pad]) for a in corpus.render_batch(specs)]
    rngs = [_item_rng(1000, i) for i in range(len(specs))]
    return channel.transmit_batch(audios, corpus.audio_fs, rngs), channel.accel_fs


def _detect_seconds() -> dict:
    """Best-of-7 seconds per chunk for ``{"batched": s, "per_row": s}``."""
    from repro.attack.regions import RegionDetector
    from tests.attack._detect_reference import reference_detect

    traces, fs = _chunk()
    detector = RegionDetector.for_setting("table_top")
    runs = {
        "batched": lambda: detector.detect_batch(traces, fs),
        "per_row": lambda: [reference_detect(detector, t, fs) for t in traces],
    }
    assert runs["batched"]() == runs["per_row"]()
    best = {side: float("inf") for side in runs}
    for _ in range(7):  # interleaved, so drift hits both sides alike
        for side, run in runs.items():
            t0 = time.perf_counter()
            run()
            best[side] = min(best[side], time.perf_counter() - t0)
    return best


def test_stacked_detection_meets_speedup_gate():
    """Acceptance gate: ``detect_batch`` >= 2x the per-row detector.

    Timed in a fresh interpreter, as BENCH_4's fused-tail gate is, so the
    heap earlier tests leave behind does not move the ratio.
    """
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), root]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    code = (
        "import json\n"
        "from benchmarks.test_front_end_speed import _detect_seconds\n"
        "print(json.dumps(_detect_seconds()))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=root, env=env, capture_output=True, text=True, check=True,
    )
    best = json.loads(proc.stdout.strip().splitlines()[-1])
    speedup = best["per_row"] / best["batched"]
    print_header(f"Region detection - one {CHUNK_ROWS}-row TESS chunk")
    print(f"  per-row oracle: {best['per_row'] * 1e3:8.2f} ms")
    print(f"  detect_batch:   {best['batched'] * 1e3:8.2f} ms  ({speedup:5.2f}x)")
    assert speedup >= SPEEDUP_GATE, (
        f"detect_batch only {speedup:.2f}x faster than the per-row detector "
        f"on one {CHUNK_ROWS}-row chunk (gate: {SPEEDUP_GATE}x)"
    )
