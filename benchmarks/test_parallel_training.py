"""Parallel training engine and batched data plane: throughput gates.

Two comparisons share this module:

- **Training engine**: the same warm-cache table run twice — serial,
  then fanned over the process executor — asserting the parallel wall
  time wins on a multi-core box *without* changing a single cell
  accuracy. Collection is pre-warmed into a shared cache so the
  comparison isolates the training/evaluation engine. Skipped on
  single-core machines, where there is no speedup to measure.
- **Collection data plane**: the same corpus collected twice through
  ``collect_datasets`` — the per-utterance reference pipeline, then the
  batched pipeline — asserting byte-identical datasets and a >= 3x
  throughput win. Both passes run after a small warm-up so process-wide
  design caches (filter coefficients, the glottal pulse bank) are
  excluded from the comparison, and each timed pass starts from an
  empty render memo so synthesis stays in it. The measured ratio is written to
  ``BENCH_7.json`` (override with ``EMOLEAK_DATA_BENCH_OUT``) so CI
  merges it into the bench-trajectory artifact.
"""

from __future__ import annotations

import json
import os
import platform
import time

import pytest

from repro.attack.engine import CollectionCache, collect_datasets
from repro.datasets import base, build_tess
from repro.eval.experiment import collect_scenario_datasets
from repro.eval.suite import TABLE_DEFINITIONS, run_table
from repro.phone import VibrationChannel

from benchmarks._common import print_header

_CORES = os.cpu_count() or 1

#: Filled by the data-plane gate, serialised to BENCH_7.json at session end.
DATA_PLANE_RESULTS: dict[str, float] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_data_bench_artifact():
    """Write the data-plane trajectory once the gate has reported."""
    yield
    if not DATA_PLANE_RESULTS:
        return
    path = os.environ.get("EMOLEAK_DATA_BENCH_OUT", "BENCH_7.json")
    payload = {
        "schema": "emoleak/data-plane-bench/v1",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cores": _CORES,
        **DATA_PLANE_RESULTS,
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"\nwrote {path}")

_TABLE = "III"
_CLASSIFIERS = ("logistic", "multiclass", "lmt", "cnn")
_SUBSAMPLE = 20


@pytest.mark.skipif(_CORES < 2, reason="needs >= 2 cores to show a speedup")
def test_parallel_run_table_beats_serial(benchmark):
    n_jobs = min(4, _CORES)
    cache = CollectionCache()
    scenario_names, _ = TABLE_DEFINITIONS[_TABLE]
    out = {}

    def run():
        # Warm the collection cache so both timed runs are training-only.
        for name in scenario_names:
            collect_scenario_datasets(
                name, subsample=_SUBSAMPLE, seed=0, cache=cache
            )
        t0 = time.perf_counter()
        serial = run_table(
            _TABLE, subsample=_SUBSAMPLE, seed=0, fast=True,
            classifiers=_CLASSIFIERS, cache=cache,
        )
        t1 = time.perf_counter()
        parallel = run_table(
            _TABLE, subsample=_SUBSAMPLE, seed=0, fast=True,
            classifiers=_CLASSIFIERS, cache=cache,
            n_jobs=n_jobs, executor="process",
        )
        t2 = time.perf_counter()
        out["serial"] = serial
        out["parallel"] = parallel
        out["serial_s"] = t1 - t0
        out["parallel_s"] = t2 - t1
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)

    print_header(
        f"Parallel training engine - Table {_TABLE}, "
        f"{len(out['serial'].cells)} cells, {n_jobs} process workers"
    )
    speedup = out["serial_s"] / max(out["parallel_s"], 1e-9)
    print(f"  serial   : {out['serial_s']:.2f}s")
    print(f"  parallel : {out['parallel_s']:.2f}s  ({speedup:.2f}x)")

    # Identical results first: the speedup must be free.
    assert set(out["parallel"].cells) == set(out["serial"].cells)
    for key, result in out["serial"].cells.items():
        assert out["parallel"].cells[key].accuracy == result.accuracy, key
    # The point of the engine: the fan-out wins on a multi-core box.
    assert out["parallel_s"] < out["serial_s"]


def _best_of_interleaved(fns, repeats: int = 4) -> list[float]:
    """Best-of-N wall times measured in interleaved rounds.

    Alternating the candidates inside each round means a transient load
    burst on a shared box hits all of them in the same window instead of
    biasing whichever happened to run last; the per-candidate best then
    comes from each one's quietest window.
    """
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for k, fn in enumerate(fns):
            t0 = time.perf_counter()
            fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best


def test_batched_collection_beats_per_utterance(benchmark):
    """PR 7 gate: the batched data plane is >= 3x the reference, for free."""
    corpus = build_tess(words_per_emotion=20, seed=1)  # 280 utterances
    channel = VibrationChannel(
        "oneplus7t", mode="loudspeaker", placement="table_top"
    )
    out = {}

    def collect(pipeline):
        # Synthesis is part of the data plane this gate measures: start
        # each pass from an empty render memo, or both would skip it.
        base._RENDER_MEMO.clear()
        return collect_datasets(corpus, channel, seed=0, pipeline=pipeline)

    def run():
        # Warm process-wide design caches (filter coefficients, the
        # glottal pulse bank) so both timed passes start equal.
        warm = corpus.specs[:8]
        for pipeline in ("per_utterance", "batched"):
            collect_datasets(
                corpus, channel, specs=warm, seed=0, pipeline=pipeline
            )
        out["reference"] = collect("per_utterance")
        out["batched"] = collect("batched")
        out["reference_s"], out["batched_s"] = _best_of_interleaved(
            [lambda: collect("per_utterance"), lambda: collect("batched")]
        )
        return out

    benchmark.pedantic(run, rounds=1, iterations=1)

    ratio = out["reference_s"] / max(out["batched_s"], 1e-9)
    n = len(corpus.specs)
    print_header(
        f"Batched data plane - TESS {n} utterances, oneplus7t loudspeaker"
    )
    print(f"  per-utterance : {out['reference_s']:.3f}s "
          f"({n / out['reference_s']:.0f} utt/s)")
    print(f"  batched       : {out['batched_s']:.3f}s "
          f"({n / out['batched_s']:.0f} utt/s, {ratio:.2f}x)")

    DATA_PLANE_RESULTS.update(
        schema_note="per_utterance vs batched collect_datasets, warm caches",
        n_utterances=n,
        reference_s=out["reference_s"],
        batched_s=out["batched_s"],
        speedup=ratio,
    )

    # Identical results first: the speedup must be free (byte parity).
    ref, bat = out["reference"], out["batched"]
    assert bat.features.X.tobytes() == ref.features.X.tobytes()
    assert list(bat.features.y) == list(ref.features.y)
    assert bat.spectrograms.images.tobytes() == ref.spectrograms.images.tobytes()
    # The tentpole gate: >= 3x collection throughput.
    assert ratio >= 3.0, f"batched data plane only {ratio:.2f}x"
