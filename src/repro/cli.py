"""Command-line interface: run one EmoLeak experiment cell.

Usage::

    python -m repro.cli --scenario tess-loud-oneplus7t --classifier logistic
    python -m repro.cli --list-scenarios
    python -m repro.cli --scenario savee-ear-oneplus9 --classifier cnn \
        --subsample 10 --fast
    python -m repro.cli --table V --subsample 15     # regenerate a whole table
    python -m repro.cli bundle pack --scenario tess-loud-oneplus7t \
        --classifier logistic --out model.zip        # deployable model bundle
    python -m repro.cli bundle inspect model.zip
    python -m repro.cli serve --bundle model.zip --burst 64
    python -m repro.cli serve --bundle model.zip --listen 127.0.0.1:7860
    python -m repro.cli client --connect 127.0.0.1:7860 --tenant phone-a
    python -m repro.cli gate pack --out gate.zip --subsample 8
    python -m repro.cli gate score --bundle gate.zip --rate-cap 125 \
        --lowpass 1000                               # leakage of a config

Prints the paper-vs-measured comparison line and the confusion matrix
(or, with ``--table``, the full reproduced table next to the published
values). The ``bundle``/``serve``/``client`` subcommands are the
serving layer — see :mod:`repro.serve.cli`.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.attack.engine import EXECUTOR_NAMES, CollectionCache
from repro.attack.pipeline import EmoLeakAttack
from repro.attack.scenarios import SCENARIOS, get_scenario
from repro.datasets import TASKS, build_corpus
from repro.eval.experiment import (
    CLASSIFIER_NAMES,
    run_feature_experiment,
    run_spectrogram_experiment,
)
from repro.eval.reporting import paper_comparison
from repro.eval.tables import format_confusion

__all__ = ["main", "build_parser"]

_TABLE_OF = {"Table III": "III", "Table IV": "IV", "Table V": "V", "Table VI": "VI"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run one EmoLeak evaluation cell (dataset x device x classifier).",
    )
    parser.add_argument(
        "--scenario",
        help="canonical scenario name (see --list-scenarios)",
    )
    parser.add_argument(
        "--table",
        choices=("III", "IV", "V", "VI", "ATTACKS", "DEFENSES"),
        help="regenerate a whole paper table instead of one cell "
             "(ATTACKS: the multi-attack task comparison; DEFENSES: "
             "the mitigation sweep vs the adaptive attacker)",
    )
    parser.add_argument(
        "--task",
        choices=TASKS,
        default=None,
        help="attack label to train on: emotion, speaker-id, gender or "
             "content-id (default: the scenario's own task)",
    )
    parser.add_argument(
        "--classifier",
        default="logistic",
        choices=CLASSIFIER_NAMES,
        help="classifier to evaluate (default: logistic)",
    )
    parser.add_argument(
        "--subsample",
        type=int,
        default=None,
        metavar="N",
        help="use only N utterances per emotion class",
    )
    parser.add_argument(
        "--sample-rate",
        type=float,
        default=None,
        metavar="HZ",
        help="cap the accelerometer rate (e.g. 200 for the Android-12 limit)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="experiment seed (default: 0)"
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink CNNs/ensembles for a quick run",
    )
    parser.add_argument(
        "--n-jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker count for the collection engine and, with --table, "
             "the training/evaluation cell fan-out (results are "
             "identical at any value; default: 1)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTOR_NAMES,
        default=None,
        help="executor for collection and cell training (default: "
             "serial for --n-jobs 1, thread otherwise)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist collection passes as .npz bundles under DIR and "
             "reuse them on later runs",
    )
    parser.add_argument(
        "--nn-dtype",
        choices=("float64", "float32"),
        default=None,
        help="CNN compute dtype (default float64, the historical "
             "numerics; float32 roughly halves training time)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write the run's span trace as JSON Lines (one span per line)",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the span tree and per-stage metrics table at exit",
    )
    parser.add_argument(
        "--list-scenarios",
        action="store_true",
        help="list canonical scenarios and exit",
    )
    return parser


def _finish_observability(args) -> None:
    """Export/print the run's trace and metrics per the CLI flags."""
    from repro.obs import metrics, tracer

    if args.metrics:
        print("\n--- trace ---")
        print(tracer().render_tree())
        print("\n--- metrics ---")
        print(metrics().render_table())
    if args.trace_out:
        n_spans = tracer().export_jsonl(args.trace_out)
        print(f"\ntrace: wrote {n_spans} spans to {args.trace_out}")


def _list_scenarios() -> None:
    print(f"{'scenario':<26} {'dataset':<8} {'device':<16} {'mode':<12} "
          f"{'task':<11} paper")
    for name in sorted(SCENARIOS):
        s = SCENARIOS[name]
        print(
            f"{name:<26} {s.dataset:<8} {s.device:<16} "
            f"{s.mode.value:<12} {s.task:<11} {s.paper_table}"
        )


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in ("bundle", "serve", "client", "gate"):
        # Serving-layer subcommands: `repro bundle pack|inspect`,
        # `repro serve [--listen HOST:PORT]`, `repro client --connect …`,
        # `repro gate pack|score` (privacy-gate leakage scoring).
        from repro.serve.cli import main as serve_main

        return serve_main(argv)
    args = build_parser().parse_args(argv)
    if args.list_scenarios:
        _list_scenarios()
        return 0
    if args.nn_dtype:
        from repro.nn.policy import set_policy

        set_policy(compute_dtype=args.nn_dtype)
    cache = CollectionCache(cache_dir=args.cache_dir)
    if args.table:
        from repro.eval.suite import run_table

        suite = run_table(
            args.table,
            subsample=args.subsample or 20,
            seed=args.seed,
            fast=True,
            n_jobs=args.n_jobs,
            executor=args.executor,
            cache=cache,
        )
        print(suite.render())
        _finish_observability(args)
        return 0
    if not args.scenario:
        print("error: --scenario or --table is required "
              "(or use --list-scenarios)", file=sys.stderr)
        return 2

    scenario = get_scenario(args.scenario)
    task = args.task if args.task else scenario.task
    corpus = build_corpus(scenario.dataset)
    if args.subsample:
        corpus = corpus.subsample(per_class=args.subsample, seed=args.seed)

    channel = scenario.channel(sample_rate=args.sample_rate, seed=args.seed)
    attack = EmoLeakAttack(
        channel,
        seed=args.seed,
        n_jobs=args.n_jobs,
        executor=args.executor,
        cache=cache,
        task=task,
    )

    print(f"scenario  : {scenario.name} ({scenario.paper_table})")
    print(f"task      : {task}")
    print(f"corpus    : {scenario.dataset}, {len(corpus)} utterances")
    print(f"channel   : {channel.device.display_name}, {channel.mode.value}, "
          f"{channel.placement.value}, {channel.accel_fs:.0f} Hz")

    if args.classifier == "cnn_spectrogram":
        data = attack.collect_spectrograms(corpus)
        print(f"collected : {data.images.shape[0]} spectrograms "
              f"({data.extraction_rate:.0%} extraction)")
        result = run_spectrogram_experiment(data, seed=args.seed, fast=args.fast)
    else:
        data = attack.collect_features(corpus)
        print(f"collected : {data.X.shape[0]} feature vectors "
              f"({data.extraction_rate:.0%} extraction)")
        result = run_feature_experiment(
            data, args.classifier, seed=args.seed, fast=args.fast
        )

    table = _TABLE_OF.get(scenario.paper_table, scenario.paper_table)
    print()
    if task == "emotion":
        print(paper_comparison(
            table, scenario.dataset, scenario.device, args.classifier,
            result.accuracy,
        ))
    else:
        # Non-emotion tasks have no published EmoLeak number to compare
        # against; report accuracy against the random-guess rate instead.
        print(
            f"{task}: accuracy={result.accuracy:.2%} over {result.n_classes} "
            f"classes (chance {result.random_guess:.2%}, "
            f"{result.gain_over_chance:.1f}x)"
        )
    print()
    print(format_confusion(result.confusion, result.labels))
    _finish_observability(args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
