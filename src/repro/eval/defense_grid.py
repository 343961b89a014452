"""Defense×attack grid runner — the privacy gate's measurement engine.

Sweeps a :class:`~repro.attack.privacy_gate.DefenseAxes` cross product
(sampling-rate cap × low-pass cutoff × injected-noise RMS × quantisation
LSB) against the attack's task heads in two attacker modes:

- ``static``   — classifier trained on *undefended* collections,
  evaluated on defended test splits (the attacker the defense is shipped
  against);
- ``adaptive`` — classifier retrained on the defended collections (the
  attacker that adapts to the deployed mitigation).

Each physical defended pass is collected exactly once per (config,
scenario) through the engine's :class:`~repro.attack.engine.CollectionCache`
— secondary tasks over the same corpus re-label cached product rows
(``cache.relabel_hits``), and the batched pipeline keeps the defended
pass as fast as the undefended one. Training/evaluation cells then fan
out over a shared :class:`~repro.parallel.ExecutorPool` through
:meth:`~repro.parallel.ExecutorPool.map_traced`.

A cell that raises comes back from the map as an exception *value* (the
sweep never dies mid-grid and traces stay balanced), and the finished
:class:`LeakageReport` marks the cell ``degraded``. A defense that
suppresses so much signal that no experiment can run is ``denied`` —
the defender's best case, scored at chance (leakage 0), matching
:func:`repro.attack.defense.evaluate_defense`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.attack.engine import CollectionCache
from repro.attack.privacy_gate import (
    LOWPASS_OFF,
    RATE_CAP_OFF,
    DefenseAxes,
    DefenseConfig,
    LeakageCell,
    LeakageReport,
)
from repro.eval.experiment import (
    ExperimentResult,
    make_classifier,
    run_feature_experiment,
)
from repro.ml.metrics import accuracy_score
from repro.ml.preprocessing import clean_features, train_test_split
from repro.obs import trace
from repro.parallel import ExecutorPool

__all__ = [
    "DEFAULT_GATE_SCENARIOS",
    "DEFENSE_TABLE_CONFIGS",
    "run_defense_grid",
    "run_defense_table",
]

#: task -> canonical scenario carrying that task head (PR-8 heads).
DEFAULT_GATE_SCENARIOS: Dict[str, str] = {
    "emotion": "tess-loud-oneplus7t",
    "speaker-id": "savee-speaker-oneplus7t",
    "gender": "cremad-gender-galaxys10",
    "content-id": "songs-content-oneplus7t",
}

#: Named defense stacks for the ``DEFENSES`` table (adaptive attacker).
DEFENSE_TABLE_CONFIGS: Dict[str, DefenseConfig] = {
    "undefended": DefenseConfig(),
    "cap200": DefenseConfig(rate_cap_hz=200.0),
    "cap50": DefenseConfig(rate_cap_hz=50.0),
    "cap50+lpf20": DefenseConfig(rate_cap_hz=50.0, lowpass_hz=20.0),
}

_DENIAL_MARKER = "too few usable samples"


def _collect_defended(
    scenario,
    task: str,
    config: Optional[DefenseConfig],
    noise_seed: int,
    subsample: Optional[int],
    seed: int,
    n_jobs: int,
    executor: Optional[str],
    cache: CollectionCache,
):
    """One (scenario, defense-config) collection pass through the engine."""
    from repro.attack.engine import collect_datasets
    from repro.attack.scenarios import get_scenario
    from repro.datasets import build_corpus

    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    corpus = build_corpus(scenario.dataset)
    if subsample:
        corpus = corpus.subsample(
            per_class=subsample,
            seed=seed,
            stratify_speakers=(task != "gender"),
        )
    channel = scenario.channel(seed=seed)
    defense = None if config is None else config.build(noise_seed)
    return collect_datasets(
        corpus,
        channel,
        seed=seed,
        n_jobs=n_jobs,
        executor=executor,
        cache=cache,
        task=task,
        defense=defense,
    )


def _score_cell(
    mode: str,
    classifier: str,
    defended,
    undefended,
    seed: int,
    fast: bool,
) -> dict:
    """One grid cell's numbers. Denial (not enough defended signal to
    run an experiment) scores at chance; anything else raises."""
    X_u, y_u, _ = clean_features(undefended.X, undefended.y)
    n_classes = int(np.unique(y_u).size) if y_u is not None else 0
    if n_classes < 2:
        raise ValueError(
            f"undefended corpus exposes {n_classes} classes; need >= 2"
        )
    chance = 1.0 / n_classes
    denial = {
        "status": "denied",
        "accuracy": chance,
        "chance": chance,
        "n_classes": n_classes,
        "n_test": 0,
        "extraction_rate": float(defended.extraction_rate),
    }
    if mode == "adaptive":
        try:
            result = run_feature_experiment(
                defended, classifier, seed=seed, fast=fast
            )
        except ValueError as exc:
            if _DENIAL_MARKER in str(exc):
                return denial
            raise
        return {
            "status": "ok",
            "accuracy": float(result.accuracy),
            "chance": chance,
            "n_classes": n_classes,
            "n_test": int(result.n_test),
            "extraction_rate": float(defended.extraction_rate),
        }
    if mode != "static":
        raise ValueError(f"unknown attacker mode {mode!r}")
    if X_u.shape[0] < 10:
        raise ValueError(
            f"{_DENIAL_MARKER} ({X_u.shape[0]}) in the undefended baseline"
        )
    X_d, y_d, _ = clean_features(defended.X, defended.y)
    if X_d.shape[0] < 10:
        return denial
    X_train, _, y_train, _ = train_test_split(
        X_u, y_u, test_fraction=0.2, seed=seed
    )
    _, X_test, _, y_test = train_test_split(
        X_d, y_d, test_fraction=0.2, seed=seed
    )
    model = make_classifier(classifier, seed=seed, fast=fast)
    with trace(
        "train",
        classifier=classifier,
        n_train=X_train.shape[0],
        metric_labels={"classifier": classifier},
    ):
        model.fit(X_train, y_train)
    with trace(
        "evaluate",
        classifier=classifier,
        n_test=X_test.shape[0],
        metric_labels={"classifier": classifier},
    ):
        accuracy = accuracy_score(y_test, model.predict(X_test))
    return {
        "status": "ok",
        "accuracy": float(accuracy),
        "chance": chance,
        "n_classes": n_classes,
        "n_test": int(y_test.size),
        "extraction_rate": float(defended.extraction_rate),
    }


def _run_grid_cell(task) -> dict:
    """One (config, task, mode, classifier) cell's task (module-level,
    hence picklable) under its ``gate_cell`` span."""
    config_name, task_name, mode, classifier, defended, undefended, seed, fast = task
    with trace(
        "gate_cell",
        config=config_name,
        task=task_name,
        mode=mode,
        classifier=classifier,
    ):
        return _score_cell(mode, classifier, defended, undefended, seed, fast)


def _normalise_scenarios(scenarios) -> Dict[str, str]:
    from repro.attack.scenarios import get_scenario

    if scenarios is None:
        return {"emotion": DEFAULT_GATE_SCENARIOS["emotion"]}
    if isinstance(scenarios, str):
        scenario = get_scenario(scenarios)
        return {getattr(scenario, "task", "emotion"): scenarios}
    if isinstance(scenarios, dict):
        return dict(scenarios)
    out: Dict[str, str] = {}
    for name in scenarios:
        scenario = get_scenario(name)
        task = getattr(scenario, "task", "emotion")
        if task in out:
            raise ValueError(f"two scenarios carry task {task!r}: "
                             f"{out[task]!r} and {name!r}")
        out[task] = name
    return out


def run_defense_grid(
    scenarios: Union[None, str, Dict[str, str], Tuple[str, ...]] = None,
    axes: Optional[DefenseAxes] = None,
    configs: Optional[List[DefenseConfig]] = None,
    modes: Tuple[str, ...] = ("static", "adaptive"),
    classifiers: Tuple[str, ...] = ("logistic", "random_forest"),
    subsample: Optional[int] = 12,
    seed: int = 0,
    noise_seed: int = 0,
    fast: bool = True,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pool: Optional[ExecutorPool] = None,
) -> LeakageReport:
    """Run the defense×attack grid and return its :class:`LeakageReport`.

    Parameters
    ----------
    scenarios:
        Which task heads to attack: a ``task -> scenario name`` dict, a
        single scenario name (its own task), a sequence of scenario
        names (one per task), or None for the emotion head on
        ``tess-loud-oneplus7t``. :data:`DEFAULT_GATE_SCENARIOS` maps all
        four PR-8 heads.
    axes:
        The swept defense values; the grid is their full cross product.
    configs:
        Optional explicit config subset (e.g. the ``DEFENSES`` table's
        named stacks). Default: every config in ``axes``.
    modes:
        Attacker modes: ``static`` (trained undefended) and/or
        ``adaptive`` (retrained under the defense).
    subsample / seed / fast / n_jobs / executor / cache / pool:
        As in :func:`repro.eval.suite.run_table`; the cache is shared
        across the whole grid so every physical pass runs once and
        secondary tasks re-label.
    noise_seed:
        Seed for the injected-noise defense stage — part of each
        defended pass's cache key.
    """
    axes = axes if axes is not None else DefenseAxes()
    grid_configs = list(configs) if configs is not None else axes.configs()
    scenario_map = _normalise_scenarios(scenarios)
    modes = tuple(modes)
    classifiers = tuple(classifiers)
    cache = cache if cache is not None else CollectionCache()
    owns_pool = pool is None
    if pool is None:
        pool = ExecutorPool(n_jobs=n_jobs, executor=executor)

    report = LeakageReport(
        axes=axes,
        scenarios=dict(scenario_map),
        tasks=tuple(scenario_map),
        modes=modes,
        classifiers=classifiers,
        seed=int(seed),
        noise_seed=int(noise_seed),
        subsample=subsample,
    )
    try:
        with trace(
            "defense_grid",
            configs=len(grid_configs),
            tasks=len(scenario_map),
            modes=len(modes),
        ) as grid_span:
            # Phase 1 — collections. One undefended baseline per task
            # (the static attacker's training data and every cell's
            # class inventory), then one defended pass per (config,
            # task); errors are kept as values so one failing pass
            # degrades its own cells only.
            undefended: Dict[str, object] = {}
            for task, scenario in scenario_map.items():
                try:
                    undefended[task] = _collect_defended(
                        scenario, task, None, noise_seed,
                        subsample, seed, n_jobs, executor, cache,
                    ).features
                except Exception as exc:  # error-as-value
                    undefended[task] = exc
            defended: Dict[Tuple, object] = {}
            for config in grid_configs:
                for task, scenario in scenario_map.items():
                    try:
                        defended[(config.key, task)] = _collect_defended(
                            scenario, task, config, noise_seed,
                            subsample, seed, n_jobs, executor, cache,
                        ).features
                    except Exception as exc:  # error-as-value
                        defended[(config.key, task)] = exc

            # Phase 2 — fan the independent training/evaluation cells
            # out over the shared pool.
            cell_ids = [
                (config, task, mode, classifier)
                for config in grid_configs
                for task in scenario_map
                for mode in modes
                for classifier in classifiers
            ]
            tasks = {}
            prefailed: Dict[int, str] = {}
            for index, (config, task, mode, classifier) in enumerate(cell_ids):
                base = undefended[task]
                dfnd = defended[(config.key, task)]
                failure = next(
                    (x for x in (dfnd, base) if isinstance(x, Exception)), None
                )
                if failure is not None:
                    prefailed[index] = f"collection failed: {failure}"
                    continue
                tasks[index] = (config.name, task, mode, classifier, dfnd, base, seed, fast)
            outcomes = pool.map_traced(_run_grid_cell, tasks.values(), parent=grid_span)
            outcomes = dict(zip(tasks, outcomes))
            for index, (config, task, mode, classifier) in enumerate(cell_ids):
                cell = LeakageCell(
                    config=config, task=task, mode=mode, classifier=classifier
                )
                if index in prefailed:
                    cell.status = "degraded"
                    cell.error = prefailed[index]
                else:
                    outcome, error = outcomes[index]
                    if error is not None:
                        cell.status = "degraded"
                        cell.error = f"{type(error).__name__}: {error}"
                    else:
                        cell.status = outcome["status"]
                        cell.accuracy = outcome["accuracy"]
                        cell.chance = outcome["chance"]
                        cell.n_classes = outcome["n_classes"]
                        cell.n_test = outcome["n_test"]
                        cell.extraction_rate = outcome["extraction_rate"]
                report.cells.append(cell)
            report.meta["relabel_hits"] = _relabel_hits()
            report.meta["n_degraded"] = len(report.degraded_cells())
    finally:
        if owns_pool:
            pool.close()
    return report


def _relabel_hits() -> int:
    from repro.obs import metrics

    try:
        return int(metrics().counter_total("cache.relabel_hits"))
    except Exception:
        return 0


def run_defense_table(
    subsample: Optional[int] = 20,
    seed: int = 0,
    fast: bool = True,
    classifiers: Tuple[str, ...] = ("logistic", "random_forest"),
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pool: Optional[ExecutorPool] = None,
    scenario: str = "tess-loud-oneplus7t",
) -> Tuple[LeakageReport, Dict[Tuple[str, str], ExperimentResult]]:
    """The ``DEFENSES`` table: named defense stacks × classifiers,
    adaptive attacker, one scenario. Returns the underlying report plus
    ``(defense_name, classifier) -> ExperimentResult`` cells for
    :class:`~repro.eval.suite.TableSuite`."""
    axes = DefenseAxes(
        rate_caps_hz=(RATE_CAP_OFF, 200.0, 50.0),
        lowpass_hz=(LOWPASS_OFF, 20.0),
    )
    report = run_defense_grid(
        scenarios=scenario,
        axes=axes,
        configs=list(DEFENSE_TABLE_CONFIGS.values()),
        modes=("adaptive",),
        classifiers=classifiers,
        subsample=subsample,
        seed=seed,
        fast=fast,
        n_jobs=n_jobs,
        executor=executor,
        cache=cache,
        pool=pool,
    )
    cells: Dict[Tuple[str, str], ExperimentResult] = {}
    by_key = {config.key: name for name, config in DEFENSE_TABLE_CONFIGS.items()}
    for cell in report.cells:
        if cell.status == "degraded":
            raise RuntimeError(
                f"DEFENSES cell {cell.config.name}/{cell.classifier} "
                f"degraded: {cell.error}"
            )
        name = by_key[cell.config.key]
        cells[(name, cell.classifier)] = ExperimentResult(
            classifier=cell.classifier,
            accuracy=float(cell.accuracy),
            n_train=0,
            n_test=int(cell.n_test),
            n_classes=max(1, int(cell.n_classes)),
            confusion=np.zeros((0, 0)),
            labels=np.array([]),
            extraction_rate=float(cell.extraction_rate),
        )
    return report, cells
