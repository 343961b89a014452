"""Whole-table experiment suites.

Runs an entire paper table (III, IV, V or VI) programmatically —
collection, every classifier row, rendering — and returns structured
results plus the formatted text table. The benchmarks use finer-grained
control; this is the one-call API for users ("regenerate Table V").

The training cells run through
:meth:`repro.parallel.ExecutorPool.map_traced` on every executor, so a
failing cell raises only after every cell's spans have been merged
under the ``table`` span: serial and pooled runs leave the same trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.attack.engine import CollectionCache
from repro.attack.scenarios import SCENARIOS
from repro.eval.experiment import (
    ExperimentResult,
    collect_scenario_datasets,
    run_bundle_experiment,
)
from repro.eval.reporting import PAPER_RESULTS
from repro.eval.tables import format_table
from repro.obs import trace
from repro.parallel import ExecutorPool, results_or_raise

__all__ = ["TableSuite", "TABLE_DEFINITIONS", "run_table"]

#: Table id -> (scenario names, classifier rows).
TABLE_DEFINITIONS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    "III": (
        ("savee-loud-oneplus7t", "savee-loud-pixel5"),
        ("logistic", "multiclass", "lmt", "cnn", "cnn_spectrogram"),
    ),
    "IV": (
        ("cremad-loud-galaxys10",),
        ("logistic", "multiclass", "lmt", "cnn", "cnn_spectrogram"),
    ),
    "V": (
        (
            "tess-loud-oneplus7t",
            "tess-loud-galaxys10",
            "tess-loud-pixel5",
            "tess-loud-galaxys21",
            "tess-loud-galaxys21ultra",
        ),
        ("logistic", "multiclass", "lmt", "cnn", "cnn_spectrogram"),
    ),
    "VI": (
        ("savee-ear-oneplus7t", "savee-ear-oneplus9", "tess-ear-oneplus7t"),
        ("random_forest", "random_subspace", "lmt", "cnn"),
    ),
    # Multi-attack comparison: one column per sibling attack task
    # (emotion / speaker-ID / gender / song content-ID), same channel
    # physics, per-task labels. Not a paper table — the cross-attack
    # baseline the related work (Spearphone, EarSpy, Kinetic Song
    # Comprehension) establishes.
    "ATTACKS": (
        (
            "savee-loud-oneplus7t",
            "savee-speaker-oneplus7t",
            "cremad-gender-galaxys10",
            "songs-content-oneplus7t",
        ),
        ("logistic", "random_forest"),
    ),
    # Defense evaluation: one column per named defense stack (see
    # repro.eval.defense_grid.DEFENSE_TABLE_CONFIGS), adaptive attacker
    # (retrained under each defense) on the TESS/OnePlus-7T emotion
    # head. Not a paper table — the Section VI-B mitigation sweep.
    "DEFENSES": (
        ("undefended", "cap200", "cap50", "cap50+lpf20"),
        ("logistic", "random_forest"),
    ),
}


@dataclass
class TableSuite:
    """Results of one regenerated paper table.

    ``cells`` maps ``(scenario_name, classifier)`` to the experiment
    result; :meth:`render` produces the paper-style text table with the
    published value beside each measurement.
    """

    table: str
    cells: Dict[Tuple[str, str], ExperimentResult] = field(default_factory=dict)

    def render(self) -> str:
        scenario_names, classifiers = TABLE_DEFINITIONS[self.table]
        if self.table == "DEFENSES":
            # Columns are defense stacks, not scenarios; there is no
            # published number to compare against.
            headers = ["classifier"] + [
                f"{name} (adaptive)" for name in scenario_names
            ]
            rows = []
            for classifier in classifiers:
                row: List = [classifier]
                for name in scenario_names:
                    result = self.cells.get((name, classifier))
                    row.append(result.accuracy if result else "-")
                rows.append(row)
            return format_table(
                "Defense sweep — adaptive attacker (reproduced)", rows, headers
            )
        headers = ["classifier"]
        for name in scenario_names:
            scenario = SCENARIOS[name]
            if self.table == "ATTACKS":
                # Columns are attacks, not devices, in the comparison.
                headers.append(f"{scenario.task} (ours)")
            else:
                headers.append(f"{scenario.device} (ours)")
            headers.append("(paper)")
        rows: List[List] = []
        for classifier in classifiers:
            row: List = [classifier]
            for name in scenario_names:
                scenario = SCENARIOS[name]
                result = self.cells.get((name, classifier))
                row.append(result.accuracy if result else "-")
                paper = PAPER_RESULTS.get(
                    (self.table, scenario.dataset, scenario.device, classifier)
                )
                row.append(paper if paper is not None else "-")
            rows.append(row)
        title = (
            "Multi-attack comparison (reproduced)"
            if self.table == "ATTACKS"
            else f"Table {self.table} (reproduced)"
        )
        return format_table(title, rows, headers)


def _run_cell(task) -> ExperimentResult:
    """One (scenario, classifier) training cell's task (module-level,
    hence picklable) under its ``cell`` span."""
    name, classifier, bundle, seed, fast = task
    with trace("cell", scenario=name, classifier=classifier):
        return run_bundle_experiment(bundle, classifier, seed=seed, fast=fast)


def run_table(
    table: str,
    subsample: Optional[int] = 20,
    seed: int = 0,
    fast: bool = True,
    classifiers: Optional[Tuple[str, ...]] = None,
    n_jobs: int = 1,
    executor: Optional[str] = None,
    cache: Optional[CollectionCache] = None,
    pool: Optional[ExecutorPool] = None,
) -> TableSuite:
    """Regenerate one paper table.

    Parameters
    ----------
    table:
        ``"III"``, ``"IV"``, ``"V"``, ``"VI"`` or ``"ATTACKS"`` (the
        multi-attack comparison: one column per task).
    subsample:
        Utterances per emotion class (None = full corpus; the default 20
        keeps a five-device table in the minutes range).
    fast:
        Use the CI-scale classifier configurations.
    classifiers:
        Optional subset of the table's classifier rows.
    n_jobs / executor:
        Worker pool for *both* engines: each scenario's collection pass
        fans its utterances out (see :mod:`repro.attack.engine`), then
        the table's training/evaluation cells fan out over one shared
        :class:`~repro.parallel.ExecutorPool`. Cell results are
        identical at any worker count.
    cache:
        Collection cache; a private per-call cache is used when None, so
        each scenario's render→transmit→detect pass runs exactly once
        regardless of how many classifier rows consume it.
    pool:
        Optional existing :class:`~repro.parallel.ExecutorPool` to reuse
        for the cell fan-out (e.g. across several tables); when None a
        pool is created from ``n_jobs``/``executor`` and closed on exit.
    """
    key = table.upper().strip()
    if key not in TABLE_DEFINITIONS:
        raise ValueError(
            f"unknown table {table!r}; available: {sorted(TABLE_DEFINITIONS)}"
        )
    if subsample is not None and subsample < 10:
        import sys

        print(
            f"warning: subsample={subsample} per class gives very small "
            "train/test splits; accuracies will be noisy",
            file=sys.stderr,
        )
    scenario_names, default_classifiers = TABLE_DEFINITIONS[key]
    chosen = tuple(classifiers) if classifiers else default_classifiers
    unknown = set(chosen) - set(default_classifiers)
    if unknown:
        raise ValueError(f"classifiers {sorted(unknown)} not part of Table {key}")

    if key == "DEFENSES":
        # The defense sweep has its own runner (defended collections,
        # adaptive retraining, leakage bookkeeping); reuse its cells.
        from repro.eval.defense_grid import run_defense_table

        _report, cells = run_defense_table(
            subsample=subsample,
            seed=seed,
            fast=fast,
            classifiers=chosen,
            n_jobs=n_jobs,
            executor=executor,
            cache=cache,
            pool=pool,
        )
        suite = TableSuite(table=key)
        suite.cells.update(cells)
        return suite

    cache = cache if cache is not None else CollectionCache()
    owns_pool = pool is None
    if pool is None:
        pool = ExecutorPool(n_jobs=n_jobs, executor=executor)
    suite = TableSuite(table=key)
    try:
        with trace("table", table=key) as table_span:
            # Phase 1 — one collection pass per scenario, through the
            # engine (its own utterance-level parallelism); every cell
            # below consumes the cached bundle.
            bundles = {
                name: collect_scenario_datasets(
                    name,
                    subsample=subsample,
                    seed=seed,
                    n_jobs=n_jobs,
                    executor=executor,
                    cache=cache,
                )
                for name in scenario_names
            }
            cells = [
                (name, classifier)
                for name in scenario_names
                for classifier in chosen
            ]
            # Phase 2 — fan the independent training cells out over the
            # shared pool.
            tasks = [
                (name, classifier, bundles[name], seed, fast)
                for name, classifier in cells
            ]
            outcomes = pool.map_traced(_run_cell, tasks, parent=table_span)
            suite.cells.update(zip(cells, results_or_raise(outcomes)))
    finally:
        if owns_pool:
            pool.close()
    return suite
