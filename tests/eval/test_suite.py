"""Tests for repro.eval.suite (whole-table regeneration)."""

import pytest

from repro.eval.suite import TABLE_DEFINITIONS, run_table
from repro.obs import reset_observability, tracer
from repro.parallel import ExecutorPool


class TestTableDefinitions:
    def test_all_paper_tables_defined(self):
        # The paper's four tables plus the sibling-attack comparison and
        # the Section VI-B defense sweep.
        assert set(TABLE_DEFINITIONS) == {
            "III", "IV", "V", "VI", "ATTACKS", "DEFENSES",
        }

    def test_row_sets_match_paper(self):
        _, rows_iii = TABLE_DEFINITIONS["III"]
        assert "cnn_spectrogram" in rows_iii
        _, rows_vi = TABLE_DEFINITIONS["VI"]
        # Table VI has no spectrogram method (features only, per the paper).
        assert "cnn_spectrogram" not in rows_vi
        assert "random_forest" in rows_vi

    def test_table_v_has_five_devices(self):
        scenarios, _ = TABLE_DEFINITIONS["V"]
        assert len(scenarios) == 5


class TestRunTable:
    def test_unknown_table(self):
        with pytest.raises(ValueError, match="unknown table"):
            run_table("IX")

    def test_unknown_classifier(self):
        with pytest.raises(ValueError, match="not part of"):
            run_table("III", classifiers=("svm",))

    def test_small_table_iv(self):
        suite = run_table(
            "IV", subsample=6, seed=0, fast=True, classifiers=("logistic",)
        )
        assert len(suite.cells) == 1
        result = suite.cells[("cremad-loud-galaxys10", "logistic")]
        assert result.n_classes == 6
        assert 0.0 <= result.accuracy <= 1.0

    def test_render_contains_paper_values(self):
        suite = run_table(
            "IV", subsample=6, seed=0, fast=True, classifiers=("logistic",)
        )
        text = suite.render()
        assert "Table IV (reproduced)" in text
        assert "galaxys10 (ours)" in text
        assert "58.99%" in text  # the published cell

    def test_subset_of_table_iii(self):
        suite = run_table(
            "III", subsample=4, seed=0, fast=True, classifiers=("logistic",)
        )
        assert ("savee-loud-oneplus7t", "logistic") in suite.cells
        assert ("savee-loud-pixel5", "logistic") in suite.cells


class TestParallelRunTable:
    def test_parallel_cells_identical_to_serial(self):
        """The cell fan-out must not change a single accuracy."""
        kwargs = dict(
            subsample=6, seed=0, fast=True,
            classifiers=("logistic", "multiclass"),
        )
        serial = run_table("IV", **kwargs)
        parallel = run_table("IV", n_jobs=2, executor="thread", **kwargs)
        assert set(parallel.cells) == set(serial.cells)
        for key in serial.cells:
            assert parallel.cells[key].accuracy == serial.cells[key].accuracy

    def test_shared_pool_reused_across_cells(self):
        """All of a table's cells go through one borrowed pool."""
        with ExecutorPool(n_jobs=2, executor="thread") as pool:
            suite = run_table(
                "III", subsample=4, seed=0, fast=True,
                classifiers=("logistic", "multiclass"), pool=pool,
            )
            assert pool.map_calls == 1  # one fan-out for the whole table
            assert pool.tasks_run == len(suite.cells) == 4
            assert pool.started  # borrowed pool survives run_table

    def test_cell_spans_nest_under_table_span(self):
        reset_observability()
        try:
            run_table(
                "IV", subsample=6, seed=0, fast=True,
                classifiers=("logistic", "multiclass"),
                n_jobs=2, executor="thread",
            )
            tables = tracer().find("table")
            assert len(tables) == 1
            cells = [s for s in tables[0].walk() if s.name == "cell"]
            assert len(cells) == 2
            for cell in cells:
                assert cell.parent_id == tables[0].span_id
                assert cell.status == "ok"
        finally:
            reset_observability()

    def test_serial_cell_error_raises_after_every_cell_span(self, monkeypatch):
        """A failing first cell must not stop the serial table early."""
        import repro.eval.suite as suite_mod

        real = suite_mod.run_bundle_experiment

        def flaky(bundle, classifier, **kwargs):
            if classifier == "logistic":
                raise RuntimeError("solver diverged")
            return real(bundle, classifier, **kwargs)

        monkeypatch.setattr(suite_mod, "run_bundle_experiment", flaky)
        reset_observability()
        try:
            with pytest.raises(RuntimeError, match="solver diverged"):
                run_table(
                    "IV", subsample=6, seed=0, fast=True,
                    classifiers=("logistic", "multiclass"),
                )
            tables = tracer().find("table")
            assert len(tables) == 1 and tables[0].status == "error"
            cells = {
                s.labels["classifier"]: s for s in tables[0].walk() if s.name == "cell"
            }
            assert sorted(cells) == ["logistic", "multiclass"]
            assert cells["logistic"].status == "error"
            assert cells["multiclass"].status == "ok"
            assert all(c.parent_id == tables[0].span_id for c in cells.values())
        finally:
            reset_observability()
