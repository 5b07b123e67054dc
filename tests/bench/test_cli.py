"""Tests for the ``python -m repro.bench`` CLI."""

import pytest

from repro.bench.__main__ import main


class TestCLI:
    def test_no_arguments_lists_experiments(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert "table2" in out
        assert "throughput" in out

    def test_runs_named_experiment(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "matches paper Table I: PASS" in out

    def test_runs_multiple(self, capsys):
        assert main(["table1", "table2"]) == 0
        out = capsys.readouterr().out
        assert out.count("=== Table") == 2

    def test_unknown_experiment_raises(self):
        from repro.errors import ExperimentError
        with pytest.raises(ExperimentError):
            main(["fig99"])

    def test_output_dir_archives_results(self, tmp_path, capsys):
        assert main(["table2", "-o", str(tmp_path)]) == 0
        archived = (tmp_path / "table2.txt").read_text()
        assert "matches paper Table II: PASS" in archived

    def test_output_dir_created_if_missing(self, tmp_path, capsys):
        target = tmp_path / "nested" / "dir"
        assert main(["table1", "-o", str(target)]) == 0
        assert (target / "table1.txt").exists()
