"""Integration tests for the ``python -m repro`` query CLI."""

import pytest

from repro.cli import main


class TestBuild:
    def test_build_and_query_round_trip(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["snapshot", "build", "--dataset", "fig4",
                     "--store", str(store), "--radius", "8"]) == 0
        assert (store / "LATEST").exists()

        assert main(["query", "--snapshot", str(store),
                     "--keywords", "a,b,c", "--rmax", "8",
                     "--k", "5"]) == 0
        out = capsys.readouterr().out
        assert "cost=7" in out
        assert "5 communities" in out


class TestQuery:
    def test_query_dataset_all_mode(self, capsys):
        assert main(["query", "--dataset", "fig4",
                     "--keywords", "a,b,c", "--rmax", "8",
                     "--all"]) == 0
        out = capsys.readouterr().out
        assert "5 communities (all" in out

    def test_query_baseline_algorithm(self, capsys):
        assert main(["query", "--dataset", "fig4",
                     "--keywords", "a,b,c", "--rmax", "8",
                     "--k", "3", "--algorithm", "bu"]) == 0
        out = capsys.readouterr().out
        assert "3 communities" in out

    def test_query_max_aggregate(self, capsys):
        assert main(["query", "--dataset", "fig4",
                     "--keywords", "a,b,c", "--rmax", "8",
                     "--k", "1", "--aggregate", "max"]) == 0
        out = capsys.readouterr().out
        assert "cost=4" in out

    def test_unknown_dataset_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["query", "--dataset", "nope",
                  "--keywords", "a", "--rmax", "8"])

    def test_missing_source_is_error(self):
        with pytest.raises(SystemExit):
            main(["query", "--keywords", "a", "--rmax", "8"])
