"""Tests for the library CLI (python -m repro)."""

import numpy as np
import pytest

from repro.cli import main
from repro.graph.generators import community_graph
from repro.graph.io import write_edge_list


@pytest.fixture(scope="module")
def edge_file(tmp_path_factory):
    graph = community_graph(300, avg_degree=6, seed=8)
    path = tmp_path_factory.mktemp("cli") / "graph.tsv"
    write_edge_list(graph, path)
    return path


class TestQueryCommand:
    def test_tpa_query(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "5",
            "--method", "tpa", "--top", "7",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "rank\tnode\tscore"
        assert len(lines) == 8  # header + 7 rows
        # Seed ranks first in its own RWR vector.
        assert lines[1].split("\t")[1] == "5"

    def test_exact_method(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "0",
            "--method", "bepi", "--top", "3",
        ])
        assert code == 0
        assert "method=BePI" in capsys.readouterr().out

    def test_missing_seed_id(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "999999",
        ])
        assert code == 2
        assert "not present" in capsys.readouterr().err

    def test_scores_descending(self, edge_file, capsys):
        main(["query", "--graph", str(edge_file), "--seed", "1", "--top", "20"])
        out = capsys.readouterr().out
        scores = [
            float(line.split("\t")[2])
            for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert scores == sorted(scores, reverse=True)


class TestBatchQuery:
    def test_seeds_comma_list(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seeds", "5,9,12",
            "--top", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "seed\trank\tnode\tscore"
        assert len(lines) == 1 + 3 * 4  # header + 3 seeds x 4 rows
        # Each seed ranks itself first (exclude_seed is off in the CLI).
        first_rows = [l for l in lines[1:] if l.split("\t")[1] == "1"]
        assert [row.split("\t")[0] for row in first_rows] == ["5", "9", "12"]
        assert [row.split("\t")[2] for row in first_rows] == ["5", "9", "12"]

    def test_seeds_file(self, edge_file, tmp_path, capsys):
        seed_file = tmp_path / "seeds.txt"
        seed_file.write_text("5\n9\n")
        code = main([
            "query", "--graph", str(edge_file),
            "--seeds", f"@{seed_file}", "--top", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "# queries=2" in out

    def test_batch_flag_forces_batch_format(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "5", "--batch",
            "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "seed\trank\tnode\tscore" in out

    def test_seed_and_seeds_combine(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "5",
            "--seeds", "9", "--top", "2",
        ])
        assert code == 0
        assert "# queries=2" in capsys.readouterr().out

    def test_missing_seed_in_batch(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seeds", "5,999999",
        ])
        assert code == 2
        assert "not present" in capsys.readouterr().err

    def test_no_seed_arguments(self, edge_file, capsys):
        code = main(["query", "--graph", str(edge_file)])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_batch_matches_single_runs(self, edge_file, capsys):
        main(["query", "--graph", str(edge_file), "--seeds", "7,11",
              "--top", "5"])
        batch_out = capsys.readouterr().out
        main(["query", "--graph", str(edge_file), "--seed", "7",
              "--top", "5"])
        single_out = capsys.readouterr().out
        single_rows = [
            l.split("\t") for l in single_out.splitlines()
            if l and l[0].isdigit()
        ]
        batch_rows = [
            l.split("\t")[1:] for l in batch_out.splitlines()
            if l.startswith("7\t")
        ]
        assert batch_rows == single_rows

    def test_cpi_method_available(self, edge_file, capsys):
        code = main([
            "query", "--graph", str(edge_file), "--seed", "0",
            "--method", "cpi", "--top", "3",
        ])
        assert code == 0
        assert "method=CPI" in capsys.readouterr().out


class TestStatsCommand:
    def test_stats_output(self, edge_file, capsys):
        assert main(["stats", "--graph", str(edge_file)]) == 0
        out = capsys.readouterr().out
        assert "nodes            300" in out
        assert "reciprocity" in out


class TestGenerateCommand:
    def test_generate_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "slashdot.tsv"
        code = main([
            "generate", "--dataset", "slashdot", "--scale", "0.05",
            "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.exists()
        # Generated file is queryable.
        capsys.readouterr()
        assert main([
            "query", "--graph", str(out_path), "--seed", "0", "--top", "3",
        ]) == 0

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            main(["generate", "--dataset", "orkut", "--out", "x.tsv"])


class TestObsCommand:
    """``repro obs`` reads the dumps the library writes; the load-test
    subcommands are gone (the benchmark ladder measures serving)."""

    def test_only_library_subcommands_remain(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "{query,stats,generate,tune,obs}" in capsys.readouterr().out

    def test_profile_snapshot_summary(self, tmp_path, capsys):
        import json

        path = tmp_path / "profile.json"
        path.write_text(json.dumps({
            "stacks": {"pid:1;main;spmm": 3, "pid:1;main;topk": 1},
        }))
        assert main(["obs", "profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "75.0%  spmm" in out
        assert "4 samples, 2 stacks, 1 process(es): 1" in out
