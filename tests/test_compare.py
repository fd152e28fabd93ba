"""Tests for the ladder regression check (``benchmarks/compare.py``).

The check is a script, not a package module — load it by path.  It reads
``benchmarks/ladder/run.py --out`` result files.  What matters: a shift
beyond a metric's ``BENCHMARK.json`` bound exits 1, a flat change exits
0, direction follows the metric's ``better``, a parent spread wider than
the bound reads "unresolved" rather than a verdict, an unmatched machine
fingerprint is a loud skip rather than a silent pass, and malformed
input exits 2.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "repro_bench_compare", REPO_ROOT / "benchmarks" / "compare.py"
)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


MACHINE = {"cpu_model": "TestCPU", "cpu_count": 4, "affinity": 4}

VALUES = {
    "setup_s": 1.0, "preprocess_s": 0.5, "index_bytes": 1000,
    "peak_rss_mb": 200.0, "qps": 100.0, "p50_ms": 10.0,
    "l1_error": 0.3, "recall_at_k": 0.9,
}


def run(workload="small-serve", machine=None, trace=0, **values):
    return {
        "workload": workload, "trace": trace,
        "env": {"machine": dict(machine or MACHINE), "backend": "numpy",
                "dtype": "float64", "nproc": 2},
        "values": dict(VALUES, **values),
        "attempted": 100, "failed": 0,
    }


def files(tmp_path, side, runs) -> list[str]:
    """One result file per run, as alternated ladder runs write them."""
    paths = []
    for index, document in enumerate(runs):
        path = tmp_path / f"{side}-{index}.json"
        path.write_text(json.dumps({"claim": None, "runs": [document]}))
        paths.append(str(path))
    return paths


def check(tmp_path, parent, change) -> int:
    return compare.main(
        ["--parent", *files(tmp_path, "parent", parent),
         "--change", *files(tmp_path, "change", change)]
    )


def rows(output: str, metric: str) -> list[str]:
    return [line for line in output.splitlines() if line.startswith(metric)]


class TestGroupingAndDirections:
    def test_pre_fingerprint_entries_never_group(self, tmp_path, capsys):
        legacy = run()
        del legacy["env"]["machine"]
        assert compare.fingerprint(legacy) is None
        assert check(tmp_path, [legacy] * 3, [legacy] * 3) == 0
        assert "skipped" in capsys.readouterr().out

    def test_different_machevery_breaks_comparability(self):
        base = compare.fingerprint(run())
        assert compare.fingerprint(run()) == base
        smaller = run(machine=dict(MACHINE, cpu_count=1))
        assert compare.fingerprint(smaller) != base
        for key, value in (("backend", "numba"), ("dtype", "float32"),
                           ("nproc", 4)):
            other = run()
            other["env"][key] = value
            assert compare.fingerprint(other) != base

    def test_metric_directions(self, tmp_path, capsys):
        parent = [run() for _ in range(3)]
        # qps is "higher is better": a rise is fine, a fall regresses.
        assert check(tmp_path, parent, [run(qps=130.0)] * 3) == 0
        assert check(tmp_path, parent, [run(qps=70.0)] * 3) == 1
        # recall_at_k likewise; l1_error is "lower is better".
        assert check(tmp_path, parent, [run(l1_error=0.2)] * 3) == 0
        assert check(tmp_path, parent, [run(recall_at_k=0.7)] * 3) == 1
        capsys.readouterr()


class TestCompareEntry:
    def test_median_baseline_absorbs_one_noisy_run(self, tmp_path, capsys):
        parent = [run() for _ in range(8)] + [run(qps=3.0)]
        assert check(tmp_path, parent, [run(qps=95.0)] * 3) == 0
        (qps,) = rows(capsys.readouterr().out, "qps")
        assert "100 [100, 100]" in qps  # median, not mean
        assert qps.endswith("ok")

    def test_throughput_drop_beyond_bound_regresses(self, tmp_path, capsys):
        assert check(tmp_path, [run()] * 5, [run(qps=70.0)] * 3) == 1
        (qps,) = rows(capsys.readouterr().out, "qps")
        assert "+0.300" in qps and qps.endswith("REGRESSED")

    def test_latency_direction_is_inverted(self, tmp_path, capsys):
        parent = [run() for _ in range(3)]
        assert check(tmp_path, parent, [run(p50_ms=13.0)] * 3) == 1
        out = capsys.readouterr().out
        assert [line for line in out.splitlines()
                if line.endswith("REGRESSED")] == rows(out, "p50_ms")
        assert check(tmp_path, parent, [run(p50_ms=7.0)] * 3) == 0
        assert "REGRESSED" not in capsys.readouterr().out

    def test_unmatched_fingerprint_is_skip_not_pass(self, tmp_path, capsys):
        foreign = run(machine=dict(MACHINE, cpu_model="OtherCPU"))
        assert check(tmp_path, [foreign] * 3, [run(qps=10.0)] * 3) == 0
        captured = capsys.readouterr()
        assert rows(captured.out, "qps") == []
        assert "no verdict" in captured.err

    def test_spread_beyond_bound_is_unresolved(self, tmp_path, capsys):
        parent = [run(qps=qps) for qps in (60.0, 80.0, 100.0, 120.0, 140.0)]
        assert check(tmp_path, parent, [run(qps=50.0)] * 3) == 0
        (qps,) = rows(capsys.readouterr().out, "qps")
        assert qps.endswith("unresolved")

    def test_ungated_fields_ignored(self, tmp_path, capsys):
        # Undeclared values and traced (per-layer) runs are not compared.
        change = [run(**{"kernels.spmm_ms": 1e9}) for _ in range(3)]
        traced = run(trace=1, qps=1.0)
        assert check(tmp_path, [run()] * 3, change + [traced]) == 0
        out = capsys.readouterr().out
        assert "kernels.spmm_ms" not in out
        assert len(rows(out, "qps")) == 1


class TestMainExitCodes:
    def test_synthetic_regression_exits_nonzero(self, tmp_path, capsys):
        assert check(tmp_path, [run()] * 5, [run(qps=50.0)] * 3) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err
        assert "REGRESSED" in captured.out

    def test_flat_trajectory_exits_zero(self, tmp_path, capsys):
        workloads = ("small-serve", "large-batch")
        parent = [run(workload) for workload in workloads for _ in range(3)]
        change = [run(workload, qps=99.0) for workload in workloads] * 3
        assert check(tmp_path, parent, change) == 0
        out = capsys.readouterr().out
        assert "REGRESSED" not in out
        assert len(rows(out, "qps")) == 2

    def test_unmatched_fingerprint_notice(self, tmp_path, capsys):
        parent = [run()] * 3
        change = [run(machine=dict(MACHINE, cpu_count=64))] * 3
        assert check(tmp_path, parent, change) == 0
        captured = capsys.readouterr()
        assert "skipped" in captured.out
        assert "NOTICE" in captured.err

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        good = files(tmp_path, "good", [run()])
        assert compare.main(["--parent", str(bad), "--change", *good]) == 2
        assert "error" in capsys.readouterr().err
        missing = run()
        del missing["values"]["qps"]
        assert check(tmp_path, [run()] * 2, [missing] * 2) == 2
        capsys.readouterr()

    def test_empty_trajectory_exits_zero(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"claim": None, "runs": []}))
        assert compare.main(
            ["--parent", str(empty), "--change", str(empty)]
        ) == 0
        assert "no verdict" in capsys.readouterr().err
