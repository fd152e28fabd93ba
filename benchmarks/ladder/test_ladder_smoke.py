"""Smoke test of the ladder benchmark at toy scale (2 000-node graphs,
one-second phases).  It checks shape, never speed: every declared metric
appears, names and units are well formed, counts are integers, a wrong
answer is counted as a failed operation, and no shared memory is left.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ladder
import run
import workloads as wl

SPEC = run.declared()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED, SECONDS = 3, 1.0


def names(section):
    return [entry["name"] for entry in SPEC[section]]


def test_declaration_meets_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/ladder"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    every = names("end_to_end") + names("per_layer")
    every += [w["name"] for w in SPEC["workloads"]]
    assert len(every) == len(set(every))
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])
        assert entry["better"] in ("lower", "higher")
    setup = next(e for e in SPEC["end_to_end"] if e["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(e["bound"] for e in SPEC["end_to_end"])
    # 4 + 22 runs per workload must fit the driver's 3420 s even if each
    # run spends as long again outside its timed phases.
    runs = 4 + 22 * len(SPEC["workloads"])
    assert runs * 2 * SPEC["run_seconds"] <= 3420


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    document = wl.run_untraced(wl.toy(wl.WORKLOADS[name]), SEED, SECONDS, 0.1)
    values = document["values"]
    assert set(values) == set(names("end_to_end"))
    for key, value in values.items():
        assert math.isfinite(value) and value > 0, key
    assert isinstance(values["index_bytes"], int)
    assert isinstance(document["attempted"], int) and document["attempted"] >= 1
    assert document["failed"] == 0, document["notes"]
    assert values["l1_error"] <= document["extra"]["error_bound"]
    for phase in document["phases"]:
        assert phase["sent"] == phase["succeeded"] + phase["failed"]
    assert wl.shm_segments() == []


def test_traced_run_reports_every_per_layer_metric():
    workload = wl.toy(wl.WORKLOADS["dynamic-mixed"])
    metrics, tracer, attempted, failed, _ = ladder.run_traced(
        workload, SEED, SECONDS
    )
    assert set(metrics) == set(names("per_layer"))
    assert attempted >= 1 and failed == 0
    for entry in SPEC["per_layer"]:
        value = metrics[entry["name"]]
        assert math.isfinite(value), entry["name"]
        if entry["unit"] == "count":
            assert isinstance(value, int), entry["name"]
    assert metrics["sharding.shm_leftovers"] == 0
    ids = {span["id"] for span in tracer.spans}
    assert len(ids) == len(tracer.spans)
    for span in tracer.spans:
        assert set(span) == {"id", "name", "start", "end", "parent"}
        assert span["end"] >= span["start"]
        assert span["parent"] is None or span["parent"] in ids
    seen = {span["name"] for span in tracer.spans}
    assert {"engine.serve", "core.query_many", "core.cpi_many",
            "kernels.spmm", "kernels.topk", "request", "gen.late", "queue",
            "batch", "wakeup"} <= seen
    assert len(ladder.format_ladder(tracer)) == 6


def test_a_corrupted_answer_is_a_failed_operation():
    setup = wl.build(wl.toy(wl.WORKLOADS["small-serve"]), SEED)

    def corrupting(front, requests):
        answers = wl.ask(front, requests)
        answers[0] = dataclasses.replace(
            answers[0], scores=np.roll(answers[0].scores, 1)
        )
        return answers

    try:
        honest = wl.judge(setup, np.random.default_rng(SEED), bitwise=True)
        tampered = wl.judge(
            setup, np.random.default_rng(SEED), bitwise=True,
            answer=corrupting,
        )
    finally:
        setup.close()
    assert honest.failed == 0, honest.notes
    assert tampered.failed == 1 and tampered.attempted == honest.attempted
    assert tampered.failed / tampered.attempted > 0


def test_command_prints_the_contract_line_and_refuses_tuned_runs(tmp_path):
    script = str(Path(run.__file__).resolve())
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    done = subprocess.run(
        [sys.executable, script, "--workload", "small-serve", "--seed", "5",
         "--seconds", "1", "--trace", "0", "--scale", "toy",
         "--out", str(tmp_path / "result.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert set(line["metrics"]) == set(names("end_to_end"))
    for row in line["metrics"].values():
        assert set(row) == {"value", "unit"}
    stamp = json.loads((tmp_path / "result.json").read_text())["runs"][0]["env"]
    assert {"commit", "machine", "nproc", "backend", "dtype", "python",
            "numpy", "scipy", "numba"} <= set(stamp)

    refused = subprocess.run(
        [sys.executable, script, "--workload", "small-serve", "--scale", "toy"],
        env={**env, "REPRO_KERNEL_TILE": "64"},
        capture_output=True, text=True, timeout=120,
    )
    assert refused.returncode != 0
    assert "REPRO_KERNEL_TILE" in refused.stderr and not refused.stdout.strip()
