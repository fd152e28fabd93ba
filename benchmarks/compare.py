#!/usr/bin/env python3
"""Regression check of a change's ladder results against its parent's.

    python3 benchmarks/compare.py --parent P1.json ... --change C1.json ...

Each file is one ``benchmarks/ladder/run.py --out`` result; run parent and
change alternately.  Per end-to-end metric of ``BENCHMARK.json`` and per
workload this prints both medians [quartiles] and the *shift*, the share
by which the change's median is worse.  A shift beyond the metric's bound
is a regression, except that the row reads **unresolved** when the
parent's own spread (IQR over median) exceeds the bound.  Runs compare
only when ``env.machine``, ``backend``, ``dtype`` and ``nproc`` match;
otherwise there is a notice and no verdict.  Exit 1 on a resolved
regression, 2 on malformed input, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import statistics
import sys
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "ladder_run", Path(__file__).resolve().parent / "ladder" / "run.py"
)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)


def fingerprint(run: dict) -> str | None:
    """What must match for two runs to compare; ``None`` when unstamped."""
    env = run.get("env") or {}
    if "machine" not in env:
        return None
    return json.dumps([env["machine"], env.get("backend"), env.get("dtype"),
                       env.get("nproc")], sort_keys=True)


def load(paths: list[str]) -> dict[str, list[dict]]:
    """The untraced runs of the given result files, by workload."""
    runs: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            for run in json.load(handle)["runs"]:
                if not run["trace"]:
                    runs.setdefault(run["workload"], []).append(run)
    return runs


def noise(values: list[float]) -> float:
    """The parent's spread; infinite when one run cannot estimate it."""
    return ladder.spread(values) if len(values) > 1 else math.inf


def summary(values: list[float]) -> str:
    low, high = (statistics.quantiles(values, n=4)[::2] if len(values) > 1
                 else values * 2)
    return f"{statistics.median(values):.6g} [{low:.6g}, {high:.6g}]"


def table(parent: dict, change: dict) -> int:
    """Print one row per (metric, workload); return the regressions."""
    regressions = 0
    print(f"{'metric':<13} {'workload':<14} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'shift':>7}  bound  verdict")
    for entry in ladder.declared()["end_to_end"]:
        name, bound = entry["name"], entry["bound"]
        for workload in sorted(set(parent) & set(change)):
            before = [run["values"][name] for run in parent[workload]]
            after = [run["values"][name] for run in change[workload]]
            first, second = statistics.median(before), statistics.median(after)
            shift = (0.0 if first == second
                     else ladder.worse_by(first, second, entry["better"]))
            if noise(before) > bound:
                verdict = "unresolved"
            elif shift > bound:
                verdict, regressions = "REGRESSED", regressions + 1
            else:
                verdict = "ok"
            print(f"{name:<13} {workload:<14} {summary(before):<36} "
                  f"{summary(after):<36} {shift:>+7.3f}  {bound:<5}  {verdict}")
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        parent, change = load(args.parent), load(args.change)
        prints = {fingerprint(run) for side in (parent, change)
                  for runs in side.values() for run in runs}
        if len(prints) != 1 or None in prints:
            print("NOTICE: no runs, or env.machine/backend/dtype/nproc "
                  "differ between them; no verdict", file=sys.stderr)
            print("skipped: no comparable runs")
            return 0
        for workload in sorted(set(parent) ^ set(change)):
            print(f"NOTICE: {workload} has runs on one side only; skipped",
                  file=sys.stderr)
        regressions = table(parent, change)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        print(f"error: malformed ladder result: {error!r}", file=sys.stderr)
        return 2
    if regressions:
        print(f"FAIL: {regressions} regression(s) beyond bound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
