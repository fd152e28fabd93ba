#!/usr/bin/env python3
"""The layer-ladder benchmark: one command, four workloads.

    python3 benchmarks/ladder/run.py [--workload NAME]... [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--aa N]

Each workload runs in a fresh child interpreter, one at a time.  The
untraced run (``--trace 0``) prints every end-to-end metric of
``BENCHMARK.json`` by name and unit; the traced run (``--trace 1``)
prints every per-layer metric and the ladder, and writes its spans to
``trace-<workload>.json`` beside ``--out``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` (metric names are prefixed ``<workload>:`` when more than
one workload ran).  ``--aa N`` runs every workload ``N`` times on
``N`` seeds, twice, and reports how well the two sets agree.

See README.md in this directory for the metric glossary.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
DECLARED = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out" / "result.json"

#: Wall-clock cap of one child; the driver allows 180 s per run.
CHILD_TIMEOUT = 170.0


def declared() -> dict:
    with open(DECLARED, encoding="utf-8") as handle:
        return json.load(handle)


def tuning_variables() -> list[str]:
    """``REPRO_*`` variables present: each overrides a program default,
    so numbers taken under one would not describe the program."""
    return sorted(name for name in os.environ if name.startswith("REPRO_"))


# ----------------------------------------------------------------- child


def environment_stamp() -> dict:
    import numpy
    import scipy

    from repro import kernels
    from repro.tune import machine_fingerprint

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    fingerprint = machine_fingerprint()
    return {
        "commit": commit,
        "machine": fingerprint.to_dict(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.get_backend(),
        "dtype": numpy.dtype(kernels.compute_dtype()).name,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": fingerprint.numba_version,
    }


def child_main(args) -> int:
    """Run one workload in this interpreter; write its document."""
    sys.path.insert(0, str(SOURCE))
    import ladder
    import workloads as wl

    import_s = time.perf_counter() - _PROCESS_START
    workload = wl.WORKLOADS[args.workload[0]]
    if args.scale == "toy":
        workload = wl.toy(workload)
    document = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "env": environment_stamp(),
    }
    if args.trace:
        metrics, tracer, attempted, failed, notes = ladder.run_traced(
            workload, args.seed, args.seconds
        )
        document.update(
            values=metrics, spreads={}, extra={}, phases=[],
            attempted=int(attempted), failed=int(failed), valid=True,
            notes=notes, ladder=ladder.format_ladder(tracer),
        )
        trace_path = Path(args.out).with_name(f"trace-{workload.name}.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump({"workload": workload.name, "spans": tracer.spans},
                      handle)
        document["trace_file"] = str(trace_path)
    else:
        document.update(
            wl.run_untraced(workload, args.seed, args.seconds, import_s)
        )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return 0


# ---------------------------------------------------------------- parent


def run_child(name: str, seed: int, seconds: float, trace: int, scale: str,
              out_dir: Path) -> dict:
    """One workload in a fresh interpreter; returns its document."""
    out_dir.mkdir(parents=True, exist_ok=True)
    child_out = out_dir / f"child-{name}-{os.getpid()}.json"
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale, "--out", str(child_out),
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = process.wait(CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise SystemExit(f"workload {name} exceeded {CHILD_TIMEOUT:g} s")
    if code != 0:
        raise SystemExit(f"workload {name} exited with code {code}")
    try:
        with open(child_out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        child_out.unlink(missing_ok=True)


def metric_rows(document: dict, spec: dict) -> dict:
    """The declared metrics of this run as ``{name: {value, unit}}``;
    raises when the run produced other names than were declared."""
    section = "per_layer" if document["trace"] else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    values = document["values"]
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        surplus = sorted(set(values) - set(units))
        raise SystemExit(
            f"{document['workload']}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {surplus})"
        )
    return {
        name: {"value": values[name], "unit": units[name]} for name in units
    }


def correct(document: dict) -> bool:
    return document["failed"] == 0 and all(
        value == value for value in document["values"].values()  # no NaN
    )


def print_document(document: dict, rows: dict) -> None:
    env = document["env"]
    print(
        f"== {document['workload']}  seed={document['seed']} "
        f"seconds={document['seconds']:g} trace={document['trace']} "
        f"commit={env['commit']} backend={env['backend']} "
        f"dtype={env['dtype']} nproc={env['nproc']}"
    )
    for name, row in rows.items():
        spread = document["spreads"].get(name)
        beside = f"   (in-run IQR {spread:.4g})" if spread is not None else ""
        print(f"  {name:<32}{row['value']:>16.6g} {row['unit']}{beside}")
    for name, value in sorted(document["extra"].items()):
        if isinstance(value, float):
            print(f"  ({name:<30}{value:>16.6g})")
    for line in document.get("ladder", ()):
        print(line)
    for phase in document["phases"]:
        print(
            f"  phase {phase['phase']:<12} sent {phase['sent']:>7} "
            f"succeeded {phase['succeeded']:>7} failed {phase['failed']:>5}"
        )
    print(
        f"  attempted {document['attempted']} failed {document['failed']} "
        f"failed_share {document['failed'] / max(document['attempted'], 1):.3g}"
    )
    if not document["valid"]:
        print("  INVALID LOAD: the generator did not keep its schedule")
    for note in document["notes"]:
        print(f"  note: {note}")


def suite(args, spec: dict) -> int:
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    documents, merged = [], {}
    for name in names:
        document = run_child(
            name, args.seed, args.seconds, args.trace, args.scale, out.parent
        )
        rows = metric_rows(document, spec)
        print_document(document, rows)
        documents.append(document)
        prefix = f"{name}:" if len(names) > 1 else ""
        merged.update({prefix + key: row for key, row in rows.items()})
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"claim": None, "runs": documents}, handle, indent=1)
    print(f"result written to {out}")
    print(json.dumps({
        "correct": all(correct(d) for d in documents),
        "attempted": sum(d["attempted"] for d in documents),
        "failed": sum(d["failed"] for d in documents),
        "metrics": merged,
    }))
    return 0


# -------------------------------------------------------------- A/A mode


def spread(values) -> float:
    """Inter-quartile range over the median, as the driver takes it."""
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """Share of ``first`` by which ``second`` is worse (negative: better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def a_a(args, spec: dict) -> int:
    """Two sets of ``--aa`` runs per workload, one seed per run; prints
    and writes per (metric, workload) the medians, the spreads, the
    range, and whether they stay inside the metric's bound."""
    names = args.workload or [w["name"] for w in spec["workloads"]]
    out = Path(args.out)
    sets = []
    for _ in range(2):
        table: dict = {}
        for name in names:
            for offset in range(args.aa):
                document = run_child(
                    name, args.seed + offset, args.seconds, 0, args.scale,
                    out.parent,
                )
                if not correct(document):
                    raise SystemExit(f"{name}: run was not correct: "
                                     f"{document['notes']}")
                for key, value in document["values"].items():
                    table.setdefault((key, name), []).append(value)
                print(f"{name} seed {args.seed + offset} done", flush=True)
        sets.append(table)
    lines = [
        f"Two sets of {args.aa} untraced runs per workload, seeds "
        f"{args.seed}..{args.seed + args.aa - 1}, {args.seconds:g} s each. "
        "`spread` is the inter-quartile range over the median, "
        "`range` is (max − min) / median of the first set, `shift` is the "
        "share by which the second median is worse than the first.",
        "",
        "| metric | workload | median 1 | median 2 | spread 1 | spread 2 "
        "| range | shift | bound | ok |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    failures = 0
    for entry in spec["end_to_end"]:
        for name in names:
            first = sets[0][(entry["name"], name)]
            second = sets[1][(entry["name"], name)]
            spreads = [spread(first), spread(second)]
            shift = worse_by(statistics.median(first),
                             statistics.median(second), entry["better"])
            steady = entry["name"] == "setup_s" or max(spreads) <= entry["bound"]
            fine = steady and shift <= entry["bound"]
            failures += not fine
            lines.append(
                f"| {entry['name']} | {name} "
                f"| {statistics.median(first):.6g} "
                f"| {statistics.median(second):.6g} "
                f"| {spreads[0]:.3f} | {spreads[1]:.3f} "
                f"| {(max(first) - min(first)) / statistics.median(first):.3f} "
                f"| {shift:+.3f} | {entry['bound']} "
                f"| {'yes' if fine else 'NO'} |"
            )
    text = "\n".join(lines) + "\n"
    print(text)
    with open(out.with_name("noise-table.md"), "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"{failures} (metric, workload) pairs outside their bound")
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    parser.add_argument("--aa", type=int, default=0, metavar="N")
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: 2 000-node graphs, for the smoke test")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    set_variables = tuning_variables()
    if set_variables:
        print(
            "refusing to measure: " + ", ".join(set_variables) + " set; "
            "the numbers must describe the program's defaults",
            file=sys.stderr,
        )
        return 2
    if not (SOURCE / "repro").is_dir():
        print(f"no program to measure under {SOURCE}", file=sys.stderr)
        return 2
    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    known = [w["name"] for w in spec["workloads"]]
    for name in args.workload:
        if name not in known:
            parser.error(f"unknown workload {name!r}; choose from {known}")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    if args.aa:
        return a_a(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
