#!/usr/bin/env python3
"""The GTM's end-to-end benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
        one workload in this process; the last line of standard output
        is the result as one JSON object.

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--repeat R] [--out FILE]
        every workload, each in a fresh child process, one after
        another; prints every metric by name with its unit and writes
        one JSON report.

    python3 benchmarks/e2e/run.py compare A.json B.json
    python3 benchmarks/e2e/run.py agree A.json B.json
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: the program is missing: no {ROOT / 'src' / 'repro'}")
# Siblings import as the ``e2e`` package and the program from src/; the
# script's own directory goes, or trace.py would shadow the stdlib's.
if sys.path and sys.path[0] == str(HERE):
    sys.path.pop(0)
sys.path[0:0] = [str(HERE.parent), str(ROOT / "src")]

from e2e import report as reports  # noqa: E402
from e2e.workloads import WORKLOAD_NAMES  # noqa: E402

#: Untimed traffic before the window opens, so caches and lazy set-up
#: are paid before timing starts.
WARMUP_S = 0.5
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS) -> dict[str, Any]:
    """Run one workload; returns the result object of the last line."""
    from e2e import emulation, loadgen
    from e2e.trace import Tracer, install

    benchmark = load_benchmark()
    OUT.mkdir(exist_ok=True)
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    try:
        if name == "paper_emulation":
            run = emulation.run_emulation(seed, seconds, tracer)
            module = emulation
            attempted, failed = run.total, run.unfinished
        else:
            # The SQLite backend puts its file where tempfile points;
            # keep it inside the checkout.
            scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
            tempfile.tempdir = scratch
            try:
                # (no effect on the memory backend: it opens none)
                with loadgen.sqlite_without_fsync():
                    run = asyncio.run(loadgen.run_wire(
                        name, seed, seconds, tracer,
                        setup_reps=setup_reps, warmup_s=WARMUP_S))
            finally:
                tempfile.tempdir = None
                shutil.rmtree(scratch, ignore_errors=True)
            module = loadgen
            attempted = len(run.measured)
            failed = sum(1 for sample in run.measured
                         if sample[2] == "error")
    finally:
        if tracer is not None:
            tracer.uninstall()

    if tracer is None:
        values = module.end_to_end(run)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        listed = benchmark["end_to_end"]
    else:
        values = dict.fromkeys(
            (metric["name"] for metric in benchmark["per_layer"]), 0)
        for span, (calls, self_s) in tracer.totals.items():
            values[span + "_calls"] = calls
            values[span + "_self_s"] = self_s
        values.update(module.per_layer(run, tracer))
        listed = benchmark["per_layer"]
        tracer.write(
            str(OUT / f"trace_{name}_{seed}.json"),
            {"workload": name, "seed": seed, "seconds": seconds})
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in listed}

    print(f"{name}: box speed {run.speed:.4f} of the reference's "
          f"(times below are converted to it, see yardstick.py)")
    for problem in run.problems:
        print(f"run.py: {name}: WRONG OUTPUT: {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def print_metrics(name: str, result: dict[str, Any]) -> None:
    verdict = "correct" if result["correct"] else "WRONG OUTPUT"
    print(f"{name}: {verdict}, attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:>16.6g} {entry['unit']}")


# ---------------------------------------------------------------------------
# every workload, each in a fresh child process
# ---------------------------------------------------------------------------


def environment() -> dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform()}


def run_child(name: str, args: argparse.Namespace, seed: int,
              trace: bool) -> dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--seconds", str(args.seconds),
               "--trace", str(int(trace))]
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          check=False)
    if not done.stdout.strip():
        sys.exit(f"run.py: {name} printed no result "
                 f"(exit code {done.returncode})")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace) -> int:
    sets = []
    all_correct = True
    seed = args.seed
    for _ in range(args.repeat):
        run_set: dict[str, Any] = {"seed": seed}
        for name in WORKLOAD_NAMES:
            plain = run_child(name, args, seed, trace=False)
            entry = {"correct": plain["correct"],
                     "attempted": plain["attempted"],
                     "failed": plain["failed"],
                     "end_to_end": plain["metrics"]}
            print_metrics(name, plain)
            if args.trace:
                traced = run_child(name, args, seed, trace=True)
                entry["correct"] = entry["correct"] and traced["correct"]
                entry["per_layer"] = traced["metrics"]
                # (traced - untraced) / untraced, on CPU per commit.
                entry["trace.overhead_share"] = (
                    traced["metrics"]["trace.cpu_ms_per_commit"]["value"]
                    / plain["metrics"]["cpu_ms_per_commit"]["value"] - 1.0)
                for workload, metric in sorted(reports.VIRTUAL):
                    if workload == name and (
                            plain["metrics"][metric]["value"]
                            != traced["metrics"]["sim." + metric]["value"]):
                        entry["correct"] = False
                        print(f"run.py: {name}: WRONG OUTPUT: {metric} "
                              f"differs between the traced and the "
                              f"untraced run", file=sys.stderr)
                print_metrics(name + " (traced)", traced)
                print(f"  {'trace.overhead_share':36s} "
                      f"{entry['trace.overhead_share']:>16.6g} share")
            all_correct = all_correct and entry["correct"]
            run_set[name] = entry
        sets.append(run_set)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"environment": environment(), "seconds": args.seconds,
                   "sets": sets}, handle, indent=1)
        handle.write("\n")
    print(f"report written to {out}")
    return 0 if all_correct else 1


# ---------------------------------------------------------------------------
# comparing reports
# ---------------------------------------------------------------------------


def _load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main_compare(paths: list[str]) -> int:
    rows = reports.compare(load_benchmark(), _load(paths[0]),
                           _load(paths[1]))
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:24s} "
              f"A {row['a_median']:12.6g} (±{row['a_spread']:.3f})  "
              f"B {row['b_median']:12.6g} (±{row['b_spread']:.3f}) "
              f"{row['unit']:6s} worse by {row['worse_by']:+.3f} "
              f"(bound {row['bound']})  {row['verdict']}")
    return 1 if any(row["verdict"] in ("worse", "behaviour changed")
                    for row in rows) else 0


def main_agree(paths: list[str]) -> int:
    problems = reports.agree(load_benchmark(), _load(paths[0]),
                             _load(paths[1]))
    for problem in problems:
        print(problem)
    print("agree" if not problems else f"{len(problems)} disagreements")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] in ("compare", "agree"):
        if len(argv) != 3:
            sys.exit(f"usage: run.py {argv[0]} A.json B.json")
        return (main_compare if argv[0] == "compare"
                else main_agree)(argv[1:])

    benchmark = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="about one second per workload, one set-up")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run this many sets (all workloads)")
    parser.add_argument("--out", default=str(OUT / "report.json"))
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = 1.0

    if args.workload is None:
        return run_all(args)
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace),
        setup_reps=1 if args.quick else SETUP_REPS)
    print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
