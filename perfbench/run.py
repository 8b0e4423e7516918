#!/usr/bin/env python3
"""Benchmark entry point.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fit_box --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in its own process,
and prints each one's two lines.

Runs one workload of ``BENCHMARK.json`` for ``--seconds`` seconds on inputs
generated from ``--seed``, checks the program's outputs against its
oracles, and prints two JSON lines: a report (seed, environment, tail
percentiles with sample counts, oracle counts) and, last, the result
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs the same workload with spans
around every layer boundary and reports the per-layer metrics (the spans
are written to ``.perfbench/``).  The exit code is 0 only when every
oracle agreed.  Every process the run starts, and every process those
leave behind, has ended before it exits (see ``procs``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Pin BLAS to one thread before numpy is imported anywhere in this process
# (and in the processes it starts, which inherit the environment).
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_ENV:
    os.environ[_var] = "1"

WORKLOADS = ("fit_box", "fit_star", "stream_track", "remote_wide")
#: One run per workload of BENCHMARK.json, each in its own process.
ALL = "all"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + (ALL,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every input (smoke check)"
    )
    return parser.parse_args(argv)


def load_catalogue():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    with open(os.path.join(HERE, "metric_map.json")) as handle:
        metric_map = json.load(handle)
    return benchmark, metric_map


def run_workload(args):
    if args.workload in ("fit_box", "fit_star"):
        import workload_fit

        return workload_fit.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.tiny
        )
    if args.workload == "stream_track":
        import workload_stream

        return workload_stream.run(args.seed, args.seconds, bool(args.trace), args.tiny)
    import workload_remote

    return workload_remote.run(args.seed, args.seconds, bool(args.trace), args.tiny)


def select_metrics(outcome, args, benchmark, metric_map):
    """The metrics of this run, in catalogue order, with their units."""
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for entry in benchmark[kind]:
        name = entry["name"]
        if name in outcome.metrics:
            value = float(outcome.metrics[name])
        elif kind == "per_layer" and args.workload not in metric_map["per_layer"][
            name
        ]["workloads"]:
            value = 0.0  # the layer does not run on this workload
        else:
            raise KeyError(f"workload {args.workload} did not report {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def run_all(args) -> int:
    """Run every workload in turn; exit non-zero if any run did."""
    import subprocess

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        names = [w["name"] for w in json.load(handle)["workloads"]]
    status = 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    import procs

    procs.adopt_orphans()
    try:
        return run_all(args) if args.workload == ALL else run_one(args)
    finally:
        killed = procs.reap_children()
        if killed:
            print(f"warning: killed {killed} process(es) left running", file=sys.stderr)


def run_one(args) -> int:
    sys.path.insert(0, SRC)
    benchmark, metric_map = load_catalogue()

    outcome = run_workload(args)
    metrics = select_metrics(outcome, args, benchmark, metric_map)

    import common

    tracers = outcome.details.pop("tracers", None)
    if tracers:
        os.makedirs(common.WORK_DIR, exist_ok=True)
        for phase, tracer in tracers.items():
            tracer.dump(
                os.path.join(
                    common.WORK_DIR, f"spans-{args.workload}-{args.seed}-{phase}.json"
                ),
                extra={"workload": args.workload, "seed": args.seed, "phase": phase},
            )
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "failed_frac": common.ratio(outcome.failed, outcome.attempted),
        **outcome.details,
        "env": common.environment(BLAS_ENV),
    }
    print(json.dumps(report, default=float))
    result = {
        "correct": outcome.failed == 0,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
