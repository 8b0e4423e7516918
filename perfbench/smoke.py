#!/usr/bin/env python3
"""Tiny-size smoke check of the benchmark itself.

Usage (from the root of a checkout)::

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` with ``--tiny`` for one second,
untraced and traced, and checks that each run exits 0, echoes its seed,
reports ``failed == 0``, and prints exactly the catalogue's metrics with
their units.  It also checks that the benchmark refuses to run (non-zero
exit, no result line) in a directory holding only ``BENCHMARK.json`` and
``perfbench/``.  Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
TIMEOUT = 300


def run(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            args = ["--workload", workload, "--seed", str(SEED), "--seconds", "1"]
            proc = run(args + ["--trace", str(trace), "--tiny"], ROOT)
            label = f"{workload} trace={trace}"
            check(proc.returncode == 0, f"{label} exited {proc.returncode}: {proc.stderr[-2000:]}")
            lines = proc.stdout.strip().splitlines()
            report, result = json.loads(lines[-2]), json.loads(lines[-1])
            check(report.get("seed") == SEED, f"{label} did not echo the seed")
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label} result keys {sorted(result)}",
            )
            check(result["failed"] == 0 and result["correct"], f"{label} failed frames")
            check(report.get("failed_frac") == 0.0, f"{label} failed_frac != 0")
            check(result["attempted"] >= 1, f"{label} attempted nothing")
            expected = {m["name"]: m["unit"] for m in benchmark[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == expected, f"{label} metrics/units differ: {set(expected) ^ set(got)}")
            for name, metric in result["metrics"].items():
                check(
                    isinstance(metric["value"], (int, float)),
                    f"{label} {name} is not a number",
                )
                if kind == "end_to_end":
                    check(metric["value"] > 0, f"{label} {name} reads {metric['value']}")
            print(f"ok  {label}")

    bare = os.path.join(ROOT, ".perfbench", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in benchmark["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path),
                os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        proc = run(["--workload", "fit_box", "--seed", "1", "--seconds", "1"], bare)
        check(proc.returncode != 0, "a checkout without the program sources ran")
        check(proc.stdout.strip() == "", "a checkout without sources printed a result")
        print("ok  refuses to run without the program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
