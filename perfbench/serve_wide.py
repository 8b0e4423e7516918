#!/usr/bin/env python3
"""Server process of the ``remote_wide`` workload.

Usage::

    python3 perfbench/serve_wide.py BUNDLE_DIR

Boots a 1-worker ``WorkerPool`` from the deployment bundle behind a
``ScoringServer`` on an ephemeral localhost port and prints one JSON line
``{"host", "port", "start"}``, where ``start`` is the ``time.monotonic()``
reading taken just before the bundle was handed to the pool (the cold
start begins there).  It then serves until its standard input closes or
receives a line, drains, and prints a last JSON line with its own peak
resident memory and that of its worker.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

MAX_BATCH = 32
MAX_LATENCY = 0.002


def main() -> int:
    sys.path.insert(0, SRC)
    from common import peak_rss_mb
    from repro.service import BatchPolicy
    from repro.serving import ScoringServer, WorkerPool
    from repro.serving.artifacts import DeploymentBundle

    start = time.monotonic()
    pool = WorkerPool(
        DeploymentBundle(sys.argv[1]),
        num_workers=1,
        policy=BatchPolicy(max_batch=MAX_BATCH, max_latency=MAX_LATENCY),
    )
    pool.start()
    server = ScoringServer(pool, owns_scorer=True).start()
    host, port = server.address
    print(json.dumps({"host": host, "port": port, "start": start}), flush=True)
    try:
        sys.stdin.readline()
        workers = [child.pid for child in multiprocessing.active_children()]
        usage = {
            "rss_mb": peak_rss_mb("self"),
            "worker_rss_mb": sum(peak_rss_mb(pid) for pid in workers),
        }
    finally:
        server.close(drain=True, timeout=60.0)
    print(json.dumps(usage), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
