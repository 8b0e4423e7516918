"""What a scoring process imports: the scoring modules, never the LP solver.

Symbolic reasoning belongs to monitor construction; scoring only binarises
activations and looks them up.  A pool worker boots on the scoring modules,
so ``scipy`` is imported by the star-LP solve alone and the package inits
import their re-exports on first use.  The check runs in a fresh
interpreter, because this test process loaded scipy long ago.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

SCRIPT = """
import json
import sys

import numpy as np

import repro.monitors.serialization
import repro.runtime.engine
import repro.service
import repro.serving.pool
import repro.serving.worker
from repro.runtime.engine import BatchScoringEngine
from repro.serving.artifacts import DeploymentBundle

bundle = DeploymentBundle(sys.argv[1])
network = bundle.load_network()
monitors = bundle.load_monitors(network)
frames = np.random.default_rng(0).normal(size=(16, bundle.input_dim))
score = BatchScoringEngine(network).score_batch(monitors, frames, use_cache=False)
report = {
    "scored": {name: len(flags) for name, flags in score.warns.items()},
    "scipy_after_scoring": "scipy.optimize" in sys.modules,
}

from repro.monitors import PerturbationSpec, RobustBooleanPatternMonitor
from repro.symbolic.star_lp import resolve_star_lp_backend

RobustBooleanPatternMonitor(
    network,
    layer_index=4,
    perturbation=PerturbationSpec(delta=0.5, layer=0, method="star"),
    thresholds="mean",
).fit(frames)
report["lp_programs"] = resolve_star_lp_backend(None).stats["lp_programs"]
report["scipy_after_star_fit"] = "scipy.optimize" in sys.modules
print(json.dumps(report))
"""


def test_scoring_never_loads_scipy_and_a_star_fit_does(deployment_dir):
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(deployment_dir)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(completed.stdout.splitlines()[-1])
    assert report["scored"] == {"boolean": 16, "minmax": 16}
    assert not report["scipy_after_scoring"]
    # A constrained star (unstable ReLUs under Δ=0.5) is solved by HiGHS.
    assert report["lp_programs"] > 0
    assert report["scipy_after_star_fit"]
