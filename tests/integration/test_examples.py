"""Every ``examples/*.py`` script runs to completion.

The examples are the library's real callers: they keep the quantitative
monitors, ``lifecycle_report`` and the serving stack in use.  Each runs in
its own interpreter from a scratch directory, so a script that breaks, hangs
or leaks worker processes fails here rather than in a reader's shell.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
TIMEOUT_S = 300


def test_examples_are_found():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("script", EXAMPLES, ids=[path.stem for path in EXAMPLES])
def test_example_exits_cleanly(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=TIMEOUT_S,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-4000:]
    if script.stem == "remote_scoring":
        assert "child processes after close: none" in done.stdout
