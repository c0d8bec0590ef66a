"""Fixtures shared by the test modules."""

import os
import subprocess
import sys

import pytest

import holeburn


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this holeburn.

    The test process itself has loaded scipy's integrators (the reference
    quadratures import them), so what a run imports is only visible from
    a fresh interpreter.  Returns run(code, *argv) -> CompletedProcess.
    """
    src = os.path.dirname(os.path.dirname(holeburn.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))

    def run(code, *argv):
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    return run
