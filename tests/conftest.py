"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
import threading

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


@pytest.fixture(autouse=True)
def no_thread_outlives_a_test():
    """Fail a test after which a thread runs that did not run before it.

    ``restored_field_full`` runs half its work on a helper thread; a
    ``--workers`` process pool forks the test process, and a fork must
    never inherit a running helper.
    """
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    if left:
        pytest.fail(f"threads still running after the test: {left}")
