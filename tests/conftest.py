import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def child_env():
    """Environment for a child interpreter that imports lie_sbe from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("LIE_SBE_CATALOG", None)
    return env


@pytest.fixture
def fresh_python(child_env):
    """Run Python source in a new interpreter (so nothing is imported yet)
    and return its stdout; a non-zero exit fails the test with its stderr."""
    def run(source):
        proc = subprocess.run([sys.executable, "-c", source], env=child_env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout
    return run
