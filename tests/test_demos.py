"""The demo scripts run, and the package exports what it declares."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import relbox

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_there_are_demos():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script)], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_every_exported_name_resolves():
    for name in relbox.__all__:
        assert getattr(relbox, name) is not None, name
