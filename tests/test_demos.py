"""Every demo script runs to completion against the installed package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pumpwise

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # demos may write files (the sweep CSVs) into their working directory
    env = dict(os.environ, PYTHONPATH=str(Path(pumpwise.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, capture_output=True, text=True, env=env,
        timeout=120,  # a hung demo fails instead of holding the suite
    )
    assert proc.returncode == 0, proc.stderr
