"""Demos 01-04 run to completion; 05 takes about a minute and is left out."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-4]_*.py"))


def test_four_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert list(tmp_path.iterdir()) == []   # the demos write no files
