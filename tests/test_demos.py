"""Every demo script runs to completion: exit 0 and no traceback."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentkit

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = str(Path(momentkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr


def test_demos_are_found():
    assert DEMOS
