"""Smoke test: both demo scripts run and every row agrees."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script", ["additive_demo.py", "multiplicative_demo.py"])
def test_demo_script_rows_agree(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--order", "4"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    rows = result.stdout.splitlines()
    assert sum(row.endswith(" yes") for row in rows) >= 8
    assert not any(row.endswith(" NO") for row in rows)
