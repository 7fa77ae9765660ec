"""Smoke test: both demo scripts run, print the route tables of the verify
pair checks under the checks' route names, and every row agrees."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

HEADERS = {
    "additive_demo.py": [
        "n  walks      operator   series     agree",
        "n  walks      operator   series     agree",
    ],
    "multiplicative_demo.py": [
        "n  walks      operator   series     formula    d-walks    agree",
        "n  walks      operator   series     agree",
    ],
}


@pytest.mark.parametrize("script", sorted(HEADERS))
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
    assert [row for row in rows if row.startswith("n  ")] == HEADERS[script]
    assert sum(row.endswith(" yes") for row in rows) >= 8
    assert not any(row.endswith(" NO") for row in rows)
