"""Smoke tests of the figure-data scripts in ``scripts/``.

Each script runs in a subprocess on a three-point grid with sampling
switched on, so its sampled columns go through the delayed join.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script", ["hom_phase_scan.py", "chsh_settings_scan.py", "metrology_fringes.py"]
)
def test_script_writes_one_row_per_point(script, tmp_path):
    output = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         "--points", "3", "--shots", "200", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    header, *rows = output.read_text().splitlines()
    assert len(rows) == 3
    assert header.endswith(",stderr")  # the sampled estimate and its error
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
