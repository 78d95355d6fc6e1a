"""Smoke tests of the figure-data scripts in ``scripts/``.

Each script runs in a subprocess on a small grid with sampling switched
on, so its sampled columns go through the delayed join; at a few shots
some grid point has an empty C=up estimate, which reads nan.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def script_rows(script, args, tmp_path):
    """The header and rows of the CSV that ``scripts/SCRIPT args`` writes; it must exit 0."""
    output = tmp_path / "out.csv"
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args, "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert result.returncode == 0, result.stderr
    header, *rows = output.read_text().splitlines()
    assert header.endswith(",stderr")  # the sampled estimate and its error
    assert all(len(row.split(",")) == len(header.split(",")) for row in rows)
    return header, rows


@pytest.mark.parametrize(
    "script", ["hom_phase_scan.py", "chsh_settings_scan.py", "metrology_fringes.py"]
)
def test_script_writes_one_row_per_point(script, tmp_path):
    _, rows = script_rows(script, ["--points", "3", "--shots", "200"], tmp_path)
    assert len(rows) == 3


@pytest.mark.parametrize(
    "script, args",
    [
        ("metrology_fringes.py", ["--shots", "1", "--points", "4", "--sizes", "2"]),
        ("chsh_settings_scan.py", ["--shots", "3", "--points", "2"]),
        ("hom_phase_scan.py", ["--shots", "1", "--points", "3"]),
    ],
)
def test_an_empty_c_up_estimate_reads_nan(script, args, tmp_path):
    _, rows = script_rows(script, args, tmp_path)
    assert len(rows) == int(args[args.index("--points") + 1])
    assert any(row.endswith(",nan,nan") for row in rows)
