"""Replay of the CLI byte matrix in ``tests/cli_matrix.json``.

Every command recorded by ``scripts/cli_matrix.py`` must still give the
same exit code and the same stdout, stderr and file bytes, with the code
version masked.  Analytic outputs are pinned here to the last byte, not
to a tolerance.  A change that alters output on purpose regenerates the
file with the script and names every changed command.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("cli_matrix", ROOT / "scripts" / "cli_matrix.py")
cli_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_matrix)

MATRIX = json.loads(cli_matrix.MATRIX.read_text(encoding="utf-8"))


def test_the_matrix_records_every_command_of_the_script():
    assert list(MATRIX) == cli_matrix.COMMANDS


@pytest.mark.parametrize("command", list(MATRIX))
def test_command_bytes_are_unchanged(command, tmp_path):
    assert cli_matrix.record(command, tmp_path) == MATRIX[command]


def test_masking_hides_only_the_version():
    header = b'# {"config": {"seed": 1}, "version": "9.9"}\nbody "version": "9.9"\n'
    assert cli_matrix.masked(header) == (
        b'# {"config": {"seed": 1}, "version": "*"}\nbody "version": "9.9"\n'
    )
    assert cli_matrix.masked(b"qeraser 9.9\n") == b"qeraser *\n"
    assert cli_matrix.masked(b"qeraser 9.9 extra\n") == b"qeraser 9.9 extra\n"
