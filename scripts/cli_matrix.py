#!/usr/bin/env python3
"""Record the CLI byte matrix: per command, its exit code and output digests.

Runs each command of ``COMMANDS`` through ``qeraser.cli.main`` in this
process, in a fresh empty working directory, so ``--output`` names stay
relative and the ``wrote ...`` lines on stderr do not depend on where
the run happens.  Each command maps to its exit code and the SHA-256 of
its stdout, its stderr and every file it wrote.  The ``version`` field
of ``# {...}`` metadata headers and the ``--version`` line are masked
before hashing, so a version bump alone changes no digest.

Usage, from the repository root::

    PYTHONPATH=src python scripts/cli_matrix.py

It rewrites ``tests/cli_matrix.json``, which ``tests/test_cli_matrix.py``
replays.  A change that alters output bytes on purpose regenerates the
file and names every changed command.  Errors that argparse reports
itself are left out: their usage line wraps at the terminal width and
their wording varies across Python versions; usage errors that the CLI
raises are in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

from qeraser import cli

MATRIX = Path(__file__).resolve().parents[1] / "tests" / "cli_matrix.json"
CHSH_ANGLES = "--angles=0,1.5708,0.7854,-0.7854"

COMMANDS = [
    # hom: analytic, quantum sampling, classical mixture
    "hom --phi 0.8",
    "hom --phi 0.8 --statistics fermion --format summary",
    "hom --phi 45 --degrees --statistics distinguishable --output hom.csv",
    "hom --mode sample --shots 500 --seed 3 --phi 0.4",
    "hom --mode sample --shots 400 --seed 3 --statistics fermion --output hom.txt",
    "hom --mode sample --shots 500 --seed 3 --control-angle 90 --degrees --format csv"
    " --output s.csv",
    "hom --mode sample --shots 20000 --seed 11 --phi 0.3 --format csv --output big.csv",
    "hom --mode sample --shots 500 --seed 3 --statistics fermion --control-angle 0.7",
    "hom --mode classical-mixture --shots 400 --seed 5 --statistics distinguishable",
    "hom --mode classical-mixture --shots 300 --seed 5 --phi 1.1 --format csv --output m.csv",
    "hom --mode sample --shots 300 --output missing/x.txt",
    "hom --control-angle 0.3",
    "hom --mode classical-mixture --control-angle 0.3",
    "hom --mode sample --format csv",
    # a device output is refused: its control stream would land beside it
    "hom --mode sample --format csv --output /dev/null",
    # chsh
    "chsh --phi 0.3",
    f"chsh {CHSH_ANGLES} --format summary",
    "chsh --angles=0,90,45,135 --degrees --phi 10 --output chsh.csv",
    "chsh --phi 0.2 --optimize --format summary",
    f"chsh --mode sample --shots 20000 --seed 2 {CHSH_ANGLES}",
    f"chsh --mode sample --shots 8 --seed 1 {CHSH_ANGLES}",
    f"chsh --mode sample --shots 6 --seed 79 {CHSH_ANGLES}",
    "chsh --mode sample --shots 400 --seed 2 --control-angle 0.4",
    # the which-way readout: its analytic S read at the control angle is 0
    "chsh --mode sample --shots 400000 --seed 5 --control-angle 1.5707963267948966",
    "chsh --mode sample --shots 400 --seed 2 --control-angle 0.4 --format csv --output c.csv",
    f"chsh --mode classical-mixture --shots 400 --seed 9 {CHSH_ANGLES} --format csv"
    " --output cm.csv",
    f"chsh --mode classical-mixture --shots 20000 --seed 9 {CHSH_ANGLES} --format csv"
    " --output cm.csv",
    "chsh --mode classical-mixture --shots 400 --seed 9 --phi 0.5",
    # default settings at phases whose optimal angles reduce into [0, 2pi)
    "chsh --mode sample --shots 300 --seed 4 --phi -0.4 --format csv --output neg.csv",
    "chsh --mode classical-mixture --shots 300 --seed 4 --phi 4.0 --format summary",
    "chsh --angles 1,2",
    "chsh --angles=0,1,2,3 --optimize",
    "chsh --angles=1e308,0,0,0 --degrees",
    # phase-est
    "phase-est --n 4 --theta-scan 0:6.2832:8",
    "phase-est --n 3 --theta 0.3 --control-angle 0 --format summary",
    "phase-est --n 3 --theta-scan 0:3:4 --control-angle 0.9",
    "phase-est --n 2 --theta-scan -1:1:4 --degrees --output p.csv",
    "phase-est --n 2 --theta 1e308 --degrees",
    "phase-est --n 3 --mode sample --shots 300 --theta-scan 0:3:3",
    "phase-est --n 3 --mode sample --shots 300 --theta 0.5 --control-angle 1.2 --format csv"
    " --output ps.csv",
    "phase-est --n 2 --mode classical-mixture --shots 300 --theta 0.5",
    "phase-est --n 2 --mode classical-mixture --shots 200 --theta-scan 0:1:2 --format csv"
    " --output pm.csv",
    # a one-shot run: one empty branch and two one-shot sets, then two shots
    "phase-est --n 3 --mode sample --shots 1 --theta 0.3 --seed 4 --format csv",
    "phase-est --n 3 --mode sample --shots 2 --theta 0.3 --seed 4 --format csv",
    # runs of several sampling chunks, in both formats
    "phase-est --n 5 --mode sample --shots 9000 --theta-scan 0:3:2",
    "phase-est --n 5 --mode sample --shots 9000 --theta-scan 0:3:2 --control-angle 1.2"
    " --format csv",
    "phase-est --n 2 --mode classical-mixture --control-angle 0.3",
    "phase-est --n 30",
    "phase-est --theta 1 --theta-scan 0:1:2",
    "phase-est --theta-scan 0:1:0",
    # the rest
    "verify",
    "verify --output verify.txt",
    "--version",
]

_HEADER_VERSION = re.compile(rb'^(# \{.*"version": ")[^"]*(")', re.MULTILINE)
_VERSION_LINE = re.compile(rb"\Aqeraser \S+\n\Z")


def masked(data: bytes) -> bytes:
    """``data`` with the code version of headers and of ``--version`` replaced."""
    data = _HEADER_VERSION.sub(rb"\1*\2", data)
    return _VERSION_LINE.sub(b"qeraser *\n", data)


def digest(data: bytes) -> str:
    return hashlib.sha256(masked(data)).hexdigest()


def record(command: str, workdir: Path) -> dict:
    """Run ``command`` in the empty directory ``workdir``; its exit code and digests."""
    stdout, stderr = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(shlex.split(command))
    finally:
        os.chdir(previous)
    files = sorted(path for path in workdir.rglob("*") if path.is_file())
    return {
        "exit": code,
        "stdout": digest(stdout.getvalue().encode("utf-8")),
        "stderr": digest(stderr.getvalue().encode("utf-8")),
        "files": {
            path.relative_to(workdir).as_posix(): digest(path.read_bytes()) for path in files
        },
    }


def main() -> None:
    matrix = {}
    for command in COMMANDS:
        with tempfile.TemporaryDirectory() as workdir:
            matrix[command] = record(command, Path(workdir))
    MATRIX.write_text(json.dumps(matrix, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(matrix)} commands to {MATRIX}", file=sys.stderr)


if __name__ == "__main__":
    main()
