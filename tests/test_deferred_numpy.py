"""numpy loads at the package's first array operation, not at import.

Nor does any command import ``dataclasses``: the package's records derive
from ``qeraser._record.Record``.  And no CLI process loads OpenSSL's
``_hashlib``, which ``numpy.random`` would pull in through ``secrets``,
while the builtin hash modules can stand in for it.

Commands run as ``python -X importtime -m qeraser.cli``, the way a user
starts them, so the module that runs as ``__main__`` is covered too.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from qeraser.cli import main

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}


def imported_modules(argv):
    """Exit code and the names of the modules a CLI run imported."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "qeraser.cli", *argv],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=120,
    )
    names = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    return result.returncode, names


@pytest.mark.parametrize(
    "argv, code",
    [
        (["phase-est", "--n", "4", "--theta-scan", "0:6.2832:64"], 0),
        (["phase-est", "--n", "4", "--theta", "0.3", "--format", "summary"], 0),
        # the chsh cells are a closed form in plain math
        (["chsh", "--phi", "0.3", "--optimize", "--format", "csv"], 0),
        (["chsh", "--phi", "0.3", "--optimize", "--format", "summary"], 0),
        (["--version"], 0),
        (["phase-est", "--theta-scan", "0:1"], 2),
    ],
)
def test_commands_without_arrays_never_import_numpy(argv, code):
    returncode, names = imported_modules(argv)
    assert returncode == code
    assert "qeraser.protocols" in names
    # the records are built without dataclasses, which would load inspect
    assert not names & {"numpy", "dataclasses", "inspect"}


def test_a_sampled_run_imports_numpy():
    returncode, names = imported_modules(
        ["phase-est", "--n", "4", "--mode", "sample", "--shots", "100"]
    )
    assert returncode == 0
    assert "numpy" in names
    # numpy itself imports inspect, so only dataclasses is checked here
    assert "dataclasses" not in names


SAMPLED = [
    ["hom", "--mode", "sample", "--shots", "2000", "--seed", "5"],
    ["chsh", "--mode", "sample", "--shots", "2000", "--seed", "5"],
    ["verify"],
]


def modules_at_exit(argv, tmp_path, prelude=""):
    """Output and loaded modules of ``cli.run()`` in a child, read as it exits.

    ``-X importtime`` cannot tell a blocked import from a loaded one, since
    it lists every attempt, so the child records ``sys.modules`` instead:
    at ``os._exit``, or at ``atexit`` should the run end through teardown.
    """
    report = tmp_path / "modules.json"
    probe = (
        "import atexit, json, os, sys\n"
        f"{prelude}"
        "from qeraser import cli\n"
        "def write_report():\n"
        f"    with open({str(report)!r}, 'w') as handle:\n"
        "        json.dump([name for name, module in sys.modules.items()\n"
        "                   if module is not None], handle)\n"
        "def exit_with_report(code, _exit=os._exit):\n"
        "    write_report()\n"
        "    _exit(code)\n"
        "atexit.register(write_report)\n"
        "os._exit = exit_with_report\n"
        f"sys.argv = ['qeraser', *{argv!r}]\n"
        "cli.run()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=ENV, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result, set(json.loads(report.read_text()))


@pytest.mark.parametrize("argv", SAMPLED, ids=lambda argv: argv[0])
def test_sampled_cli_runs_load_no_openssl(argv, tmp_path):
    result, names = modules_at_exit(argv, tmp_path)
    assert result.stderr == b""
    assert {"numpy.random", "secrets", "hmac", "hashlib"} <= names
    assert "_hashlib" not in names


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None, reason="no OpenSSL")
@pytest.mark.parametrize("argv", SAMPLED[:2], ids=lambda argv: argv[0])
def test_without_a_builtin_hash_module_openssl_loads_as_before(argv, tmp_path):
    # an interpreter that lacks one of hashlib's fallbacks keeps _hashlib
    result, names = modules_at_exit(argv, tmp_path, prelude="sys.modules['_md5'] = None\n")
    assert result.stderr == b""
    assert "_hashlib" in names
    plain = subprocess.run(
        [sys.executable, "-m", "qeraser.cli", *argv], capture_output=True, env=ENV, timeout=120
    )
    assert plain.returncode == 0
    assert result.stdout == plain.stdout


def test_main_leaves_hashlib_as_it_found_it(capsys):
    missing = object()
    before = sys.modules.get("_hashlib", missing)
    assert main(SAMPLED[0]) == 0
    assert sys.modules.get("_hashlib", missing) is before
    # a fresh interpreter too: only run() blocks the import
    output = run_fresh(
        "import sys\n"
        "from qeraser.cli import main\n"
        f"code = main({SAMPLED[1]!r})\n"
        "print(code, sys.modules.get('_hashlib') is not None)\n"
    )
    assert output.splitlines()[-1] == "0 True"


def run_fresh(code):
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=ENV, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_the_chsh_optimum_needs_no_numpy():
    # a closed form: no array, so no LAPACK and no machine-dependent SVD pick
    output = run_fresh(
        "import sys\n"
        "from qeraser.protocols import optimal_chsh_angles\n"
        "print(optimal_chsh_angles(0.3))\n"
        "print('numpy' in sys.modules)\n"
    )
    assert output.splitlines()[-1] == "False"


def test_two_threads_making_the_first_access_both_succeed():
    # LazyLoader-style deferral fails here: one thread sees numpy half-built
    output = run_fresh(
        "import sys, threading\n"
        "from qeraser import _numpy as np\n"
        "assert not hasattr(np, '__path__')  # introspection leaves numpy unloaded\n"
        "assert 'numpy' not in sys.modules\n"
        "start = threading.Barrier(2)\n"
        "results = []\n"
        "def first_access(name):\n"
        "    start.wait()\n"
        "    results.append(int(getattr(np, name)(3).sum()))\n"
        "threads = [threading.Thread(target=first_access, args=(name,))\n"
        "           for name in ('ones', 'arange')]\n"
        "for thread in threads:\n"
        "    thread.start()\n"
        "for thread in threads:\n"
        "    thread.join()\n"
        "print(sorted(results))\n"
    )
    assert output == "[3, 3]\n"


def test_a_name_read_once_is_a_plain_module_attribute():
    import numpy

    from qeraser import _numpy as np

    assert np.zeros is numpy.zeros
    # later lookups find the name in the module's own namespace, with no hook
    assert vars(np)["zeros"] is numpy.zeros
    with pytest.raises(AttributeError):
        np.no_such_numpy_name
