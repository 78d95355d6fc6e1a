"""numpy loads at the package's first array operation, not at import.

Nor does any command import ``dataclasses``: the package's records derive
from ``qeraser._record.Record``.

Commands run as ``python -X importtime -m qeraser.cli``, the way a user
starts them, so the module that runs as ``__main__`` is covered too.
"""

import os
import subprocess
import sys

import pytest

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
