"""Exported and traced names must exist where their users look them up.

``perfbench/traced_cli.py`` wraps library functions by
``getattr(qeraser.<layer>, name)``, so a name moved out of its layer makes
``perfbench/run.py --trace 1`` fail with AttributeError; the second test
catches that in the suite.  It looks every layer up in ``sys.modules``
right after ``import qeraser.cli``, so a layer imported lazily fails there
with KeyError; the third test catches that.
"""

import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qeraser

TRACED_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
MODULES = ["qeraser"] + [
    f"qeraser.{info.name}" for info in pkgutil.iter_modules(qeraser.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []


def traced_layers():
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    return traced_cli.TRACED


def test_every_traced_name_is_in_its_layer():
    missing = [
        f"{layer}.{name}"
        for layer, names in traced_layers().items()
        for name in names
        if not hasattr(importlib.import_module(f"qeraser.{layer}"), name)
    ]
    assert missing == []


def test_importing_the_cli_loads_every_traced_layer():
    result = subprocess.run(
        [sys.executable, "-c", "import json, sys, qeraser.cli; print(json.dumps([*sys.modules]))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert [layer for layer in traced_layers() if f"qeraser.{layer}" not in loaded] == []
