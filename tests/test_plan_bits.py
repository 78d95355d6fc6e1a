"""The bits of every sampling plan, pinned on this CPU and on a lesser one.

The byte pins stop at printed bytes: a plan cell that moves in its last
bit changes a stream only when some uniform lands between its two bounds.
So this file hashes the ``float.hex`` of every ``sampler._plan`` table,
with its cumulative bounds, for a fixed list of configs, and of the
analytic hom and chsh columns.  The digest is checked in process, and
again in a child whose numpy dispatch is lowered to x86-64-v2 and whose
OpenBLAS runs its Prescott kernel, both set on the child only.  A plan
whose bits come from a BLAS or SIMD kernel fails there.  libm and the
numpy version are out of scope: the metadata's version field pins those.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qeraser import protocols, sampler
from qeraser.protocols import ChshSettings
from qeraser.sampler import ExperimentConfig

PLAN_BITS_SHA256 = "89425c6c09631518a070ea1a57d726398ab750490449648a608c809982a3d5f5"

LOWER_CPU = {
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR",
    "OPENBLAS_CORETYPE": "Prescott",
}

_SETTINGS = (
    ChshSettings(0.0, 1.5708, 0.7854, -0.7854),
    ChshSettings(0.3, 2.9, 4.1, 5.5),
    ChshSettings(1.1, 0.2, 3.3, 2.7),
)
_ERASING = protocols._ERASING_ANGLE


def _configs() -> list[ExperimentConfig]:
    """All six (experiment, mode) pairs, at erasing and off-erasing readouts."""
    configs = []
    for statistics in ("boson", "fermion", "distinguishable"):
        for phi in (0.0, 0.4, 2.9):
            for mode, angles in (("quantum", (0.0, 0.7, 1.9)), ("classical_mixture", (0.0,))):
                configs += [
                    ExperimentConfig("hom", 1, 0, phi=phi, statistics=statistics,
                                     control_basis_angle=angle, mode=mode)
                    for angle in angles
                ]
    for settings in _SETTINGS:
        for phi in (0.0, 0.3, 4.0):
            for mode, angles in (
                ("quantum", (0.0, 0.4, 1.2, 2.5, math.pi / 2)),
                ("classical_mixture", (0.0,)),
            ):
                configs += [
                    ExperimentConfig("chsh", 1, 0, phi=phi, settings=settings,
                                     control_basis_angle=angle, mode=mode)
                    for angle in angles
                ]
    for n in (1, 2, 7, 19, 20):
        for theta in (0.0, 0.3, 2.2):
            for mode, angles in (
                ("quantum", (_ERASING["metrology"], 0.0, 0.9)),
                ("classical_mixture", (_ERASING["metrology"],)),
            ):
                configs += [
                    ExperimentConfig("metrology", 1, 0, phi=0.6, n=n, theta=theta,
                                     control_basis_angle=angle, mode=mode)
                    for angle in angles
                ]
    return configs


def _hex(values) -> str:
    return " ".join(float.hex(float(v)) for v in values)


def plan_bits_lines() -> list[str]:
    """One line per plan, cumulative plan and analytic column set, floats in hex."""
    lines = []
    for config in _configs():
        table = sampler._plan(config).table
        lines.append(f"plan {config!r}: {_hex(table.flat)}")
        lines.append(f"cumulative {config!r}: {_hex(sampler._cumulative(table).flat)}")
    for statistics in ("boson", "fermion", "distinguishable"):
        for phi in (0.0, 0.8, 3.3):
            for angle in (0.0, 0.7, math.pi / 2):
                columns = protocols._hom_columns(phi, statistics, angle)
                lines.append(f"hom {statistics} {phi!r} {angle!r}: {_hex(columns.flat)}")
    for settings in _SETTINGS:
        for phi in (0.0, 0.3, 4.0):
            for angle in (0.0, 0.4, 2.5):
                for pair in protocols._CHSH_PAIRS:
                    theta_a, theta_b = settings.pair(*pair)
                    rows = protocols._chsh_columns(theta_a, theta_b, phi, angle)
                    cells = [cell for row in rows for cell in row]
                    lines.append(f"chsh {theta_a!r} {theta_b!r} {phi!r} {angle!r}: {_hex(cells)}")
    return lines


def plan_bits_digest() -> str:
    return hashlib.sha256("\n".join(plan_bits_lines()).encode()).hexdigest()


def cpu_report() -> dict:
    """The plan digest and what numpy and OpenBLAS dispatch to in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__

    return {
        "digest": plan_bits_digest(),
        "features": sorted(name for name, on in __cpu_features__.items() if on),
        "openblas": _openblas_core(),
    }


def _openblas_core() -> str | None:
    """The kernel OpenBLAS picked, where numpy's bundled library names it, else None."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        library = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                     "openblas_get_corename64_", "openblas_get_corename"):
            function = getattr(library, name, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_char_p
                return function().decode()
    return None


def test_plan_bits_are_pinned():
    assert plan_bits_digest() == PLAN_BITS_SHA256


def test_plan_bits_hold_on_a_lesser_cpu():
    here = cpu_report()
    probe = (
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('plan_bits', {str(Path(__file__))!r})\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "print(json.dumps(module.cpu_report()))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **LOWER_CPU},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lower = json.loads(result.stdout)
    lowered = sorted(set(here["features"]) - set(lower["features"]))
    if not lowered and lower["openblas"] == here["openblas"]:
        pytest.skip(
            f"neither variable takes effect here: numpy dispatches none of "
            f"{LOWER_CPU['NPY_DISABLE_CPU_FEATURES']}, and OpenBLAS's kernel "
            f"reads {here['openblas']} with and without OPENBLAS_CORETYPE"
        )
    assert lower["digest"] == here["digest"] == PLAN_BITS_SHA256
