"""Run one ``qeraser`` command with spans recorded around library calls.

Usage: ``python perfbench/traced_cli.py SPANS_JSON OP_ID -- CLI_ARGS...``
with ``PYTHONPATH=src``.  Behaves like ``python -m qeraser.cli CLI_ARGS``
(same stdout, files and exit code) and additionally writes the spans to
``SPANS_JSON`` when the command returns.

The library is not instrumented.  This script replaces each traced
public function by a timing wrapper at every name a ``qeraser`` module
binds it to, so calls made through ``from .qubits import
apply_single_qubit`` are timed as well as calls through ``sampler.run_experiment``.
Spans stay in memory until the command ends.  Times are
``time.perf_counter`` values (CLOCK_MONOTONIC on Linux), so they are
directly comparable with the parent's spawn and exit timestamps.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

import qeraser  # noqa: E402
import qeraser.cli  # noqa: E402

T_IMPORTED = time.perf_counter()

# layer -> public functions timed in that layer; each name is also a
# per-layer metric prefix in run.py
TRACED = {
    "cli": ("main",),
    "sampler": (
        "run_experiment",
        "classical_mixture_run",
        "delayed_join",
        "empirical_table",
        "chsh_statistic",
        "empirical_parity",
        "write_stream_csv",
    ),
    "protocols": (
        "hom_table",
        "optimal_chsh_angles",
        "parity_expectation",
        "parity_branch_statistics",
        "phase_sensitivity",
    ),
    "qubits": ("ghz_state", "apply_single_qubit", "project_qubit", "expectation"),
    "fock": ("beam_splitter_substitute", "event_probability"),
}


def _run_experiment_counts(args, kwargs, result) -> dict:
    system, control = result
    return {"shots": args[0].shots, "rows": len(system) + len(control)}


def _apply_single_qubit_counts(args, kwargs, result) -> dict:
    return {"qubits": args[0].num_qubits}


# counts taken at the call boundary: name -> f(args, kwargs, result)
COUNTERS = {
    "sampler.run_experiment": _run_experiment_counts,
    "qubits.apply_single_qubit": _apply_single_qubit_counts,
}


class Recorder:
    """In-memory span list with the stack of open span ids."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name: str, function):
        counter = COUNTERS.get(name)
        measures_stream = name == "sampler.write_stream_csv"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            record = [span_id, name, 0.0, 0.0, parent, self.op_id, None]
            self.spans.append(record)
            self.stack.append(span_id)
            # the text stream's tell() flushes, so read it outside the span
            position = args[0].tell() if measures_stream else 0
            record[2] = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                record[6] = counter(args, kwargs, result)
            elif measures_stream:
                record[6] = {"bytes": args[0].tell() - position}
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    """Rebind every traced function in every loaded ``qeraser`` module."""
    modules = [
        module
        for name, module in sys.modules.items()
        if name == "qeraser" or name.startswith("qeraser.")
    ]
    for layer, names in TRACED.items():
        home = sys.modules[f"qeraser.{layer}"]
        for short in names:
            original = getattr(home, short)
            wrapped = recorder.wrap(f"{layer}.{short}", original)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapped)


def main() -> int:
    spans_path, op_id, separator, *cli_args = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: traced_cli.py SPANS_JSON OP_ID -- CLI_ARGS...")
    recorder = Recorder(op_id)
    install(recorder)
    t_installed = time.perf_counter()
    code = qeraser.cli.main(cli_args)
    t_returned = time.perf_counter()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "op": op_id,
                "t_start": T_START,
                "t_imported": T_IMPORTED,
                "t_installed": t_installed,
                "t_returned": t_returned,
                "spans": recorder.spans,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
