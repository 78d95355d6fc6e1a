"""qeraser benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation ("op") is one ``python -m qeraser.cli ...`` command in a
fresh child process with ``PYTHONPATH=src``.  Ops run one at a time from
this process (closed loop, one client).  Sampled ops get a ``--seed``
derived from the workload seed; the analytic ops of ``metrology-scan``
take no seed, so their inputs are the same for every seed.  Every op's
output is checked (see ``checks.py``), including the body digest of
sampled outputs where ``digests.json`` has one for the op's seed.

``--trace 0`` cycles through the workload's timed ops until their wall
time reaches ``--seconds`` (at least one pass) and prints the end-to-end
metrics.
``--trace 1`` runs one pass in which each op runs untraced and then under
``traced_cli.py``, and prints the per-layer metrics.  The last stdout line
is the JSON result; the spans of a traced run go to
``perfbench/_work/trace-WORKLOAD-seedN.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import select
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks

BENCH = Path(__file__).resolve().parent
WORK = BENCH / "_work"
DIGESTS = BENCH / "digests.json"
IMPORTTIME_SAMPLES = 3
SETUP_SAMPLES = 5
OP_TIMEOUT_S = 120.0
MIB = 1024.0 * 1024.0
ERASING = math.pi / 2
REGISTER_SIZES = (5, 11, 17)  # qubits of the n = 4, 10, 16 pipelines


@dataclass(frozen=True)
class Op:
    """One CLI command of a workload.

    ``items`` is the work it delivers: shots requested by a sampled op,
    theta points by an analytic one.  ``writes`` ops get ``--output`` and
    write a system and a control stream.  ``known_defect`` marks a range
    probe: a substring of the error it exits with at the commit that
    defined the benchmark.
    """

    name: str
    args: tuple[str, ...]
    items: int
    check: Callable[[dict[str, Path], int | None], list[str]]
    seeded: bool = False
    writes: bool = False
    known_defect: str | None = None


def _scan(text: str) -> list[float]:
    start, stop, count = text.split(":")
    return checks.scan_points(float(start), float(stop), int(count))


def _analytic_phase(n: int, scan: str, control_angle: float = ERASING) -> Op:
    args = ("phase-est", "--n", str(n), "--theta-scan", scan)
    if control_angle != ERASING:
        args += ("--control-angle", repr(control_angle))
    suffix = "" if control_angle == ERASING else "-whichway"
    points = _scan(scan)
    return Op(
        f"phase-n{n}{suffix}",
        args,
        len(points),
        lambda out, seed: checks.phase_analytic(
            out["stdout"].read_text(), n, points, control_angle
        ),
    )


_PHASE_THETAS = _scan("0:6.2832:16")

WORKLOADS: dict[str, tuple[tuple[Op, ...], tuple[Op, ...]]] = {
    # (timed ops, untimed range probes)
    "sampled-stream": (
        (
            Op(
                "hom-sample",
                ("hom", "--mode", "sample", "--shots", "1000000"),
                1_000_000,
                lambda out, seed: checks.hom_summary(out["stdout"].read_text(), 1_000_000),
                seeded=True,
            ),
            Op(
                "chsh-mixture",
                ("chsh", "--mode", "classical-mixture", "--shots", "200000"),
                200_000,
                lambda out, seed: checks.chsh_summary(out["stdout"].read_text(), 200_000),
                seeded=True,
            ),
            Op(
                "phase-sample",
                ("phase-est", "--n", "10", "--mode", "sample", "--shots", "12500",
                 "--theta-scan", "0:6.2832:16"),
                12_500 * len(_PHASE_THETAS),
                lambda out, seed: checks.phase_summary(
                    out["stdout"].read_text(), 12_500, 10, _PHASE_THETAS, ERASING
                ),
                seeded=True,
            ),
            Op(
                "chsh-sample-csv",
                ("chsh", "--mode", "sample", "--format", "csv", "--shots", "500000"),
                500_000,
                lambda out, seed: checks.chsh_streams(
                    out["system"], out["control"], 500_000, seed
                ),
                seeded=True,
                writes=True,
            ),
            Op(
                "hom-mixture-csv",
                ("hom", "--mode", "classical-mixture", "--format", "csv",
                 "--shots", "500000"),
                500_000,
                lambda out, seed: checks.hom_streams(
                    out["system"], out["control"], 500_000, seed
                ),
                seeded=True,
                writes=True,
            ),
        ),
        (),
    ),
    "metrology-scan": (
        (
            _analytic_phase(4, "0:6.2832:64"),
            _analytic_phase(10, "0:6.2832:64"),
            _analytic_phase(16, "0:6.2832:16", control_angle=0.0),
        ),
        (
            Op(
                "probe-n16-scan",
                ("phase-est", "--n", "16", "--theta-scan", "0:6.2832:64"),
                64,
                lambda out, seed: checks.phase_analytic(
                    out["stdout"].read_text(), 16, _scan("0:6.2832:64"), ERASING
                ),
                known_defect="fringe slope check failed",
            ),
            Op(
                "probe-n19",
                ("phase-est", "--n", "19", "--theta", "0.3"),
                1,
                lambda out, seed: checks.phase_analytic(
                    out["stdout"].read_text(), 19, [0.3], ERASING
                ),
                known_defect="state not normalized",
            ),
        ),
    ),
}


def op_seed(workload_seed: int, op: Op) -> int:
    """64-bit seed of a sampled op, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload_seed}:{op.name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------- processes


@dataclass
class Spawned:
    wall_s: float
    exit_code: int
    peak_rss_mib: float
    t_spawn: float
    t_reaped: float


def spawn(argv: list[str], stdout: Path, stderr: Path, timeout: float) -> Spawned:
    """Run a child to completion; peak RSS comes from its own rusage.

    ``wait4`` on the child's pid returns that child's rusage only, unlike
    ``getrusage(RUSAGE_CHILDREN)``, which keeps the high-water mark of
    every child reaped so far.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    # One BLAS thread: a second one bought no wall time on the 2-core
    # reference machine and doubled the CPU an op uses.
    env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1")
    t_spawn = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        pidfd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
        finally:
            os.close(pidfd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    t_reaped = time.perf_counter()
    return Spawned(
        t_reaped - t_spawn,
        os.waitstatus_to_exitcode(status),
        usage.ru_maxrss / 1024.0,
        t_spawn,
        t_reaped,
    )


# ---------------------------------------------------------------- op runner


@dataclass
class OpResult:
    op: Op
    seed: int | None
    spawned: Spawned
    stderr_head: str
    problems: list[str]
    known_defect: bool
    output_bytes: int
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems and not self.known_defect


class Runner:
    """Runs ops with their outputs in ``_work`` and checks what they produce."""

    def __init__(self, workload_seed: int) -> None:
        self.workload_seed = workload_seed
        self.recorded = json.loads(DIGESTS.read_text())["digests"]
        self.seen_digests: dict[str, dict[str, str]] = {}
        self.digests_checked = 0

    def run(self, op: Op, traced_as: str | None = None) -> OpResult:
        tag = f"{op.name}-traced" if traced_as else op.name
        stdout, stderr = WORK / f"{tag}.out", WORK / f"{tag}.err"
        seed = op_seed(self.workload_seed, op) if op.seeded else None
        cli_args = list(op.args)
        if seed is not None:
            cli_args += ["--seed", str(seed)]
        outputs = {"stdout": stdout}
        if op.writes:
            system = WORK / f"{tag}.csv"
            cli_args += ["--output", str(system)]
            outputs.update(system=system, control=WORK / f"{tag}.control.csv")
        if traced_as:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), traced_as, tag, "--"]
        else:
            argv = [sys.executable, "-m", "qeraser.cli"]
        spawned = spawn(argv + cli_args, stdout, stderr, OP_TIMEOUT_S)
        stderr_lines = stderr.read_text(errors="replace").splitlines()
        head = stderr_lines[0] if stderr_lines else ""
        result = OpResult(op, seed, spawned, head, [], False, 0)
        if spawned.exit_code != 0:
            if op.known_defect and op.known_defect in head:
                result.known_defect = True
            else:
                result.problems.append(f"exit {spawned.exit_code}: {head}")
        else:
            result.output_bytes = sum(p.stat().st_size for p in outputs.values())
            self._check(result, outputs)
        if op.writes:
            outputs["system"].unlink(missing_ok=True)
            outputs["control"].unlink(missing_ok=True)
        return result

    def _check(self, result: OpResult, outputs: dict[str, Path]) -> None:
        op = result.op
        if op.seeded:
            if op.writes:
                del outputs["stdout"]  # holds nothing; the streams are the output
            result.digests = {label: checks.body_digest(p) for label, p in outputs.items()}
            key = f"{op.name}:{result.seed}"
            if key in self.recorded:
                self.digests_checked += 1
                if self.recorded[key] != result.digests:
                    result.problems.append(f"output digest differs from the recorded {key}")
            if key in self.seen_digests:
                # the same op and seed already passed every check in this run
                if self.seen_digests[key] != result.digests:
                    result.problems.append("output differs from an earlier run of this op")
                return
        try:
            result.problems += op.check(outputs, result.seed)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as error:
            result.problems.append(f"unreadable output: {type(error).__name__}: {error}")
        if op.seeded and not result.problems:
            self.seen_digests[f"{op.name}:{result.seed}"] = result.digests


# -------------------------------------------------------------- measuring


def setup_sample() -> float:
    """Wall time of a fresh interpreter importing the CLI and building its parser."""
    spawned = spawn(
        [sys.executable, "-c", "import qeraser.cli as cli; cli.build_parser()"],
        WORK / "setup.out",
        WORK / "setup.err",
        OP_TIMEOUT_S,
    )
    if spawned.exit_code != 0:
        raise RuntimeError(f"set-up failed: {(WORK / 'setup.err').read_text()}")
    return spawned.wall_s


def import_times_ms() -> dict[str, float]:
    """Median ``-X importtime`` cost of qeraser.cli and of scipy.optimize.

    ``from scipy import optimize`` goes through scipy's lazy module
    ``__getattr__``, so importtime prints no line for scipy.optimize
    itself.  Its cost is the sum of the ``scipy*`` entries imported
    directly by qeraser.protocols.
    """
    samples: dict[str, list[float]] = {"qeraser.cli": [], "scipy.optimize": []}
    for _ in range(IMPORTTIME_SAMPLES):
        spawn(
            [sys.executable, "-X", "importtime", "-c", "import qeraser.cli"],
            WORK / "importtime.out",
            WORK / "importtime.err",
            OP_TIMEOUT_S,
        )
        entries = []  # (cumulative us, depth, name), children before parents
        for line in (WORK / "importtime.err").read_text().splitlines():
            match = re.fullmatch(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if match:
                entries.append((int(match[1]), len(match[2]) // 2, match[3]))
        by_name = {name: (index, cumulative, depth)
                   for index, (cumulative, depth, name) in enumerate(entries)}
        samples["qeraser.cli"].append(by_name["qeraser.cli"][1] / 1000.0)
        index, _, depth = by_name.get("qeraser.protocols", (0, 0, 0))
        scipy_us = 0
        for cumulative, child_depth, name in reversed(entries[:index]):
            if child_depth <= depth:
                break
            if child_depth == depth + 1 and name.split(".")[0] == "scipy":
                scipy_us += cumulative
        samples["scipy.optimize"].append(scipy_us / 1000.0)
    return {name: statistics.median(values) for name, values in samples.items()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[OpResult]]:
    """Timed ops in workload order, cycled until their wall time reaches ``seconds``.

    The last pass over the ops may stop part-way, so ``items_per_s`` is
    the items of one pass over the sum of each op's mean wall time: every
    op weighs as it does in a full pass.  A set-up sample precedes every
    pass and follows the last op (``SETUP_SAMPLES`` at least), so
    ``setup_s`` is a median over the whole run rather than one moment.
    The range probes run last.
    """
    timed, probes = WORKLOADS[workload]
    runner = Runner(seed)
    setups: list[float] = []
    results: list[OpResult] = []
    wall = 0.0
    while wall < seconds or len(results) < len(timed):
        if len(results) % len(timed) == 0:
            setups.append(setup_sample())
        result = runner.run(timed[len(results) % len(timed)])
        results.append(result)
        wall += result.spawned.wall_s
    setups += [setup_sample() for _ in range(max(1, SETUP_SAMPLES - len(setups)))]
    probe_results = [runner.run(op) for op in probes]
    pass_wall = sum(
        statistics.fmean(r.spawned.wall_s for r in results if r.op is op) for op in timed
    )
    metrics = {
        "items_per_s": _metric(sum(op.items for op in timed) / pass_wall, "items/s"),
        "peak_rss_mib": _metric(max(r.spawned.peak_rss_mib for r in results), "MiB"),
        "op_success_rate": _metric(_success_rate(results + probe_results), "ratio"),
        "setup_s": _metric(statistics.median(setups), "s"),
    }
    report_ops(results + probe_results)
    print(f"setup samples: {len(setups)}, timed ops: {len(results)}, op wall: {wall:.1f} s")
    save_digests(workload, seed, runner)
    return metrics, results + probe_results


def _success_rate(results: list[OpResult]) -> float:
    """Share of the workload's distinct ops that passed on every attempt."""
    names = {r.op.name for r in results}
    failed = {r.op.name for r in results if not r.ok}
    return (len(names) - len(failed)) / len(names)


# ---------------------------------------------------------------- tracing


def _load_spans(path: Path, spawned: Spawned) -> dict:
    trace = json.loads(path.read_text())
    trace["t_spawn"], trace["t_reaped"] = spawned.t_spawn, spawned.t_reaped
    return trace


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Children of one span run one after another on one thread, so the
    covered time is the sum of their durations.
    """
    own = [end - start for _, _, start, end, _, _, _ in spans]
    for _, _, start, end, parent, _, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def per_layer(workload: str, seed: int) -> tuple[dict, list[OpResult]]:
    timed, probes = WORKLOADS[workload]
    runner = Runner(seed)
    imports = import_times_ms()
    plain, traced, traces = [], [], []
    for op in timed:
        plain.append(runner.run(op))
        spans_path = WORK / f"spans-{op.name}.json"
        spans_path.unlink(missing_ok=True)
        result = runner.run(op, traced_as=str(spans_path))
        traced.append(result)
        if spans_path.exists():
            traces.append(_load_spans(spans_path, result.spawned))
        else:
            result.problems.append("traced op wrote no spans")
    probe_results = [runner.run(op) for op in probes]

    metrics = layer_metrics(traces, traced)
    metrics["import.qeraser_cli_ms"] = _metric(imports["qeraser.cli"], "ms")
    metrics["import.scipy_optimize_ms"] = _metric(imports["scipy.optimize"], "ms")
    metrics["trace.overhead_ratio"] = _metric(
        sum(r.spawned.wall_s for r in traced) / sum(r.spawned.wall_s for r in plain),
        "ratio",
    )
    WORK.joinpath(f"trace-{workload}-seed{seed}.json").write_text(
        json.dumps({"workload": workload, "seed": seed, "ops": traces})
    )
    report_ops(plain + traced + probe_results)
    for trace in traces:
        main = sum(s[3] - s[2] for s in trace["spans"] if s[1] == "cli.main")
        wall = trace["t_reaped"] - trace["t_spawn"]
        imported = trace["t_imported"] - trace["t_spawn"]
        print(
            f"account {trace['op']}: wall {wall:.3f} s = import {imported:.3f} s"
            f" + cli.main {main:.3f} s + unaccounted {wall - imported - main:.3f} s"
        )
    save_digests(workload, seed, runner)
    return dict(sorted(metrics.items())), plain + traced + probe_results


def layer_metrics(traces: list[dict], traced: list[OpResult]) -> dict:
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    shots = rows = stream_bytes = 0
    gate = {size: [0, 0.0] for size in REGISTER_SIZES}
    gate_calls = gate_bytes = 0
    gate_time = 0.0
    import_s = main_s = wall_s = 0.0
    span_count = 0
    for trace in traces:
        spans = trace["spans"]
        span_count += len(spans)
        for span, self_s in zip(spans, self_times(spans)):
            _, name, start, end, _, _, counts = span
            total[name] = total.get(name, 0.0) + end - start
            own[name] = own.get(name, 0.0) + self_s
            calls[name] = calls.get(name, 0) + 1
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_s
            if name == "sampler.run_experiment":
                shots += counts["shots"]
                rows += counts["rows"]
            elif name == "sampler.write_stream_csv":
                stream_bytes += counts["bytes"]
            elif name == "qubits.apply_single_qubit":
                qubits = counts["qubits"]
                gate_calls += 1
                gate_time += end - start
                gate_bytes += 2 * 16 * 2**qubits
                if qubits in gate:
                    gate[qubits][0] += 1
                    gate[qubits][1] += end - start
        import_s += trace["t_imported"] - trace["t_spawn"]
        wall_s += trace["t_reaped"] - trace["t_spawn"]
        main_s += sum(s[3] - s[2] for s in spans if s[1] == "cli.main")

    sampler_self = own.get("sampler.run_experiment", 0.0) + own.get(
        "sampler.classical_mixture_run", 0.0
    )
    csv_s = total.get("sampler.write_stream_csv", 0.0)
    metrics = {
        "import.s": _metric(import_s, "s"),
        "cli.main.self_s": _metric(own.get("cli.main", 0.0), "s"),
        "cli.output_bytes": _metric(sum(r.output_bytes for r in traced), "B"),
        "sampler.run_experiment.self_s": _metric(own.get("sampler.run_experiment", 0.0), "s"),
        "sampler.classical_mixture_run.self_s": _metric(
            own.get("sampler.classical_mixture_run", 0.0), "s"
        ),
        "sampler.ns_per_shot": _metric(sampler_self / shots * 1e9 if shots else 0.0, "ns"),
        "sampler.stream_rows": _metric(rows, "count"),
        "sampler.write_stream_csv.bytes": _metric(stream_bytes, "B"),
        "sampler.write_stream_csv.mib_per_s": _metric(
            stream_bytes / MIB / csv_s if csv_s else 0.0, "MiB/s"
        ),
        "protocols.parity_branch_statistics.calls": _metric(
            calls.get("protocols.parity_branch_statistics", 0), "count"
        ),
        "protocols.parity_expectation.calls": _metric(
            calls.get("protocols.parity_expectation", 0), "count"
        ),
        "qubits.apply_single_qubit.calls": _metric(gate_calls, "count"),
        "qubits.apply_single_qubit.us_per_call": _metric(
            gate_time / gate_calls * 1e6 if gate_calls else 0.0, "us"
        ),
        "qubits.apply_single_qubit.bytes_computed": _metric(gate_bytes, "B"),
        "fock.event_probability.calls": _metric(
            calls.get("fock.event_probability", 0), "count"
        ),
        "trace.op_wall_s": _metric(wall_s, "s"),
        "trace.unaccounted_s": _metric(wall_s - import_s - main_s, "s"),
        "trace.accounted_share": _metric((import_s + main_s) / wall_s if wall_s else 0.0, "ratio"),
        "trace.spans": _metric(span_count, "count"),
    }
    for size, (count, spent) in gate.items():
        metrics[f"qubits.apply_single_qubit.us_per_call.q{size}"] = _metric(
            spent / count * 1e6 if count else 0.0, "us"
        )
    for name in (
        "sampler.delayed_join",
        "sampler.empirical_table",
        "sampler.chsh_statistic",
        "sampler.empirical_parity",
        "sampler.write_stream_csv",
        "protocols.optimal_chsh_angles",
        "protocols.hom_table",
        "protocols.phase_sensitivity",
        "protocols.parity_branch_statistics",
        "qubits.project_qubit",
        "qubits.expectation",
        "qubits.ghz_state",
        "fock.beam_splitter_substitute",
        "fock.event_probability",
    ):
        metrics[f"{name}.s"] = _metric(total.get(name, 0.0), "s")
    for layer in ("sampler", "protocols", "qubits", "fock"):
        metrics[f"{layer}.self_s"] = _metric(layer_self.get(layer, 0.0), "s")
    return metrics


# ---------------------------------------------------------------- reports


def report_ops(results: list[OpResult]) -> None:
    for r in results:
        if r.known_defect:
            status = "KNOWN-DEFECT"
        else:
            status = "ok" if r.ok else "FAIL"
        print(
            f"op {r.op.name} seed={r.seed} exit={r.spawned.exit_code} "
            f"wall={r.spawned.wall_s:.3f}s rss={r.spawned.peak_rss_mib:.1f}MiB "
            f"{status} stderr={r.stderr_head!r}"
            + (f" problems={r.problems[:3]}" if r.problems else "")
        )


def save_digests(workload: str, seed: int, runner: Runner) -> None:
    if runner.seen_digests:
        WORK.joinpath(f"digests-{workload}-seed{seed}.json").write_text(
            json.dumps(runner.seen_digests, indent=1, sort_keys=True)
        )
    print(f"digests checked against the recorded table: {runner.digests_checked}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so that spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not Path("src/qeraser/cli.py").is_file():
        print("run from the root of a qeraser checkout (src/qeraser missing)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.trace:
        metrics, results = per_layer(args.workload, args.seed)
    else:
        metrics, results = end_to_end(args.workload, args.seed, args.seconds)
    failed = sum(1 for r in results if r.problems)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
