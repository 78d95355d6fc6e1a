"""Command-line front door.

Subcommands::

    hom        coincidence tables behind the two-particle splitter
    chsh       conditional CHSH correlators, analytic or sampled
    phase-est  GHZ parity fringes and phase sensitivity scans
    verify     run the full analytic invariant suite

Angles are radians unless ``--degrees`` is given.  ``--mode analytic``
prints closed pipelines; ``sample`` and ``classical-mixture`` draw seeded
shot streams.  Sampled runs with ``--format csv`` write the system stream
to ``--output``, a regular file or a new path, and the control/key stream
next to it (``NAME.control.EXT``);
``--format summary`` joins the streams and reports conditioned statistics.
Every output begins with a metadata header that reproduces the run:
config, seed, generator id, code version.  Exit codes: 0 success,
1 runtime failure (a closed stdout too, with nothing on stderr), 2 usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
from typing import IO, Callable, Iterator, Sequence, TypeVar

from . import _numpy as np
from ._record import astuple, replace
from ._version import __version__
from .fock import Statistics
from .protocols import (
    _CHSH_PAIRS,
    _ERASING_ANGLE,
    HOM_OUTCOMES,
    TSIRELSON_BOUND,
    ChshSettings,
    MetrologySetup,
    ProbabilityTable,
    TABLE_COLUMNS,
    _chsh_combination,
    _chsh_correlators,
    _hom_columns,
    hom_table,
    optimal_chsh_angles,
    parity_expectation,
    phase_sensitivity,
)
from . import sampler
from .sampler import ExperimentConfig

__all__ = ["main", "run", "build_parser"]

_MODES = ("analytic", "sample", "classical-mixture")
_SAMPLER_MODE = {"sample": "quantum", "classical-mixture": "classical_mixture"}
# a value that starts with "-" then a digit (-1:1:4, -1e-3, -.5) is a flag value,
# not an unknown option; argparse's own pattern passes only plain decimals
_NEGATIVE_VALUE = re.compile(r"^-\.?\d")

_T = TypeVar("_T")


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


def _finite_float(text: str) -> float:
    """Type of the float flags: nan, infinities and non-numbers are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """A parser, as are its subcommands, whose help or version text reaches stdout or raises.

    argparse 3.11+ drops an OSError of that write: unbuffered, a closed
    pipe would lose the text and exit 0.  main() makes it exit 1.
    """

    def _print_message(self, message: str, file: IO[str] | None = None) -> None:
        if message and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    common = argparse.ArgumentParser(add_help=False, parents=[output])
    common.add_argument(
        "--format",
        choices=("csv", "summary"),
        help="output form (default: csv for analytic runs, summary for sampled)",
    )
    common.add_argument(
        "--degrees",
        action="store_true",
        help="interpret all angle flags in degrees",
    )

    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument(
        "--mode",
        choices=_MODES,
        default="analytic",
        help="analytic pipeline, quantum sampling, or the classical baseline",
    )
    sampling.add_argument("--shots", type=int, default=10000, help="shots per run")
    sampling.add_argument("--seed", type=int, default=0, help="64-bit run seed")

    parser = _Parser(
        prog="qeraser",
        description="Delayed-choice conditional statistics: tables, CHSH, phase estimation.",
    )
    parser.add_argument("--version", action="version", version=f"qeraser {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    hom = commands.add_parser(
        "hom",
        parents=[common, sampling],
        help="two-particle interference table conditioned on the control spin",
    )
    hom.add_argument("--phi", type=_finite_float, default=0.0, help="preparation phase")
    hom.add_argument(
        "--statistics",
        choices=tuple(s.value for s in Statistics),
        default=Statistics.BOSON.value,
        help="exchange statistics of the interfering pair",
    )
    hom.add_argument(
        "--control-angle",
        type=_finite_float,
        default=None,
        help=(
            "control analyzer angle of a --mode sample run "
            "(default 0: erases; pi/2 reveals the path)"
        ),
    )

    chsh = commands.add_parser(
        "chsh",
        parents=[common, sampling],
        help="conditional CHSH value at fixed or optimized analyzer settings",
    )
    chsh.add_argument("--phi", type=_finite_float, default=0.0, help="preparation phase")
    chsh.add_argument(
        "--angles",
        metavar="A0,A1,B0,B1",
        help="four analyzer angles; mutually exclusive with --optimize",
    )
    chsh.add_argument(
        "--optimize",
        action="store_true",
        help="solve for settings maximizing the conditional CHSH value (default)",
    )
    chsh.add_argument(
        "--control-angle",
        type=_finite_float,
        default=None,
        help="control analyzer angle of a --mode sample run (default 0: erases)",
    )

    phase = commands.add_parser(
        "phase-est",
        parents=[common, sampling],
        help="GHZ parity fringes and phase sensitivity",
    )
    phase.add_argument("--n", type=int, default=2, help="register size")
    phase.add_argument("--phi", type=_finite_float, default=0.0, help="preparation phase")
    phase.add_argument("--theta", type=_finite_float, help="single phase point")
    phase.add_argument(
        "--theta-scan",
        metavar="START:STOP:COUNT",
        help="evenly spaced phase points, STOP exclusive",
    )
    phase.add_argument(
        "--control-angle",
        type=_finite_float,
        default=None,
        help=(
            "control analyzer angle, not taken in classical-mixture mode "
            "(default pi/2: erases; 0 reveals the branch)"
        ),
    )

    commands.add_parser(
        "verify", parents=[output], help="run the analytic invariant suite"
    )
    for subcommand in commands.choices.values():
        subcommand._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def _parse_theta_scan(text: str) -> list[float]:
    """The points of ``np.linspace(START, STOP, COUNT, endpoint=False)``, bit for bit."""
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--theta-scan wants START:STOP:COUNT, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as error:
        raise UsageError(f"bad --theta-scan value: {error}") from None
    delta = stop - start  # not finite when START or STOP is not, or when it overflows
    if not math.isfinite(delta):
        raise UsageError(
            f"--theta-scan START, STOP and STOP - START must be finite, got {text!r}"
        )
    if count < 1:
        raise UsageError("--theta-scan count must be at least 1")
    # point indices are exact in float64 only up to 2**53
    if count > 2**53:
        raise UsageError(f"--theta-scan count must be at most {2**53}")
    try:
        points = [0.0] * count  # a count too large to hold fails here, not after hours
    except MemoryError:
        raise MemoryError(f"no memory for {count} theta points") from None
    step = delta / count
    for i in range(count):
        # linspace's arithmetic, which scales the index first when the step underflows to 0
        points[i] = (i * step if step != 0 else i / count * delta) + start
    return points


def _parse_angles(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError(f"--angles wants four comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as error:
        raise UsageError(f"bad --angles value: {error}") from None


def _from_flags(build: Callable[..., _T], *args, **kwargs) -> _T:
    """Build a library value from flag values; a rejected value is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        raise UsageError(str(error)) from None


@contextlib.contextmanager
def _output_stream(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
        sys.stdout.flush()  # a closed pipe fails inside main, not in the exit-time flush
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            yield handle


def _resolved_format(args: argparse.Namespace) -> str:
    if args.format is not None:
        return args.format
    return "csv" if getattr(args, "mode", "analytic") == "analytic" else "summary"


def _analytic_header(command: str, params: dict) -> str:
    payload = {
        "command": command,
        "mode": "analytic",
        "params": params,
        "version": __version__,
    }
    return sampler._header_line(payload)


def _control_path(path: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.control{ext}" if ext else f"{path}.control"


def _angle_flags(args: argparse.Namespace, experiment: str) -> None:
    """Take ``--phi`` and ``--control-angle`` to radians and default the latter.

    The default is the ``experiment``'s erasing angle, in radians and
    never rescaled.  ``--control-angle`` is rejected where no control is
    read at an angle: a classical-mixture run keeps a preparation bit in
    place of a control particle, and analytic hom/chsh tables read both
    control branches.
    """
    if args.degrees:
        args.phi = math.radians(args.phi)
    if args.control_angle is None:
        args.control_angle = _ERASING_ANGLE[experiment]
    elif args.mode == "classical-mixture":
        raise UsageError(
            "--control-angle needs a measured control: classical-mixture mode "
            "keeps a preparation bit; use --mode sample"
        )
    elif args.mode == "analytic" and args.command != "phase-est":
        raise UsageError("--control-angle is sampled-only: use --mode sample")
    elif args.degrees:
        args.control_angle = math.radians(args.control_angle)


def _config(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """The sampled run's config: the shared flags plus the experiment's ``fields``."""
    return _from_flags(
        ExperimentConfig,
        shots=args.shots,
        seed=args.seed,
        phi=args.phi,
        control_basis_angle=args.control_angle,
        mode=_SAMPLER_MODE[args.mode],
        **fields,
    )


@contextlib.contextmanager
def _stream_files(paths: Sequence[str]) -> Iterator[list[IO[bytes]]]:
    """Binary files at ``paths`` to write, none emptied before all of them are open.

    Each opens in append mode, which empties nothing, so when a path cannot
    be opened the files before it keep an earlier run's bytes, and one that
    this call made is removed.  Then every regular file is emptied, as mode
    ``"wb"`` would; a pipe or a device has nothing to empty.
    """
    with contextlib.ExitStack() as stack:
        files, made = [], []
        try:
            for path in paths:
                fresh = not os.path.lexists(path)
                files.append(stack.enter_context(open(path, "ab")))
                if fresh:
                    made.append(path)
        except OSError:
            stack.close()
            for path in made:
                os.remove(path)
            raise
        for path, file in zip(paths, files):
            if os.path.isfile(path):
                file.truncate(0)
        yield files


def _run_sampled(
    args: argparse.Namespace,
    config: ExperimentConfig,
    summary: Callable[[ExperimentConfig, Iterator[sampler.JoinedStreams]], str],
) -> int:
    """Write a sampled run's two CSV streams, or ``summary`` of its chunk joins.

    ``--format csv`` writes the system stream to ``--output`` and the
    control stream beside it.  Chunks cover disjoint shot ranges, so
    counts summed over the chunk joins equal those of the whole run's join.
    """
    form = _resolved_format(args)
    if form == "csv" and args.output is None:
        raise UsageError("sampled stream output needs --output (or --format summary)")
    if form == "csv" and os.path.exists(args.output) and not os.path.isfile(args.output):
        raise UsageError(f"sampled stream output {args.output} exists and is not a regular file")
    chunks = sampler._sample(config)  # a failing plan raises before any file opens
    if form == "csv":
        control_path = _control_path(args.output)
        with _stream_files((args.output, control_path)) as files:
            writes = [file.write for file in files]
            sampler._write_csv_chunks(writes, chunks, config, len(str(config.shots - 1)))
        print(f"wrote {args.output} and {control_path}", file=sys.stderr)
        return 0
    with _output_stream(args.output) as out:  # an unwritable path fails before sampling
        text = summary(config, itertools.starmap(sampler.delayed_join, chunks))
        out.write(sampler.metadata_header(config) + "\n" + text)
    return 0


def _hom_summary(config: ExperimentConfig, joins: Iterator[sampler.JoinedStreams]) -> str:
    """Sampled hom summary: the reference, joined and unjoined tables."""
    # map, unlike a generator expression, holds no chunk while it draws the next
    counts = sum(map(lambda j: sampler._outcome_counts(j.system, j.control.outcome), joins))
    empirical_joined = sampler._counts_table(HOM_OUTCOMES, counts)
    empirical_unjoined = sampler._counts_table(HOM_OUTCOMES, counts.sum(axis=1, keepdims=True))
    reference = _hom_columns(config.phi, config.statistics, config.control_basis_angle)
    return (
        "reference (analytic, this control basis):\n"
        + ProbabilityTable(HOM_OUTCOMES, TABLE_COLUMNS, reference).summary()
        + "\njoined empirical table:\n"
        + empirical_joined.summary()
        + "\nunjoined empirical table:\n"
        + empirical_unjoined.summary()
    )


def _run_hom(args: argparse.Namespace) -> int:
    _angle_flags(args, "hom")
    if args.mode != "analytic":
        config = _config(args, experiment="hom", statistics=args.statistics)
        return _run_sampled(args, config, _hom_summary)
    table = hom_table(args.phi, Statistics(args.statistics))
    header = _analytic_header("hom", {"phi": args.phi, "statistics": args.statistics})
    with _output_stream(args.output) as out:
        out.write(header + "\n")
        out.write(table.to_csv() if _resolved_format(args) == "csv" else table.summary())
    return 0


def _resolve_chsh_settings(args: argparse.Namespace) -> ChshSettings:
    if args.angles is not None and args.optimize:
        raise UsageError("--angles and --optimize are mutually exclusive")
    if args.angles is not None:
        angles = _parse_angles(args.angles)
        if args.degrees:
            angles = tuple(map(math.radians, angles))
        return _from_flags(ChshSettings, *angles)
    return optimal_chsh_angles(args.phi)


def _chsh_analytic(
    settings: ChshSettings, phi: float, control_angle: float
) -> tuple[list[tuple], list[float]]:
    """Per-pair rows (a, b, theta_a, theta_b, E_up, E_down, E_unjoined) and |S| of each set.

    The control is read at ``control_angle``; the sets are C=up, C=down and unjoined.
    """
    rows = [
        (*p, *settings.pair(*p), *_chsh_correlators(*settings.pair(*p), phi, control_angle))
        for p in _CHSH_PAIRS
    ]
    return rows, [abs(_chsh_combination(column)) for column in list(zip(*rows))[4:]]


def _settings_line(settings: ChshSettings) -> str:
    return (
        "settings: "
        f"a0={settings.theta_a0:.6f} a1={settings.theta_a1:.6f} "
        f"b0={settings.theta_b0:.6f} b1={settings.theta_b1:.6f}\n"
    )


def _chsh_summary(config: ExperimentConfig, joins: Iterator[sampler.JoinedStreams]) -> str:
    """Sampled chsh summary: analytic and empirical S of each labeled set."""
    # pair sums of the C=up and C=down sets; the unjoined set is their union
    up_down = sum(map(lambda j: sampler._pair_sums(j.system, j.control.outcome), joins))
    branches = (
        ("empirical S (joined C=up):   ", up_down[0]),
        ("empirical S (joined C=down): ", up_down[1]),
        ("empirical S (unjoined):      ", up_down[0] + up_down[1]),
    )
    estimates = [_chsh_estimate(sums) for _, sums in branches]
    _, s = _chsh_analytic(config.settings, config.phi, config.control_basis_angle)
    text = _settings_line(config.settings) + (
        f"analytic S: up={s[0]:.6f} down={s[1]:.6f} unjoined={s[2]:.6f}\n"
    )
    for (prefix, sums), (value, _) in zip(branches, estimates):
        text += f"{prefix}{value} ({int(sums[0].sum())} shots)\n"
    return text + f"violation of |S| <= 2 (C=up branch): {estimates[0][1]}\n"


def _run_chsh(args: argparse.Namespace) -> int:
    _angle_flags(args, "chsh")
    settings = _resolve_chsh_settings(args)
    if args.mode != "analytic":
        config = _config(args, experiment="chsh", settings=settings)
        return _run_sampled(args, config, _chsh_summary)
    header = _analytic_header("chsh", {"phi": args.phi, "settings": list(astuple(settings))})
    rows, (up, down, unjoined) = _chsh_analytic(settings, args.phi, args.control_angle)
    with _output_stream(args.output) as out:
        out.write(header + "\n")
        if _resolved_format(args) == "csv":
            out.write("setting_a,setting_b,theta_a,theta_b,E_up,E_down,E_unjoined\n")
            for row in rows:
                out.write(",".join(map(repr, row)) + "\n")
            out.write(
                f"# S_up={up!r} S_down={down!r} "
                f"S_unjoined={unjoined!r} bound={TSIRELSON_BOUND!r}\n"
            )
        else:
            out.write(_settings_line(settings))
            for row in rows:
                out.write(
                    f"pair ({row[0]},{row[1]}): E_up={row[4]:+.6f} "
                    f"E_down={row[5]:+.6f} E_unjoined={row[6]:+.6f}\n"
                )
            out.write(
                f"S (C=up) = {up:.9f}\n"
                f"S (C=down) = {down:.9f}\n"
                f"S (C=?) = {unjoined:.9f}\n"
                f"quantum bound 2*sqrt(2) = {TSIRELSON_BOUND:.9f}\n"
            )
    return 0


def _chsh_estimate(sums: np.ndarray) -> tuple[str, str]:
    """Printed empirical S and violation significance of one labeled set.

    ``sums`` are the set's per-pair counts and +-1 sums.  A small run can
    leave a set without records for some setting pair; both then read
    n/a with the reason instead of failing the run.  When every correlator
    is +-1 the standard error is zero and the significance reads n/a.
    """
    try:
        s, err = sampler._chsh_from_sums(sums)
    except ValueError as error:
        return (f"n/a ({error})",) * 2
    estimate = f"{s:+.4f} +- {err:.4f}"
    if err == 0:
        return estimate, "n/a (zero standard error)"
    return estimate, f"{(abs(s) - 2.0) / err:.2f} standard errors"


def _phase_points(args: argparse.Namespace) -> list[float]:
    if args.theta_scan is not None and args.theta is not None:
        raise UsageError("--theta and --theta-scan are mutually exclusive")
    if args.theta_scan is not None:
        points = _parse_theta_scan(args.theta_scan)
    else:
        points = [args.theta if args.theta is not None else 0.0]
    return list(map(math.radians, points)) if args.degrees else points


def _run_phase_est(args: argparse.Namespace) -> int:
    _angle_flags(args, "metrology")
    thetas = _phase_points(args)
    form = _resolved_format(args)
    erasing = abs(args.control_angle - _ERASING_ANGLE["metrology"]) <= 1e-9

    if args.mode == "analytic":
        header = _analytic_header(
            "phase-est",
            {
                "n": args.n,
                "phi": args.phi,
                "control_angle": args.control_angle,
                "theta_points": len(thetas),
            },
        )
        rows = []
        for theta in thetas:
            setup = _from_flags(MetrologySetup, args.n, theta, args.phi, args.control_angle)
            variance = repr(phase_sensitivity(setup)) if erasing else ""
            branches = (parity_expectation(setup, outcome) for outcome in (+1, -1, None))
            rows.append((theta, *branches, variance))
        with _output_stream(args.output) as out:
            out.write(header + "\n")
            if form == "csv":
                out.write(
                    "theta,parity_given_up,parity_given_down,parity_unjoined,"
                    "phase_variance\n"
                )
                for theta, up, down, raw, variance in rows:
                    out.write(f"{theta!r},{up!r},{down!r},{raw!r},{variance}\n")
            else:
                out.write(
                    f"n={args.n} phi={args.phi:.6f} "
                    f"control_angle={args.control_angle:.6f}\n"
                )
                for theta, up, down, raw, variance in rows:
                    tail = f" variance={variance}" if variance else ""
                    out.write(
                        f"theta={theta:+.6f}: <P|up>={up:+.6f} "
                        f"<P|down>={down:+.6f} <P>={raw:+.6f}{tail}\n"
                    )
        return 0

    base_config = _config(args, experiment="metrology", n=args.n, theta=thetas[0])
    rows = []
    for index, theta in enumerate(thetas):
        seed = (args.seed + index) % 2**64
        config = _from_flags(replace, base_config, seed=seed, theta=theta)
        rows.append((theta, *sampler._parity_estimates(config)))

    header = sampler._header_line(
        {
            "config": sampler.config_to_dict(base_config),
            "generator": sampler.GENERATOR_ID,
            "seed_rule": "seed + theta point index",
            "theta_points": len(thetas),
            "version": __version__,
        }
    )
    with _output_stream(args.output) as out:
        out.write(header + "\n")
        if form == "csv":
            out.write(
                "theta,parity_given_up,stderr_up,parity_given_down,stderr_down,"
                "parity_unjoined,stderr_unjoined\n"
            )
            for row in rows:
                out.write(",".join(repr(float(v)) for v in row) + "\n")
        else:
            out.write(
                f"n={args.n} phi={args.phi:.6f} "
                f"control_angle={args.control_angle:.6f} shots={args.shots}\n"
            )
            for theta, up, eu, down, ed, raw, er in rows:
                out.write(
                    f"theta={theta:+.6f}: <P|up>={up:+.4f}+-{eu:.4f} "
                    f"<P|down>={down:+.4f}+-{ed:.4f} <P>={raw:+.4f}+-{er:.4f}\n"
                )
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from . import verify  # only this command needs the dense reference engine

    results = verify.run_all()
    with _output_stream(args.output) as out:
        for result in results:
            if result.passed:
                out.write(f"PASS {result.name}\n")
            else:
                out.write(f"FAIL {result.name}: {result.detail}\n")
        failed = sum(1 for r in results if not r.passed)
        out.write(f"{len(results) - failed} passed, {failed} failed\n")
    return 0 if failed == 0 else 1


_DISPATCH = {
    "hom": _run_hom,
    "chsh": _run_chsh,
    "phase-est": _run_phase_est,
    "verify": _run_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _DISPATCH[args.command](args)
    except SystemExit as exit_request:  # --help, --version or an argparse usage error
        code = exit_request.code
        return 0 if code is None else int(code)
    except UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout is gone, which is no library failure; point the
        # fd at devnull so the flush of what is left, in run() or at exit,
        # does not raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except Exception as error:  # noqa: BLE001 - single-line diagnostic contract
        print(f"error: {type(error).__name__}: {error}", file=sys.stderr)
        return 1


# the builtin modules that hashlib and hmac fall back to when OpenSSL's
# _hashlib cannot be imported, as on a CPython built without OpenSSL
_BUILTIN_HASHES = ("_md5", "_sha1", "_sha3", "_blake2") + (
    ("_sha2",) if sys.version_info >= (3, 12) else ("_sha256", "_sha512")
)


def _keep_openssl_out() -> None:
    """Make ``import _hashlib`` fail, if the builtin hash modules can stand in.

    ``numpy.random`` imports ``secrets``, which imports ``hmac`` and
    ``hashlib``, and those load OpenSSL's libcrypto through ``_hashlib``:
    about 3.4 MiB of a sampled run's peak RSS.  The CLI hashes nothing, and
    every generator gets its key, so the builtins serve those imports with
    no change to any output byte.  Without every builtin, ``hashlib`` would
    log an error for each hash it cannot build, so then nothing is blocked.
    """
    if "_hashlib" in sys.modules:
        return
    import importlib.util  # runpy has loaded it already under -m

    if all(importlib.util.find_spec(name) is not None for name in _BUILTIN_HASHES):
        # hashlib, hmac and secrets then load as on a build without OpenSSL
        sys.modules["_hashlib"] = None


def run() -> None:
    """Entry point of ``python -m qeraser.cli`` and of the console script.

    Not in main(), which library callers and tests run in process: only
    this process is the CLI's own, so only here is ``_hashlib`` blocked and
    interpreter teardown skipped.  Teardown frees nothing the kernel would
    not, and can raise the peak RSS by allocating fresh arenas.
    """
    _keep_openssl_out()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 1  # the reader of stdout is gone: exit 1, nothing on stderr
    with contextlib.suppress(OSError):
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
