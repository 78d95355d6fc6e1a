"""Output checks for the benchmark's ``qeraser`` commands.

Every check returns a list of problems; an empty list means the output
is correct.  Sampled statistics must lie within ``SIGMAS`` standard
errors of a reference: the analytic reference the command prints itself,
or a closed form written here.  Analytic rows are compared with closed
forms to a fixed tolerance, not by digest, so that an engine rewrite that
differs only in the last ulp still passes.  The closed forms are written
out here and share no code with the library or its tests.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from typing import Iterator, TextIO

SIGMAS = 5.0
# printed statistics are rounded to 4 decimals (sampled) or 6 (analytic)
PRINT_SLACK = 1e-4
ANALYTIC_TOL = 1e-10
GENERATOR_ID = "philox4x64/block-per-shot/v1"

HOM_PATTERNS = ("AB", "AA", "BB")
_SIGN = {"u": 1, "d": -1}
_CHSH_TERMS = (((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((1, 1), -1))
_CELL = re.compile(r"([-+]?\d+\.\d+) \+- (\d+\.\d+)")


# ----------------------------------------------------------- closed forms


def scan_points(start: float, stop: float, count: int) -> list[float]:
    """Theta points of ``--theta-scan START:STOP:COUNT`` (STOP exclusive)."""
    step = (stop - start) / count
    return [start + k * step for k in range(count)]


def hom_boson_joint(phi: float) -> dict[tuple[str, int], float]:
    """Joint P(pattern, control) for bosons behind the splitter.

    The control outcome +1 heralds the pair with relative phase ``phi``,
    -1 the one with ``phi + pi``; each branch has weight 1/2.
    """
    table = {}
    for control, phase in ((+1, phi), (-1, phi + math.pi)):
        bunched = 0.25 * math.cos(phase / 2.0) ** 2
        table["AB", control] = 0.5 * math.sin(phase / 2.0) ** 2
        table["AA", control] = bunched
        table["BB", control] = bunched
    return table


def chsh_combination(settings: list[float], phi: float, branch: int) -> float:
    """Signed E00 + E01 + E10 - E11 with E = branch * cos(a - b + phi)."""
    a, b = settings[:2], settings[2:]
    return sum(
        sign * branch * math.cos(a[i] - b[j] + phi) for (i, j), sign in _CHSH_TERMS
    )


def parity_fringe(n: int, theta: float, phi: float, control_angle: float) -> float:
    """Register x-parity given control +1: (-1)^n sin(angle) cos(n theta + phi).

    The control branch -1 carries the negative, and the unjoined parity
    is 0.  At the erasing angle pi/2 this is the full fringe; at 0 (the
    which-way readout) it vanishes.
    """
    return (-1.0) ** n * math.sin(control_angle) * math.cos(n * theta + phi)


# ----------------------------------------------------------------- digests


def body_digest(path: Path) -> str:
    """SHA-256 of a file after its ``# {...}`` metadata line.

    The metadata line carries the code version, so it is left out of the
    byte-identity contract.  The file is read in blocks: the parent's
    peak RSS is inherited by every child it spawns later, so the
    benchmark must never hold a whole output in memory.
    """
    digest = hashlib.sha256()
    with path.open("rb") as stream:
        if not stream.readline().startswith(b"# {"):
            return "missing-metadata-line"
        for block in iter(lambda: stream.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ------------------------------------------------------- helper predicates


def _metadata(line: str) -> dict:
    if not line.startswith("# "):
        raise ValueError(f"no metadata line: {line[:60]!r}")
    return json.loads(line[2:])


def _within(value: float, reference: float, sigma: float, what: str) -> list[str]:
    if not math.isfinite(value) or abs(value - reference) > SIGMAS * sigma + PRINT_SLACK:
        return [f"{what}: {value!r} vs reference {reference!r} (sigma {sigma:.3g})"]
    return []


def _binomial_sigma(p: float, total: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / total)


def _table_block(lines: list[str], title: str) -> tuple[list[str], int, dict]:
    """Columns, total and {row: [(value, error), ...]} of an empirical table."""
    start = lines.index(title) + 1
    columns = lines[start].split()[1:]
    total = int(re.fullmatch(r"\(total shots: (\d+)\)", lines[start + 1]).group(1))
    rows = {}
    for line in lines[start + 2 : start + 2 + len(HOM_PATTERNS)]:
        label = line.split()[0]
        rows[label] = [(float(v), float(e)) for v, e in _CELL.findall(line)]
    return columns, total, rows


# ------------------------------------------------------------ sampled runs


def hom_summary(text: str, shots: int) -> list[str]:
    """``hom --format summary``: printed reference and both empirical tables."""
    lines = text.splitlines()
    config = _metadata(lines[0])["config"]
    expected = hom_boson_joint(config["phi"])
    problems = []
    start = lines.index("reference (analytic, this control basis):") + 2
    reference = {}
    for line in lines[start : start + len(HOM_PATTERNS)]:
        label, up, down, both = line.split()
        reference[label] = {+1: float(up), -1: float(down), None: float(both)}
        for control in (+1, -1):
            if abs(reference[label][control] - expected[label, control]) > 1e-6:
                problems.append(f"reference {label} C={control:+d} is not the closed form")
    for title, controls in (
        ("joined empirical table:", (+1, -1)),
        ("unjoined empirical table:", (None,)),
    ):
        columns, total, rows = _table_block(lines, title)
        if total != shots or len(columns) != len(controls):
            problems.append(f"{title} has {total} shots in columns {columns}")
            continue
        for label in HOM_PATTERNS:
            for (value, _), control in zip(rows[label], controls):
                p = reference[label][control]
                problems += _within(
                    value, p, _binomial_sigma(p, total), f"{title} {label} C={control}"
                )
    return problems


def chsh_summary(text: str, shots: int) -> list[str]:
    """``chsh --format summary``: printed analytic S and the three empirical S."""
    lines = text.splitlines()
    config = _metadata(lines[0])["config"]
    settings, phi = config["settings"], config["phi"]
    body = "\n".join(lines[1:])
    analytic = re.search(r"analytic S: up=(\S+) down=(\S+) unjoined=(\S+)", body)
    problems = []
    for printed, branch in zip(analytic.groups(), (+1, -1, 0)):
        closed = abs(chsh_combination(settings, phi, branch)) if branch else 0.0
        if abs(float(printed) - closed) > 1e-5:
            problems.append(f"analytic S {printed} is not the closed form {closed!r}")
    counted = 0
    for label, branch in (("joined C=up", +1), ("joined C=down", -1), ("unjoined", 0)):
        match = re.search(
            r"empirical S \(" + label + r"\):\s+([-+]\d+\.\d+) \+- (\d+\.\d+) \((\d+) shots\)",
            body,
        )
        value, error, count = float(match[1]), float(match[2]), int(match[3])
        closed = chsh_combination(settings, phi, branch) if branch else 0.0
        problems += _within(value, closed, error, f"S ({label})")
        counted += count if branch else 0
        if not branch and count != shots:
            problems.append(f"unjoined S counts {count} shots, wanted {shots}")
    if counted != shots:
        problems.append(f"joined branches hold {counted} shots, wanted {shots}")
    return problems


def phase_summary(
    text: str, shots: int, n: int, thetas: list[float], control_angle: float
) -> list[str]:
    """Sampled ``phase-est --format summary``: one fringe line per theta."""
    lines = text.splitlines()
    phi = _metadata(lines[0])["config"]["phi"]
    rows = [
        re.fullmatch(
            r"theta=\S+: <P\|up>=(\S+)\+-(\S+) <P\|down>=(\S+)\+-(\S+) <P>=(\S+)\+-(\S+)",
            line,
        )
        for line in lines[2:]
    ]
    if len(rows) != len(thetas) or None in rows:
        return [f"expected {len(thetas)} fringe lines, got {len(lines) - 2}"]
    problems = []
    for theta, row in zip(thetas, rows):
        up = parity_fringe(n, theta, phi, control_angle)
        for (value, error), reference, weight in zip(
            ((row[1], row[2]), (row[3], row[4]), (row[5], row[6])),
            (up, -up, 0.0),
            (shots / 2, shots / 2, shots),
        ):
            sigma = max(float(error), math.sqrt(max(1.0 - reference**2, 0.0) / weight))
            problems += _within(float(value), reference, sigma, f"parity at theta={theta}")
    return problems


def _stream_rows(stream: TextIO) -> Iterator[tuple[str, str]]:
    """Shot index and remaining fields of each row of a CSV stream."""
    for line in stream:
        if not line.endswith("\n"):
            raise ValueError(f"{Path(stream.name).name} does not end with a newline")
        index, _, fields = line[:-1].partition(",")
        yield index, fields


def _joined_streams(
    system: Path, control: Path, shots: int, seed: int, problems: list[str]
) -> tuple[dict, Counter] | None:
    """Join the two streams by shot index; count (system fields, control).

    Both files are read row by row, never whole (see ``body_digest``).
    """
    with system.open(encoding="utf-8") as system_rows, control.open(
        encoding="utf-8"
    ) as control_rows:
        meta_s = _metadata(system_rows.readline())
        meta_c = _metadata(control_rows.readline())
        config = meta_s["config"]
        if meta_s != meta_c:
            problems.append("system and control streams carry different metadata")
        if meta_s["generator"] != GENERATOR_ID:
            problems.append(f"generator {meta_s['generator']!r}")
        if config["shots"] != shots or config["seed"] != seed:
            problems.append(f"metadata names shots {config['shots']} seed {config['seed']}")
        system_rows.readline()  # column headers
        control_rows.readline()
        counts: Counter = Counter()
        shot = 0
        for (index_s, fields_s), (index_c, fields_c) in zip_longest(
            _stream_rows(system_rows), _stream_rows(control_rows), fillvalue=(None, None)
        ):
            if index_s != str(shot) or index_c != str(shot):
                break
            counts[fields_s, fields_c.split(",", 1)[0]] += 1
            shot += 1
        else:
            if shot == shots:
                return config, counts
    problems.append("streams do not both hold shots 0..N-1 in order")
    return None


def hom_streams(system: Path, control: Path, shots: int, seed: int) -> list[str]:
    """``hom --format csv``: joined pattern/control frequencies."""
    problems: list[str] = []
    joined = _joined_streams(system, control, shots, seed, problems)
    if joined is None:
        return problems
    config, counts = joined
    expected = hom_boson_joint(config["phi"])
    observed = Counter()
    for (fields, outcome), count in counts.items():
        _experiment, pattern, _phi, _statistics = fields.split(",")
        observed[pattern, int(outcome)] += count
    if set(observed) - set(expected):
        problems.append(f"unexpected cells {sorted(set(observed) - set(expected))}")
    for cell, p in expected.items():
        problems += _within(
            observed[cell] / shots, p, _binomial_sigma(p, shots), f"hom cell {cell}"
        )
    return problems


def chsh_streams(system: Path, control: Path, shots: int, seed: int) -> list[str]:
    """``chsh --format csv``: CHSH combination of each joined branch."""
    problems: list[str] = []
    joined = _joined_streams(system, control, shots, seed, problems)
    if joined is None:
        return problems
    config, counts = joined
    settings, phi = config["settings"], config["phi"]
    sums: Counter = Counter()
    totals: Counter = Counter()
    for (fields, outcome), count in counts.items():
        _exp, pair, _phi, i, j, theta_a, theta_b = fields.split(",")
        i, j = int(i), int(j)
        if float(theta_a) != settings[i] or float(theta_b) != settings[2 + j]:
            problems.append(f"row angles {theta_a},{theta_b} differ from setting ({i},{j})")
        product = _SIGN[pair[0]] * _SIGN[pair[1]] * count
        for branch in (int(outcome), 0):
            sums[branch, i, j] += product
            totals[branch, i, j] += count
    for branch in (+1, -1, 0):
        value = variance = 0.0
        for (i, j), sign in _CHSH_TERMS:
            count = totals[branch, i, j]
            if count == 0:
                return problems + [f"branch {branch} has no shots at pair ({i},{j})"]
            correlator = sums[branch, i, j] / count
            value += sign * correlator
            variance += (1.0 - correlator**2) / count
        closed = chsh_combination(settings, phi, branch) if branch else 0.0
        problems += _within(value, closed, math.sqrt(variance), f"S (branch {branch})")
    return problems


# ------------------------------------------------------------ analytic runs


def phase_analytic(
    text: str, n: int, thetas: list[float], control_angle: float
) -> list[str]:
    """Analytic ``phase-est`` CSV rows against the closed-form fringe.

    The variance column (erasing readout only) must satisfy
    variance * slope^2 = 1 - fringe^2 = sin^2(n theta + phi), and read
    ``inf`` exactly where the slope is below 1e-9.
    """
    lines = text.splitlines()
    phi = _metadata(lines[0])["params"]["phi"]
    rows = [line.split(",") for line in lines[2:]]
    if len(rows) != len(thetas) or any(len(row) != 5 for row in rows):
        return [f"expected {len(thetas)} rows of 5 fields, got {len(rows)}"]
    erasing = abs(control_angle - math.pi / 2) <= 1e-9
    problems = []
    for theta, row in zip(thetas, rows):
        value, up, down, unjoined = (float(v) for v in row[:4])
        fringe = parity_fringe(n, theta, phi, control_angle)
        for got, want, name in ((value, theta, "theta"), (up, fringe, "up"),
                                (down, -fringe, "down"), (unjoined, 0.0, "unjoined")):
            if not abs(got - want) <= ANALYTIC_TOL:
                problems.append(f"{name} at theta={theta}: {got!r} vs {want!r}")
        if not erasing:
            if row[4] != "":
                problems.append(f"variance {row[4]!r} printed for a which-way readout")
            continue
        slope = -((-1.0) ** n) * n * math.sin(n * theta + phi)
        variance = float(row[4])
        if abs(slope) < 1e-9:
            if variance != math.inf:
                problems.append(f"variance at stationary theta={theta}: {variance!r}")
        elif not abs(variance * slope**2 - math.sin(n * theta + phi) ** 2) <= 1e-9:
            problems.append(f"variance at theta={theta}: {variance!r}")
    return problems
