#!/usr/bin/env python3
"""Conditional CHSH value versus the preparation phase.

Two curves: the value reached when the analyzer settings are re-optimized
at every phase (flat at 2*sqrt(2): the phase only relabels the optimum),
and the value at settings frozen at their phase-zero optimum, which decays
as the fixed settings dephase, crossing the classical bound |S| = 2.  The
unjoined ensemble sits at 0 everywhere and is included for reference.

Columns: phi, s_optimized, s_frozen_settings, s_unjoined, classical_bound,
quantum_bound.  With --shots > 0 the frozen-settings point is also sampled
(joined C=up branch) and (estimate, standard error) columns are appended,
nan where some setting pair has no C=up shot.
"""

import argparse
import math
import sys

import numpy as np

from qeraser.protocols import TSIRELSON_BOUND, chsh_value, optimal_chsh_angles
from qeraser.sampler import ExperimentConfig, _chsh_from_sums, _summed_counts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=33, help="phase grid size")
    parser.add_argument("--shots", type=int, default=0, help="0 = analytic only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", help="CSV path (default stdout)")
    args = parser.parse_args()

    frozen = optimal_chsh_angles(0.0)
    grid = np.linspace(0.0, 2.0 * math.pi, args.points)
    header = [
        "phi",
        "s_optimized",
        "s_frozen_settings",
        "s_unjoined",
        "classical_bound",
        "quantum_bound",
    ]
    if args.shots > 0:
        header += ["s_frozen_sampled", "stderr"]

    lines = [",".join(header)]
    for index, phi in enumerate(grid):
        phi = float(phi)
        best = optimal_chsh_angles(phi)
        row = [
            repr(phi),
            repr(chsh_value(best, phi, "up")),
            repr(chsh_value(frozen, phi, "up")),
            repr(chsh_value(frozen, phi, "?")),
            repr(2.0),
            repr(TSIRELSON_BOUND),
        ]
        if args.shots > 0:
            config = ExperimentConfig(
                experiment="chsh",
                shots=args.shots,
                seed=(args.seed + index) % 2**64,
                phi=phi,
                settings=frozen,
            )
            up = _summed_counts(config)[0]  # C=up counts and sums per pair
            value, error = _chsh_from_sums(up) if up[0].all() else (math.nan, math.nan)
            row += [repr(abs(value)), repr(error)]
        lines.append(",".join(row))

    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
