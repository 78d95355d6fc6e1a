#!/usr/bin/env python3
"""Conditional parity fringes of the entangled interferometer register.

For each register size in --sizes, emits the parity expectation of the
register conditioned on the erasing control readout (+1 branch), the
unjoined parity (flat at 0), and the phase variance of the conditioned
fringe, across a phase grid.  The fringe frequency grows linearly with
the register size while the variance stays at its 1/n^2 floor away from
the stationary points; both effects are the point of the figure.

Columns: theta, then per size n: parity_n<k>, variance_n<k>, then
parity_unjoined.  With --shots > 0 an empirical fringe for the largest
size is appended as (estimate, standard error), nan where no shot reads
C=up.
"""

import argparse
import math
import sys

import numpy as np

from qeraser.protocols import MetrologySetup, parity_expectation, phase_sensitivity
from qeraser.sampler import ExperimentConfig, _parity_estimates

ERASING = math.pi / 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=[1, 2, 6], help="register sizes"
    )
    parser.add_argument("--phi", type=float, default=0.0, help="preparation phase")
    parser.add_argument("--points", type=int, default=129, help="phase grid size")
    parser.add_argument("--shots", type=int, default=0, help="0 = analytic only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", help="CSV path (default stdout)")
    args = parser.parse_args()

    grid = np.linspace(0.0, 2.0 * math.pi, args.points)
    header = ["theta"]
    for n in args.sizes:
        header += [f"parity_n{n}", f"variance_n{n}"]
    header.append("parity_unjoined")
    if args.shots > 0:
        header += [f"parity_n{max(args.sizes)}_sampled", "stderr"]

    lines = [",".join(header)]
    for index, theta in enumerate(grid):
        theta = float(theta)
        row = [repr(theta)]
        for n in args.sizes:
            setup = MetrologySetup(n, theta, args.phi, ERASING)
            row.append(repr(parity_expectation(setup, +1)))
            row.append(repr(float(phase_sensitivity(setup))))
        largest = MetrologySetup(max(args.sizes), theta, args.phi, ERASING)
        row.append(repr(parity_expectation(largest, None)))
        if args.shots > 0:
            config = ExperimentConfig(
                experiment="metrology",
                shots=args.shots,
                seed=(args.seed + index) % 2**64,
                phi=args.phi,
                n=max(args.sizes),
                theta=theta,
                control_basis_angle=ERASING,
            )
            mean, error = _parity_estimates(config)[:2]  # the C=up set; nan when empty
            row += [repr(mean), repr(error)]
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
