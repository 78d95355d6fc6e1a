#!/usr/bin/env python3
"""Coincidence rate behind the splitter versus the preparation phase.

Produces the data for the two-particle interference figure: the
probability of one detection per output port, conditioned on the control
spin found up, for all three exchange statistics, plus the unjoined rate
that an observer without the control record sees.

Columns: phi, then per statistics the conditional rate P(AB | C=up)
(joint probability divided by the 1/2 branch weight), then ab_unjoined.
With --shots > 0 an empirical column pair (estimate, standard error) is
appended for bosons, sampled with one seeded run per phase point: the
rate is the C=up AB count over the C=up shots, nan when there are none.
"""

import argparse
import math
import sys

import numpy as np

from qeraser.protocols import HOM_OUTCOMES, hom_table
from qeraser.sampler import ExperimentConfig, _summed_counts

STATISTICS = ("boson", "fermion", "distinguishable")


def conditional_ab(phi: float, statistics: str) -> float:
    table = hom_table(phi, statistics)
    return table.value("AB", "C=up") / 0.5


def sampled_ab(phi: float, shots: int, seed: int) -> tuple[float, float]:
    config = ExperimentConfig(experiment="hom", shots=shots, seed=seed, phi=phi)
    up = _summed_counts(config)[:, 0].tolist()  # C=up count per outcome
    up_shots = sum(up)
    if up_shots == 0:
        return math.nan, math.nan
    rate = up[HOM_OUTCOMES.index("AB")] / up_shots
    return rate, math.sqrt(rate * (1.0 - rate) / up_shots)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=65, help="phase grid size")
    parser.add_argument("--shots", type=int, default=0, help="0 = analytic only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", help="CSV path (default stdout)")
    args = parser.parse_args()

    grid = np.linspace(0.0, 2.0 * math.pi, args.points)
    header = ["phi"] + [f"ab_given_up_{s}" for s in STATISTICS] + ["ab_unjoined"]
    if args.shots > 0:
        header += ["ab_given_up_boson_sampled", "stderr"]

    lines = [",".join(header)]
    for index, phi in enumerate(grid):
        row = [repr(float(phi))]
        row += [repr(conditional_ab(float(phi), s)) for s in STATISTICS]
        # the unjoined rate is phase-flat; emitted to make that visible
        row.append(repr(hom_table(float(phi), "boson").value("AB", "C=?")))
        if args.shots > 0:
            rate, error = sampled_ab(
                float(phi), args.shots, (args.seed + index) % 2**64
            )
            row += [repr(rate), repr(error)]
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
