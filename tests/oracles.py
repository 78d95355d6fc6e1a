"""Frozen reference formulas the implementation is tested against.

Everything here is written directly from the closed forms, independent of
the package's derivation routes (operator algebra, Born projectors, state
vectors), so agreement is a two-route check rather than a tautology.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
TSIRELSON = 2.0 * math.sqrt(2.0)

# Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
# SC'11): the Random123 round multipliers and the Weyl increments of the key
PHILOX_MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_WEYL_KEYS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORD = (1 << 64) - 1


def philox_shot_words(seed: int, shot: int) -> tuple[int, int, int, int]:
    """The four raw 64-bit words of one shot, in plain Python.

    The key is ``(seed, 0)``.  Shot ``i`` is Random123 counter ``i + 1``,
    a 256-bit integer, because numpy's Philox increments its counter before
    it generates a block.
    """
    counter = shot + 1
    x = [(counter >> (64 * k)) & _WORD for k in range(4)]
    k0, k1 = seed, 0
    for _ in range(10):
        p0 = PHILOX_MULTIPLIERS[0] * x[0]
        p1 = PHILOX_MULTIPLIERS[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & _WORD, (p0 >> 64) ^ x[3] ^ k1, p0 & _WORD]
        k0 = (k0 + PHILOX_WEYL_KEYS[0]) & _WORD
        k1 = (k1 + PHILOX_WEYL_KEYS[1]) & _WORD
    return x[0], x[1], x[2], x[3]


def shot_uniform(word: int) -> float:
    """The uniform in [0, 1) that the sampler reads from one raw word."""
    return (word >> 11) * 2.0**-53


def hom_conditioned_column(phi_prime: float) -> np.ndarray:
    """Joint (AB, AA, BB) probabilities for one control branch."""
    sin2 = math.sin(phi_prime / 2.0) ** 2
    cos2 = math.cos(phi_prime / 2.0) ** 2
    return np.array([0.5 * sin2, 0.25 * cos2, 0.25 * cos2])


def hom_distinguishable_column() -> np.ndarray:
    return np.array([0.25, 0.125, 0.125])


def hom_phase_shift(statistics: str) -> float:
    """phi' = phi for bosons and phi + pi for fermions."""
    return {"boson": 0.0, "fermion": math.pi}[statistics]


def chsh_correlator(theta_a: float, theta_b: float, phi: float, branch: int) -> float:
    """Conditional <A x B> on the branch heralded by control outcome +-1."""
    return branch * math.cos(theta_a - theta_b + phi)


def chsh_readout_correlator(
    theta_a: float, theta_b: float, phi: float, control_angle: float, branch: int
) -> float:
    """<A x B> on the set joined on control outcome +-1 read at ``control_angle`` = a.

    With c = cos(a/2) and s = sin(a/2), the +1 readout leaves the pair in
    c|pair+> + s|pair->, the -1 readout in -s|pair+> + c|pair->, each with
    weight 1/2.  The |pair+-> correlators are +-cos(theta_a - theta_b + phi)
    and the real parts of their cross terms vanish, so the branches read
    +-(c**2 - s**2) cos(theta_a - theta_b + phi).
    """
    return branch * math.cos(control_angle) * math.cos(theta_a - theta_b + phi)


def chsh_joint_probability(
    a: int, b: int, theta_a: float, theta_b: float, phi: float, branch: int
) -> float:
    """Joint P(a, b, control branch) for one analyzer setting pair."""
    return 0.125 * (1.0 + branch * a * b * math.cos(theta_a - theta_b + phi))


def chsh_combination(angles: tuple[float, float, float, float], phi: float, branch: int) -> float:
    a0, a1, b0, b1 = angles
    return abs(
        chsh_correlator(a0, b0, phi, branch)
        + chsh_correlator(a0, b1, phi, branch)
        + chsh_correlator(a1, b0, phi, branch)
        - chsh_correlator(a1, b1, phi, branch)
    )


def grid_chsh_maximum(phi: float, step: float = math.pi / 128) -> float:
    """Exhaustive maximum of the CHSH combination over an angle grid.

    Uses the three independent angle differences (u, v, w); the fourth
    correlator angle difference is v + w - u.  Chunked over u to keep the
    memory footprint flat.
    """
    grid = np.arange(0.0, TWO_PI, step)
    v = grid[None, :, None]
    w = grid[None, None, :]
    partial = np.cos(v + phi) + np.cos(w + phi)
    v_plus_w = v + w
    best = 0.0
    for u in grid:
        values = np.abs(math.cos(u + phi) + partial - np.cos(v_plus_w - u + phi))
        best = max(best, float(values.max()))
    return best


def parity_fringe(n: int, theta: float, phi: float, branch: int) -> float:
    """Conditional register parity on the branch heralded by +-1."""
    return branch * (-1.0) ** n * math.cos(n * theta + phi)


def heisenberg_variance(n: int) -> float:
    return 1.0 / n**2


def pair_marginal_density() -> np.ndarray:
    """The phi-independent two-spin marginal: equal classical mixture."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0b01, 0b01] = 0.5
    rho[0b10, 0b10] = 0.5
    return rho


def numpy_parity_branch_statistics(
    n: int, theta: float, phi: float, control_angle: float
) -> dict[int, tuple[float, float]]:
    """``protocols.parity_branch_statistics`` as it was written with numpy scalars.

    The package now evolves the two GHZ amplitudes with Python complex
    numbers so analytic phase estimation never imports numpy; this is the
    route it must reproduce bit for bit.
    """
    low, high = 1.0 / math.sqrt(2.0), np.exp(1.0j * phi) / math.sqrt(2.0)
    shift = np.array(
        [[np.exp(-0.5j * theta), 0.0], [0.0, np.exp(0.5j * theta)]], dtype=complex
    )
    for _ in range(n):
        low, high = low * shift[0, 0], high * shift[1, 1]
    c, s = math.cos(-control_angle / 2.0), math.sin(-control_angle / 2.0)
    rotation = np.array([[c, -s], [s, c]], dtype=complex)
    sign = (-1.0) ** n
    branches = {}
    for outcome, row in ((+1, rotation[0]), (-1, rotation[1])):
        alpha, beta = complex(row[0] * low), complex(row[1] * high)
        probability = abs(alpha) ** 2 + abs(beta) ** 2
        parity = sign * 2.0 * (alpha.conjugate() * beta).real / probability
        branches[outcome] = (probability, parity)
    return branches


def numpy_theta_scan(start: float, stop: float, count: int, degrees: bool = False) -> np.ndarray:
    """Phase points of ``--theta-scan START:STOP:COUNT`` as numpy built them."""
    points = np.linspace(start, stop, count, endpoint=False)
    return points * (math.pi / 180.0) if degrees else points


def _csv_field(value) -> str:
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def stream_csv(records, header: str) -> str:
    """The CSV text of a stream, formatted shot by shot with one f-string each.

    ``header`` is the metadata line; a stream with a ``basis_angle`` is a
    control stream, any other one a system stream.
    """
    text = header + "\n"
    if len(records) == 0:
        return text
    shots = records.shot_index.tolist()
    if hasattr(records, "basis_angle"):
        angle = _csv_field(records.basis_angle)
        text += "shot_index,control_outcome,basis_angle\n"
        return text + "".join(
            f"{shot},{value:+d},{angle}\n" for shot, value in zip(shots, records.outcome.tolist())
        )
    keys = sorted(records.settings[0])
    text += "shot_index,experiment,outcome," + ",".join(keys) + "\n"
    return text + "".join(
        f"{shot},{records.experiment},{records.labels[outcome]},"
        f"{','.join(_csv_field(records.settings[row][k]) for k in keys)}\n"
        for shot, outcome, row in zip(
            shots, records.outcome.tolist(), records.setting_row.tolist()
        )
    )
