"""Delayed-choice quantum eraser toolkit.

Simulates conditional statistics of entangled registers whose system part
is measured long before a control particle: two-particle interference
behind a splitter, CHSH correlations of a spin pair, and GHZ phase
estimation, each conditioned on a control readout that is only joined to
the system data in post-processing.
"""

from ._version import __version__
from .fock import Statistics, beam_splitter_substitute, event_probability, hom_input_state
from .protocols import (
    ChshSettings,
    MetrologySetup,
    ProbabilityTable,
    chsh_table,
    chsh_value,
    hom_table,
    optimal_chsh_angles,
    parity_expectation,
    phase_sensitivity,
)
from .sampler import (
    ControlStream,
    EmpiricalTable,
    ExperimentConfig,
    JoinError,
    JoinedStreams,
    SystemStream,
    chsh_statistic,
    classical_mixture_run,
    delayed_join,
    empirical_parity,
    empirical_table,
    joint_counts,
    run_counts,
    run_experiment,
)

__all__ = [
    "__version__",
    "Statistics",
    "beam_splitter_substitute",
    "event_probability",
    "hom_input_state",
    "ChshSettings",
    "MetrologySetup",
    "ProbabilityTable",
    "chsh_table",
    "chsh_value",
    "hom_table",
    "optimal_chsh_angles",
    "parity_expectation",
    "phase_sensitivity",
    "ControlStream",
    "EmpiricalTable",
    "ExperimentConfig",
    "JoinError",
    "JoinedStreams",
    "SystemStream",
    "chsh_statistic",
    "classical_mixture_run",
    "delayed_join",
    "empirical_parity",
    "empirical_table",
    "joint_counts",
    "run_counts",
    "run_experiment",
]
