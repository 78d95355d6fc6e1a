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
    ghz_decomposition_residual,
    hom_table,
    optimal_chsh_angles,
    parity_expectation,
    phase_sensitivity,
)
from .qubits import (
    DensityMatrix,
    StateVector,
    apply_single_qubit,
    bell_relative_state,
    expectation,
    ghz_state,
    measure_qubit,
    partial_trace,
    project_qubit,
    tripartite_spin_state,
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
    empirical_table,
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
    "ghz_decomposition_residual",
    "hom_table",
    "optimal_chsh_angles",
    "parity_expectation",
    "phase_sensitivity",
    "DensityMatrix",
    "StateVector",
    "apply_single_qubit",
    "bell_relative_state",
    "expectation",
    "ghz_state",
    "measure_qubit",
    "partial_trace",
    "project_qubit",
    "tripartite_spin_state",
    "ControlStream",
    "EmpiricalTable",
    "ExperimentConfig",
    "JoinError",
    "JoinedStreams",
    "SystemStream",
    "chsh_statistic",
    "classical_mixture_run",
    "delayed_join",
    "empirical_table",
    "run_experiment",
]
