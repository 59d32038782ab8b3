"""Resonant-pulse quantum logic on an Ising nuclear-spin chain.

Sparse perturbative propagation for long chains, an exact rotating-frame
solver for small ones, 2pik pulse design for the end-to-end controlled-NOT,
closed-form error budgets, and a classical-oscillator cross-check.
"""

__version__ = "0.1.0"

from .chain import (
    ChainConfig,
    basis_energy,
    flip_energy,
    resonant_frequency_table,
    state_from_string,
    state_to_string,
    transition_frequency,
)
from .design import (
    analytic_final_state,
    build_cn_protocol,
    cn_flip_sequence,
    perturb_protocol,
    rabi_for_2pik,
)
from .error_model import (
    ErrorBudget,
    RegionMap,
    epsilon,
    first_order_error,
    mu_base,
    mu_k,
    nonresonant_leak,
    sweep_threshold_regions,
    total_error,
)
from .exact_engine import (
    EigenSystem,
    build_rotating_hamiltonian,
    diagonalize,
    evolve_pulse_exact,
    interaction_to_rotating,
    rotating_to_interaction,
    run_protocol_exact,
)
from .exceptions import (
    AmbiguousTransitionError,
    ConfigError,
    IntegrationStepError,
    QubitCapError,
    SpinPulseError,
)
from .oscillator import run_protocol_classical
from .pulses import Protocol, Pulse
from .report import (
    BandSummary,
    PhaseDeviation,
    RunReport,
    UnwantedRecord,
    band_classify,
    excitation_profiles,
    phase_report,
)
from .sparse_engine import SparseState, apply_pulse, prune, run_protocol
