"""Exact small-chain solver via the co-rotating frame of each pulse.

In coordinates rotating at the drive frequency, a rectangular pulse has a
time-independent Hamiltonian: diagonal entries E_p - chi_p with
chi_p = -(freq/2) * sum_k s_k^p, and a constant -rabi/2 between every pair
of basis states that differ by one spin flip.  One dense symmetric
eigendecomposition per distinct pulse then evolves the amplitudes exactly,
which makes this engine the oracle for the sparse perturbative one.
Conversions between rotating-frame amplitudes A_p and interaction-picture
amplitudes C_p are pure phases, A_p = exp(-i * (E_p - chi_p) * t) * C_p,
applied at the absolute start and end time of each pulse.

Memory for the dense matrices is the binding constraint; the qubit cap is
a tunable, not a physical claim.  A run holds one Hamiltonian build, the
LAPACK workspace of its eigendecomposition, and only the eigensystems that a
later pulse still uses: each is freed after the last pulse that needs it, so
a controlled-NOT protocol never holds more than two.  At d = 2^N = 1024 an
eigensystem is 8 MB; the N=11 controlled-NOT run (spacing 100, base 1000,
k=8: 20 pulses, 12 of them distinct) peaks at ~235 MB.  Propagation
multiplies the real eigenvectors by the real and imaginary parts of the
amplitudes and never makes a complex copy of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .chain import ChainConfig
from .exceptions import QubitCapError
from .pulses import Protocol, Pulse, as_protocol
from .report import RunReport, make_report, reporting_cutoff, run_pulses
from .sparse_engine import SparseState

DEFAULT_QUBIT_CAP = 14


def check_qubit_cap(cfg: ChainConfig, cap: int, engine: str) -> None:
    """Refuse a chain of more than ``cap`` qubits; ``engine`` names the dense engine."""
    if cfg.n_qubits > cap:
        raise QubitCapError(
            f"N={cfg.n_qubits} exceeds the {engine} engine's cap {cap}; "
            "raise the cap explicitly if you have the memory for it"
        )


def _spin_signs(cfg: ChainConfig) -> np.ndarray:
    """s_k = +1 (bit 0) or -1 (bit 1) of every basis state, shape (2^N, N)."""
    n = cfg.n_qubits
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    return 1 - 2 * bits


def h0_energies(cfg: ChainConfig) -> np.ndarray:
    """Static-chain energies of all 2^N basis states, indexed by bit value."""
    return _diagonal_terms(cfg)[0]


def _diagonal_terms(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """``h0_energies`` and the spin sums sum_k s_k, from one spin-sign table."""
    sigma = _spin_signs(cfg)
    omegas = cfg.base_larmor + cfg.larmor_spacing * np.arange(cfg.n_qubits, dtype=np.float64)
    zeeman = sigma @ omegas
    bonds = (sigma[:, :-1] * sigma[:, 1:]).sum(axis=1)
    return -0.5 * zeeman - 0.5 * cfg.coupling * bonds, sigma.sum(axis=1)


def rotating_diagonal(freq: float, cfg: ChainConfig) -> np.ndarray:
    """Diagonal of the rotating-frame Hamiltonian for a drive at ``freq``."""
    energies, spin_sums = _diagonal_terms(cfg)
    return energies + 0.5 * freq * spin_sums  # E_p - chi_p


@dataclass(frozen=True)
class EigenSystem:
    values: np.ndarray
    vectors: np.ndarray  # column q is the eigenvector for values[q]


def build_rotating_hamiltonian(
    pulse: Pulse, cfg: ChainConfig, cap: int = DEFAULT_QUBIT_CAP
) -> np.ndarray:
    """Dense rotating-frame Hamiltonian of one pulse.

    Real symmetric; every row has exactly N off-diagonal entries -rabi/2,
    one per single-spin flip.
    """
    check_qubit_cap(cfg, cap, "exact")
    dim = 1 << cfg.n_qubits
    h = np.zeros((dim, dim), dtype=np.float64)
    np.fill_diagonal(h, rotating_diagonal(pulse.frequency, cfg))
    idx = np.arange(dim)
    for k in range(cfg.n_qubits):
        h[idx, idx ^ (1 << k)] = -0.5 * pulse.rabi
    return h


def diagonalize(ham: np.ndarray) -> EigenSystem:
    values, vectors = np.linalg.eigh(ham)
    return EigenSystem(values=values, vectors=vectors)


def evolve_pulse_exact(
    amps: np.ndarray, eigensystem: EigenSystem, tau: float
) -> np.ndarray:
    """Evolve rotating-frame amplitudes for a time ``tau`` under one pulse.

    Computes V diag(exp(-i*values*tau)) V^T amps with V real, as real
    matrix-vector products on the real and imaginary parts, so V is never
    promoted to a complex copy.
    """
    v = eigensystem.vectors
    modes = v.T @ amps.real + 1j * (v.T @ amps.imag)
    modes *= np.exp(-1j * eigensystem.values * tau)
    return v @ modes.real + 1j * (v @ modes.imag)


def interaction_to_rotating(
    c_amps: np.ndarray, pulse: Pulse, cfg: ChainConfig, t: float
) -> np.ndarray:
    """A_p = exp(-i * (E_p - chi_p) * t) * C_p at absolute time t."""
    return np.exp(-1j * rotating_diagonal(pulse.frequency, cfg) * t) * c_amps


def rotating_to_interaction(
    a_amps: np.ndarray, pulse: Pulse, cfg: ChainConfig, t: float
) -> np.ndarray:
    return np.exp(1j * rotating_diagonal(pulse.frequency, cfg) * t) * a_amps


def dense_amplitudes(
    initial: SparseState | dict[int, complex] | np.ndarray, dim: int
) -> np.ndarray:
    """Initial state of a dense engine as a fresh length-``dim`` vector."""
    if isinstance(initial, SparseState):
        initial = initial.amps
    if isinstance(initial, dict):
        c = np.zeros(dim, dtype=np.complex128)
        for s, amp in initial.items():
            if not 0 <= s < dim:
                raise ValueError(f"state {s} does not fit in {dim.bit_length() - 1} bits")
            c[s] = amp
        return c
    c = np.asarray(initial, dtype=np.complex128).copy()
    if c.shape != (dim,):
        raise ValueError(f"initial vector must have length {dim}")
    return c


def dense_view(
    re: np.ndarray, im: np.ndarray, threshold: float
) -> tuple[dict[int, complex], float]:
    """Amplitudes at or above ``threshold`` and the probability below it,
    summed from the dropped entries themselves: a difference of two sums
    near one would be good only to ~2.2e-16, and could be negative."""
    probs = re**2 + im**2
    below = probs < threshold
    keep = np.flatnonzero(~below)
    amps = dict(zip(keep.tolist(), map(complex, re[keep].tolist(), im[keep].tolist())))
    return amps, float(probs[below].sum())


def run_protocol_exact(
    initial: SparseState | dict[int, complex] | np.ndarray,
    protocol: Protocol | list[Pulse] | tuple[Pulse, ...],
    cfg: ChainConfig,
    *,
    cutoff: float | None = None,
    trace: bool = False,
    doubled: bool = False,
    seed: int | None = None,
    cap: int = DEFAULT_QUBIT_CAP,
) -> RunReport:
    """Exact run: per pulse, convert to the rotating frame at the pulse start
    time, evolve with the diagonalized Hamiltonian, and convert back.

    Produces the same report shape as the sparse engine.  ``leaked`` here is
    the probability left below the reporting cutoff, not a dynamical loss:
    the evolution itself conserves the norm.  Each distinct (frequency, rabi)
    is diagonalized once, at its first pulse, and its eigensystem is dropped
    after its last pulse.  Memory is one Hamiltonian build, the LAPACK
    workspace and the eigensystems still to be used: at most two for a
    controlled-NOT protocol, 8 MB each at d = 1024 (N=11: ~235 MB peak).
    """
    check_qubit_cap(cfg, cap, "exact")
    protocol = as_protocol(protocol)
    threshold = reporting_cutoff(cfg, cutoff)
    uses_left = Counter((pulse.frequency, pulse.rabi) for pulse in protocol.pulses)
    eig_cache: dict[tuple[float, float], EigenSystem] = {}
    energies, spin_sums = _diagonal_terms(cfg)

    def step(state: tuple[np.ndarray, float], pulse: Pulse) -> tuple[np.ndarray, float]:
        c, t = state
        key = (pulse.frequency, pulse.rabi)
        if key not in eig_cache:
            eig_cache[key] = diagonalize(build_rotating_hamiltonian(pulse, cfg, cap))
        uses_left[key] -= 1
        # at its last pulse the eigensystem leaves the cache, freed when this step returns
        eigensystem = eig_cache[key] if uses_left[key] else eig_cache.pop(key)
        # the phases of interaction_to_rotating and rotating_to_interaction
        diag = energies + 0.5 * pulse.frequency * spin_sums
        a = evolve_pulse_exact(np.exp(-1j * diag * t) * c, eigensystem, pulse.duration)
        t += pulse.duration
        return np.exp(1j * diag * t) * a, t

    def view(state: tuple[np.ndarray, float]):
        c, t = state
        return (*dense_view(c.real, c.imag, threshold), t)

    _, (amps, leaked, time), generation, rows = run_pulses(
        (dense_amplitudes(initial, cfg.dimension), 0.0), protocol, step, view, trace
    )
    return make_report(
        "exact",
        cfg,
        protocol,
        amps,
        leaked,
        time,
        generation,
        trace=rows,
        doubled=doubled,
        prune_cutoff=threshold,
        seed=seed,
    )
