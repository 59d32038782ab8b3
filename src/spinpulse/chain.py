"""Ising spin chain: configuration, stationary-state energies, resonance tables.

The chain is a line of N spin-1/2 nuclei in a field gradient.  Spin k has
Larmor frequency omega_k = base_larmor + k * larmor_spacing and couples to
its nearest neighbours with Ising strength J (the global frequency unit,
J = 1 internally).  A basis state is an N-bit integer: bit k is the k-th
spin counted from the right of the written ket, 0 for the spin aligned
with the field and 1 for the flipped spin.  Its energy is

    E = -1/2 * sum_k omega_k * s_k  -  J/2 * sum_k s_k * s_{k+1}

with s_k = +1 for bit 0 and -1 for bit 1.

Driving a single-spin flip is resonant at |E_after - E_before|, which takes
the values omega_k +- J for end spins and omega_k, omega_k +- 2J for inner
spins depending on the neighbour configuration; a chain therefore has
3N - 2 resonant lines.  ``nearest_flip`` finds the spin whose flip lies
closest to a drive; a flip within ``near_resonant_window`` (4J) of it is
near-resonant, every other flip non-resonant.  ``sparse_engine.PulsePairs``
applies this to every state of a pulse.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .exceptions import AmbiguousTransitionError

# Slack on constructed frequencies: they are computed, not measured, so a
# detuning meant to be 0 or 4J lies within RESONANCE_TOL * J of it.
RESONANCE_TOL = 1e-9

# Largest detuning treated as near-resonant.  The gate protocols only ever
# produce +-2J and +-4J; anything larger is a different spin's line.
NEAR_RESONANT_MAX_J = 4.0


@dataclass(frozen=True)
class ChainConfig:
    """Static description of the chain and the simulation cutoff.

    All frequencies are in units of the Ising coupling.  ``base_larmor``
    defaults to 10 * larmor_spacing, which keeps every resonant line
    positive; only frequency differences enter the dynamics.
    """

    n_qubits: int
    larmor_spacing: float
    base_larmor: float | None = None
    coupling: float = 1.0
    cutoff: float = 1e-6

    def __post_init__(self):
        if isinstance(self.n_qubits, bool) or not isinstance(self.n_qubits, numbers.Integral):
            raise TypeError(f"n_qubits must be an integer, got {self.n_qubits!r}")
        for name in ("larmor_spacing", "base_larmor", "coupling", "cutoff"):
            value = getattr(self, name)
            if value is None and name == "base_larmor":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        # N = 1 is allowed as a degenerate case for solver unit checks;
        # the chain proper starts at N = 2.
        if self.n_qubits < 1:
            raise ValueError(f"need at least 1 qubit, got {self.n_qubits}")
        if self.larmor_spacing <= 0:
            raise ValueError("larmor_spacing must be positive")
        if self.coupling <= 0:
            raise ValueError("coupling must be positive")
        if not 0.0 < self.cutoff < 1.0:
            raise ValueError("cutoff must lie in (0, 1)")
        if self.base_larmor is None:
            object.__setattr__(self, "base_larmor", 10.0 * self.larmor_spacing)

    def omega(self, k: int) -> float:
        """Larmor frequency of spin k."""
        if not 0 <= k < self.n_qubits:
            raise ValueError(f"spin index {k} out of range for N={self.n_qubits}")
        return self.base_larmor + k * self.larmor_spacing

    @property
    def dimension(self) -> int:
        return 1 << self.n_qubits


# -- basis-state helpers -----------------------------------------------------

def state_from_string(bits: str) -> int:
    """Parse a written ket like '1010'; leftmost character is spin N-1."""
    return int(bits, 2)

def state_to_string(state: int, n_qubits: int) -> str:
    return format(state, f"0{n_qubits}b")

def flip_count(state: int) -> int:
    """Number of flipped spins (bits set)."""
    return state.bit_count()


def basis_energy(state: int, cfg: ChainConfig) -> float:
    """Diagonal energy of a basis state under the static chain Hamiltonian."""
    return basis_energies([state], cfg)[0]


def basis_energies(states: list[int], cfg: ChainConfig) -> list[float]:
    """``basis_energy`` of each state.  The Zeeman sum runs over spins 0..N-1
    in order, one column of all states at a time: the same additions as for
    one state, in O(states) memory."""
    n = cfg.n_qubits
    dim = 1 << n
    for state in states:
        if not 0 <= state < dim:
            raise ValueError(f"state {state} does not fit in {n} bits")
    base, spacing = cfg.base_larmor, cfg.larmor_spacing
    zeeman = np.zeros(len(states))
    rows = pack_states(states, n)
    for lo in range(0, n, 64):
        word = rows[:, -1 - lo // 64]
        for k in range(lo, min(lo + 64, n)):
            w = base + k * spacing
            zeeman += np.where((word >> np.uint64(k - lo)) & np.uint64(1), -w, w)
    # Each unlike neighbour pair is a -1 bond, each like pair a +1 bond.
    pairs = (1 << (n - 1)) - 1
    unlike = np.array([((s ^ (s >> 1)) & pairs).bit_count() for s in states], np.int64)
    bonds = (n - 1) - 2 * unlike
    return (-0.5 * zeeman - 0.5 * cfg.coupling * bonds).tolist()


def pack_states(states: Iterable[int], n_qubits: int) -> np.ndarray:
    """N-bit states as rows of W = ceil(N/64) big-endian uint64 words, most
    significant first: row i holds ``states[i].to_bytes(8 * W, "big")``, so
    a row's bytes order it as the integer it holds and its ``void`` view is
    its sort key.  Spin k lies in column W - 1 - k // 64."""
    words = (n_qubits + 63) // 64
    data = b"".join(s.to_bytes(8 * words, "big") for s in states)
    return np.frombuffer(data, np.dtype(">u8")).reshape(-1, words)


def descend(rows: np.ndarray, k: int, lineage: np.ndarray) -> np.ndarray:
    """Packed rows ``lineage >> 1`` of ``rows``, bit k flipped where
    ``lineage & 1``: how the packed kernel builds the rows it keeps, and how
    the first-crossing replay rebuilds them.  The rows are gathered with
    ``take`` and the bit is toggled by one shifted XOR on column
    W - 1 - k // 64, the word that holds spin k."""
    out = rows.take(lineage >> 1, axis=0)
    out[:, -1 - k // 64] ^= (lineage & 1).astype(np.uint64) << np.uint64(k % 64)
    return out


def flip_energy(state: int, k: int, cfg: ChainConfig) -> float:
    """Signed energy change when spin k of ``state`` is flipped.

    Positive when the flip raises the energy (the state is the lower level
    of the pair).  Only the flipped spin and its neighbours contribute, so
    this is O(1) and exactly consistent with ``basis_energy`` differences.
    """
    n = cfg.n_qubits
    if not 0 <= k < n:
        raise ValueError(f"spin index {k} out of range for N={n}")
    s = 1 - 2 * ((state >> k) & 1)
    neighbours = 0
    if k > 0:
        neighbours += 1 - 2 * ((state >> (k - 1)) & 1)
    if k < n - 1:
        neighbours += 1 - 2 * ((state >> (k + 1)) & 1)
    return s * cfg.omega(k) + cfg.coupling * s * neighbours


def transition_frequency(state: int, k: int, cfg: ChainConfig) -> float:
    """Resonant drive frequency for flipping spin k of ``state``."""
    return abs(flip_energy(state, k, cfg))


def resonant_frequency_table(cfg: ChainConfig) -> list[float]:
    """All 3N - 2 single-spin resonant frequencies of the chain, sorted."""
    j = cfg.coupling
    if cfg.n_qubits == 1:
        return [cfg.omega(0)]
    freqs = [cfg.omega(0) + j, cfg.omega(0) - j]
    for k in range(1, cfg.n_qubits - 1):
        w = cfg.omega(k)
        freqs.extend((w - 2 * j, w, w + 2 * j))
    w = cfg.omega(cfg.n_qubits - 1)
    freqs.extend((w - j, w + j))
    freqs.sort()
    return freqs


def window_spins(freq: float, cfg: ChainConfig) -> list[int]:
    """Spins whose transitions could fall inside the near-resonant window.

    A flip of spin k lies within 2J of omega_k (for omega_k >= 0), so only
    spins with |omega_k - freq| <= 6J can respond to the pulse at all.
    """
    base, spacing = cfg.base_larmor, cfg.larmor_spacing
    margin = (NEAR_RESONANT_MAX_J + 2.0 + RESONANCE_TOL) * cfg.coupling
    guess = (freq - base) / spacing
    lo = max(0, math.floor(guess - margin / spacing))
    hi = min(cfg.n_qubits - 1, math.ceil(guess + margin / spacing))
    # omega_k as cfg.omega computes it, without its range check
    return [k for k in range(lo, hi + 1) if abs(base + k * spacing - freq) <= margin]


def near_resonant_window(cfg: ChainConfig) -> float:
    """Largest |detuning| of a flip that is evolved as a near-resonant pair."""
    return NEAR_RESONANT_MAX_J * cfg.coupling + RESONANCE_TOL * cfg.coupling


def nearest_flip(state: int, freq: float, cfg: ChainConfig) -> tuple[int, float]:
    """Spin whose transition lies closest to ``freq`` and its signed flip energy.

    Only the spins of ``window_spins`` are searched: every other spin's
    transitions lie outside the near-resonant window.  With no spin in the
    window the result is (-1, 0.0).
    Raises AmbiguousTransitionError when a second spin also falls inside the
    near-resonant window, which would invalidate the two-level reduction.
    """
    best_k = -1
    best_e = 0.0
    best_d = float("inf")
    second_d = float("inf")
    for k in window_spins(freq, cfg):
        e = flip_energy(state, k, cfg)
        d = abs(abs(e) - freq)
        if d < best_d:
            second_d = best_d
            best_d, best_k, best_e = d, k, e
        elif d < second_d:
            second_d = d
    window = near_resonant_window(cfg)
    if best_d <= window and second_d <= window:
        raise AmbiguousTransitionError(
            f"state {state}: two transitions within {window} of drive {freq}"
        )
    return best_k, best_e
