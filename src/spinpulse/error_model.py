"""Closed-form error budget for the end-to-end CN protocol.

Two small parameters control gate quality.  A near-resonant pulse excites
its spectator partner with probability

    eps = (rabi/lambda)^2 * sin^2(lambda * tau / 2),  lambda = sqrt(rabi^2 + Delta^2),

which vanishes on the 2pik condition.  A non-resonant spin a distance d
from the driven one leaks

    mu / d^2,   mu = (rabi / (2 * spacing))^2,

so the per-pulse leakage with resonant spin k is mu_k = mu * sum_{k' != k}
1/(k - k')^2.  The total gate error multiplies the per-pulse survival
factors along both target components: the spectator (all-zeros) branch pays
eps on every pi-pulse, both branches pay their non-resonant mu_i, interior
spins host two pi-pulses each (squared factors), and the third pulse is
driven at twice the base strength in the equal-eps convention so its
non-resonant terms carry a factor four:

    P = 1 - 1/2 (1-mu_{N-1}) (1-mu_{N-2}-eps) (1-4mu_{N-2}-eps) (1-mu_0-eps)
              * prod_{i=1}^{N-3} (1-mu_i-eps)^2
          - 1/2 (1-mu_{N-2}) (1-4mu_{N-2}) * prod_{i=0}^{N-3} (1-mu_i)^2

The budget is meaningful only for rabi << J << spacing; outside that regime
the exact engine is the arbiter.

The closed form is phase-averaged: it adds per-pulse leakage incoherently
and ignores the interference of far-detuned amplitudes left by successive
pulses, so it gives the trend in spacing, not the value at one spacing.
Its mu / d^2 term is also half the pulse-averaged first-order leakage under
the -rabi/2 coupling the engines use: a far spin at detuning d * spacing
leaks (rabi / (d * spacing))^2 * sin^2(d * spacing * tau / 2), whose average
over the pulse length is (rabi / (d * spacing))^2 / 2 = 2 mu / d^2.  For
pointwise values use ``first_order_error``, which sums the far-detuned
amplitudes of a given protocol coherently.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .chain import ChainConfig, flip_energy
from .design import rabi_for_2pik
from .pulses import Protocol
from .sparse_engine import PulsePairs, SparseState, apply_pulse


def epsilon(rabi: float, delta: float, duration: float) -> float:
    """Spectator transition probability of one near-resonant pulse."""
    lam = math.hypot(rabi, delta)
    if lam == 0.0:
        return 0.0
    s = math.sin(0.5 * lam * duration)
    return (rabi / lam) ** 2 * s * s


def mu_base(rabi: float, spacing: float) -> float:
    """Leakage scale to a non-resonant spin one Larmor step away."""
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return (rabi / (2.0 * spacing)) ** 2


def nonresonant_leak(rabi: float, spacing: float, distance: int) -> float:
    """Leakage probability to the non-resonant spin ``distance`` steps away."""
    if distance < 1:
        raise ValueError("distance must be >= 1")
    return mu_base(rabi, spacing) / (distance * distance)


@lru_cache(maxsize=64)
def _inv_square_prefix(m: int) -> tuple[float, ...]:
    """Prefix sums H[j] = sum_{d=1}^{j} 1/d^2 for j = 0..m."""
    out = [0.0]
    total = 0.0
    for d in range(1, m + 1):
        total += 1.0 / (d * d)
        out.append(total)
    return tuple(out)


def mu_k(rabi: float, spacing: float, k: int, n_qubits: int) -> float:
    """Total non-resonant leakage of one pulse whose resonant spin is k."""
    if not 0 <= k < n_qubits:
        raise ValueError(f"spin index {k} out of range for N={n_qubits}")
    prefix = _inv_square_prefix(n_qubits - 1)
    return mu_base(rabi, spacing) * (prefix[k] + prefix[n_qubits - 1 - k])


@dataclass(frozen=True)
class ErrorBudget:
    n_qubits: int
    m_pulses: int
    rabi: float
    spacing: float
    epsilon: float
    mu: float
    probability: float                  # total unwanted-state probability P
    near_resonant_only: float           # P with all mu_i set to zero
    approx_ground_probability: float    # first-order |C_0|^2 = (1 - M*eps)/2


def total_error(cfg: ChainConfig, rabi: float) -> ErrorBudget:
    """Evaluate the full error budget of the equal-eps CN protocol.

    ``rabi`` is the base drive strength; the third pulse's doubling is
    built into the factor-four terms.

    The result is phase-averaged and ignores interference between pulses,
    and its mu / d^2 leakage term is half the pulse-averaged first-order
    leakage under the -rabi/2 coupling (see the module docstring).  The
    exact error of one protocol differs from it pointwise; use
    ``first_order_error`` for that.
    """
    n = cfg.n_qubits
    if n < 3:
        raise ValueError("error budget is defined for the CN protocol, N >= 3")
    j = cfg.coupling
    spacing = cfg.larmor_spacing
    m_pulses = 2 * n - 3

    eps = epsilon(rabi, 2.0 * j, math.pi / rabi)
    mu = mu_base(rabi, spacing)
    prefix = _inv_square_prefix(n - 1)
    mu_i = [mu * (prefix[i] + prefix[n - 1 - i]) for i in range(n)]

    spectator = 1.0 - mu_i[n - 1]
    spectator *= 1.0 - mu_i[n - 2] - eps
    spectator *= 1.0 - 4.0 * mu_i[n - 2] - eps
    spectator *= 1.0 - mu_i[0] - eps
    for i in range(1, n - 2):
        spectator *= (1.0 - mu_i[i] - eps) ** 2

    moving = (1.0 - mu_i[n - 2]) * (1.0 - 4.0 * mu_i[n - 2])
    for i in range(0, n - 2):
        moving *= (1.0 - mu_i[i]) ** 2

    probability = 1.0 - 0.5 * spectator - 0.5 * moving
    near_only = 0.5 * (1.0 - (1.0 - eps) ** m_pulses)

    return ErrorBudget(
        n_qubits=n,
        m_pulses=m_pulses,
        rabi=rabi,
        spacing=spacing,
        epsilon=eps,
        mu=mu,
        probability=probability,
        near_resonant_only=near_only,
        approx_ground_probability=0.5 * (1.0 - m_pulses * eps),
    )


def _flip_shift(e: float, bit: int, frequency: float) -> float:
    """Change of the rotating-frame diagonal E - chi when a spin at ``bit`` flips by ``e``."""
    return e - frequency * (1 - 2 * bit)


def _block_modes(state: int, level: float, pairs: PulsePairs):
    """The zeroth-order block of ``state`` under one pulse and its eigenmodes.

    The block is the one ``sparse_engine.apply_pulse`` evolves, by ``pairs``:
    the state and its near-resonant partner, or the state alone.  ``level``
    is the state's rotating-frame diagonal entry relative to any fixed
    reference.  Returns (spin, members, levels, modes): the near-resonant
    spin (None for a lone state), the block's basis states with their
    diagonal entries, and its eigenmodes as (eigenvalue, components along
    ``members``) pairs.
    """
    pair = pairs.pair(state)
    if pair is None:
        return None, (state,), (level,), ((level, (1.0,)),)
    spin, e, _ = pair
    partner = state ^ (1 << spin)
    other = level + _flip_shift(e, state >> spin & 1, pairs.pulse.frequency)
    rabi = pairs.pulse.rabi
    delta = other - level
    lam = math.hypot(rabi, delta)
    # lam - delta, written to avoid cancellation when delta >> rabi
    gap = rabi * rabi / (lam + delta) if delta > 0.0 else lam - delta
    norm = math.hypot(rabi, gap)
    a, b = rabi / norm, gap / norm
    mid = 0.5 * (level + other)
    modes = ((mid - 0.5 * lam, (a, b)), (mid + 0.5 * lam, (-b, a)))
    return spin, (state, partner), (level, other), modes


def _far_flip_amplitudes(state: SparseState, pairs: PulsePairs) -> dict[int, complex]:
    """Amplitudes one pulse moves out of ``state`` through far-detuned flips.

    In the pulse's rotating frame H = H_0 + V, where H_0 holds the 2x2
    blocks of ``apply_pulse`` and V the -rabi/2 coupling of every other
    single-spin flip.  To first order in V, the amplitude a flip x -> y
    carries from x's block S into y's block T is

        -i int_0^tau U_T(tau - u) V U_S(u) du,

    a sum over eigenmode pairs (e, f) of exp(-i (e + f) tau / 2) *
    2 sin((e - f) tau / 2) / (e - f).  Returns interaction-picture
    amplitudes at the end of the pulse.
    """
    pulse, cfg = pairs.pulse, pairs.cfg
    t0 = state.time
    tau = pulse.duration
    t1 = t0 + tau
    out: dict[int, complex] = {}
    seen: set[int] = set()
    for s in sorted(state.amps):
        if s in seen:
            continue
        # diagonal entries are measured from s's own; the reference cancels
        spin, members, levels, modes = _block_modes(s, 0.0, pairs)
        seen.update(members)
        weights = [
            sum(
                v * cmath.exp(-1j * lv * t0) * state.amps.get(m, 0j)
                for v, lv, m in zip(vec, levels, members)
            )
            for _, vec in modes
        ]
        for i, x in enumerate(members):
            for k in range(cfg.n_qubits):
                if k == spin:
                    continue
                y = x ^ (1 << k)
                shift = _flip_shift(flip_energy(x, k, cfg), x >> k & 1, pulse.frequency)
                _, targets, t_levels, t_modes = _block_modes(y, levels[i] + shift, pairs)
                for f, w in t_modes:
                    amp = 0j
                    for (e, vec), c in zip(modes, weights):
                        beat = e - f
                        integral = (
                            tau if beat == 0.0
                            else 2.0 * math.sin(0.5 * beat * tau) / beat
                        )
                        amp += vec[i] * c * cmath.exp(-0.5j * (e + f) * tau) * integral
                    # -i times the -rabi/2 matrix element; y is targets[0]
                    amp *= 0.5j * pulse.rabi * w[0]
                    for wz, z, lz in zip(w, targets, t_levels):
                        out[z] = out.get(z, 0j) + amp * wz * cmath.exp(1j * lz * t1)
    return out


def first_order_error(cfg: ChainConfig, protocol: Protocol) -> float:
    """Unwanted-state probability of ``protocol``, first order in far flips.

    The zeroth order is the sparse engine's run from the protocol's initial
    state: near-resonant 2x2 blocks, pruned at ``cfg.cutoff``.  Every other
    flip, as ``sparse_engine.PulsePairs`` splits them, adds a first-order
    amplitude (see ``_far_flip_amplitudes``); these are propagated by the
    zeroth-order blocks through the remaining pulses but are never sources
    again.  The result is the pruned probability plus the probability of
    every final state other than the protocol's initial and target states.

    Unlike ``total_error``, this keeps the phases of the leaked amplitudes,
    so it follows the exact engine pointwise.  Its cost grows with the
    number of states the first-order amplitudes reach (all 2^N for the CN
    protocol on a short chain), so it is meant for chains the exact engine
    could also handle, and for checking one.
    """
    if not protocol.path:
        raise ValueError("protocol has no path: its end states are the wanted ones")
    zeroth = SparseState.from_basis(protocol.initial_state)
    first = SparseState(amps={})
    for pulse in protocol.pulses:
        added = _far_flip_amplitudes(zeroth, PulsePairs(pulse, cfg, zeroth.time))
        first = apply_pulse(first, pulse, cfg)
        amps = dict(first.amps)
        for s, c in added.items():
            amps[s] = amps.get(s, 0j) + c
        first = SparseState(amps, first.leaked, first.time)
        zeroth = apply_pulse(zeroth, pulse, cfg, cfg.cutoff)
    unwanted = (set(zeroth.amps) | set(first.amps)) - {
        protocol.initial_state, protocol.target_state
    }
    return zeroth.leaked + math.fsum(
        abs(zeroth.amps.get(s, 0j) + first.amps.get(s, 0j)) ** 2 for s in unwanted
    )


@dataclass(frozen=True)
class AcceptanceInterval:
    """One contiguous accepted drive-strength interval at fixed spacing."""

    rabi_low: float
    rabi_high: float
    anchor_k: int
    anchor_rabi: float


@dataclass(frozen=True)
class RegionMap:
    """Error probability over a (spacing, rabi) grid with acceptance mask."""

    spacings: tuple[float, ...]
    rabis: tuple[float, ...]
    probabilities: np.ndarray  # shape (len(spacings), len(rabis))
    threshold: float
    intervals: tuple[tuple[AcceptanceInterval, ...], ...]  # per spacing

    @property
    def accepted(self) -> np.ndarray:
        return self.probabilities < self.threshold

    def accepted_cells(self) -> int:
        return int(self.accepted.sum())

    def to_csv(self) -> str:
        lines = ["larmor_spacing,rabi,error_probability,accepted"]
        acc = self.accepted
        for i, dw in enumerate(self.spacings):
            for j, om in enumerate(self.rabis):
                lines.append(
                    f"{dw!r},{om!r},{self.probabilities[i, j]!r},"
                    f"{int(acc[i, j])}"
                )
        return "\n".join(lines) + "\n"


def nearest_2pik_anchor(rabi: float, coupling: float = 1.0) -> tuple[int, float]:
    """Revolution count and exact drive strength of the 2pik point nearest
    ``rabi`` for the standard 2J detuning."""
    delta = 2.0 * coupling
    k = max(1, round(0.5 * math.sqrt((delta / rabi) ** 2 + 1.0)))
    return k, rabi_for_2pik(delta, k)


def sweep_threshold_regions(
    cfg: ChainConfig,
    spacings: list[float] | tuple[float, ...],
    rabis: list[float] | tuple[float, ...],
    threshold: float,
) -> RegionMap:
    """Evaluate the error budget on a grid and find the accepted regions.

    For each spacing, contiguous runs of grid points with P below the
    threshold are summarized as intervals together with the 2pik drive
    strength they bracket.
    """
    spacings = tuple(float(s) for s in spacings)
    rabis = tuple(float(r) for r in rabis)
    probs = np.empty((len(spacings), len(rabis)))
    for i, dw in enumerate(spacings):
        cfg_i = replace(cfg, larmor_spacing=dw, base_larmor=10.0 * dw)
        for jx, om in enumerate(rabis):
            probs[i, jx] = total_error(cfg_i, om).probability

    accepted = probs < threshold
    all_intervals = []
    for i in range(len(spacings)):
        row = []
        jx = 0
        while jx < len(rabis):
            if accepted[i, jx]:
                start = jx
                while jx + 1 < len(rabis) and accepted[i, jx + 1]:
                    jx += 1
                mid = 0.5 * (rabis[start] + rabis[jx])
                k, anchor = nearest_2pik_anchor(mid, cfg.coupling)
                row.append(
                    AcceptanceInterval(
                        rabi_low=rabis[start],
                        rabi_high=rabis[jx],
                        anchor_k=k,
                        anchor_rabi=anchor,
                    )
                )
            jx += 1
        all_intervals.append(tuple(row))

    return RegionMap(
        spacings=spacings,
        rabis=rabis,
        probabilities=probs,
        threshold=threshold,
        intervals=tuple(all_intervals),
    )
