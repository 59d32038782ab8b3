"""Sparse two-level propagation of pulse sequences for large chains.

The engine tracks interaction-picture amplitudes C_p on a sparse set of
basis states.  For each pulse, every tracked state pairs with the single
partner reached by flipping the spin whose transition lies closest to the
drive.  When the detuning Delta of that pair is within the near-resonant
window the pair evolves under the closed-form two-level solution with
generalized frequency lambda = sqrt(rabi^2 + Delta^2):

    lower level:  C_m -> C_m * [cos(L) + i (Delta/lambda) sin(L)] * e^{-i tau Delta / 2}
                        + C_p * i (rabi/lambda) sin(L) * e^{-i (t0 + tau/2) Delta}
    upper level:  C_p -> C_p * [cos(L) - i (Delta/lambda) sin(L)] * e^{+i tau Delta / 2}
                        + C_m * i (rabi/lambda) sin(L) * e^{+i (t0 + tau/2) Delta}

with L = lambda * tau / 2 and t0 the absolute protocol time at pulse start.
Each block is exactly unitary, so the stored norm plus the pruned
probability stays at one.  States with no transition in the window pass
through unchanged; probability below the cutoff is moved to the ``leaked``
ledger after every pulse and never renormalized away.

Amplitudes flowing into the same partner add coherently: a pulse couples
each state to exactly one partner, so the only merge is the in-block one,
and iterating states in ascending basis order makes runs bit-reproducible.

A block depends on the pair's flip energy only.  With one spin k in the
window, that is set by the neighbour bits k-1 and k+1, so each pulse computes
at most four blocks, one per neighbourhood pattern, and applies each to every
pair with that pattern using the same operations in the same order.

Not modelled: far-detuned leakage.  Flips outside the near-resonant window
are dropped, not propagated, and that channel is the dominant gate error at
the 2*pi*k drive points: there this engine reports an unwanted probability
near 3e-16 where the exact engine gives 4e-7 to 3e-4.
``error_model.first_order_error`` recovers it on short chains.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .chain import (
    NEAR_RESONANT_MAX_J,
    RESONANCE_TOL,
    ChainConfig,
    flip_energy,
    nearest_flip,
    window_spins,
)
from .pulses import Protocol, Pulse, as_protocol
from .report import RunReport, make_report, reporting_cutoff, run_pulses


@dataclass
class SparseState:
    """Sparse interaction-picture state plus the pruning ledger.

    ``amps`` maps basis states (integers) to complex amplitudes, ``leaked``
    is the total probability removed by pruning, and ``time`` the absolute
    protocol time reached so far.  Engine operations return new instances;
    treat existing ones as immutable.
    """

    amps: dict[int, complex]
    leaked: float = 0.0
    time: float = 0.0

    @classmethod
    def from_basis(cls, state: int) -> "SparseState":
        return cls(amps={state: 1.0 + 0.0j})


def _block(e: float, nu: float, rabi: float, tau: float, t0: float, window: float):
    """(diag, cross, ph_m, ph_x*, diag*, ph_m*, ph_x) of a pair whose flip
    energy is +-e, * marking a conjugate; None outside the window."""
    delta = abs(e) - nu
    if abs(delta) > window:
        return None
    lam = math.hypot(rabi, delta)
    half = 0.5 * lam * tau
    cos_l = math.cos(half)
    sin_l = math.sin(half)
    diag = complex(cos_l, (delta / lam) * sin_l)
    cross = 1j * (rabi / lam) * sin_l
    ph_m = cmath.exp(-0.5j * delta * tau)
    ph_x = cmath.exp(1j * delta * (t0 + 0.5 * tau))
    return diag, cross, ph_m, ph_x.conjugate(), diag.conjugate(), ph_m.conjugate(), ph_x


def apply_pulse(state: SparseState, pulse: Pulse, cfg: ChainConfig) -> SparseState:
    """Propagate every tracked amplitude through one pulse (no pruning).

    With several spins in the window, each state's nearest flip is looked up
    and blocks are shared by flip energy.
    """
    nu = pulse.frequency
    rabi = pulse.rabi
    tau = pulse.duration
    t0 = state.time
    j = cfg.coupling
    window = NEAR_RESONANT_MAX_J * j + RESONANCE_TOL * j

    amps = state.amps
    spins = window_spins(nu, cfg)
    if not spins:
        return SparseState({s: amps[s] for s in sorted(amps)}, state.leaked, t0 + tau)
    single = len(spins) == 1
    if single:
        k = spins[0]
        bit = 1 << k
        lo = max(k - 1, 0)
        neighbours = 7 & ~(bit >> lo)

    new_amps: dict[int, complex] = {}
    blocks: dict = {}
    for s, c in sorted(amps.items()):
        if single:
            # keyed by the pair's shared bits; e is the flip energy of the
            # member whose spin k is 0, and its negative for the other one
            pattern = (s >> lo) & neighbours
            entry = blocks.get(pattern)
            if entry is None:
                e = flip_energy(pattern << lo, k, cfg)
                entry = blocks[pattern] = e, _block(e, nu, rabi, tau, t0, window)
            e, blk = entry
            partner = s ^ bit
            if partner < s:
                e = -e
        else:
            if s in new_amps:
                continue  # written with its partner
            k, e = nearest_flip(s, nu, cfg)
            if abs(e) not in blocks:
                blocks[abs(e)] = _block(e, nu, rabi, tau, t0, window)
            blk = blocks[abs(e)]
            partner = s ^ (1 << k)
        if blk is None:
            new_amps[s] = c
            continue

        c_x = amps.get(partner)
        if c_x is None:
            c_x = 0.0j
        elif partner < s:
            continue  # the pair was written when the partner came up
        diag, cross, ph_m, ph_xc, diag_c, ph_mc, ph_x = blk
        if e > 0.0:
            m, p, c_m, c_p = s, partner, c, c_x
        else:
            m, p, c_m, c_p = partner, s, c_x, c
        new_amps[m] = c_m * diag * ph_m + c_p * cross * ph_xc
        new_amps[p] = c_p * diag_c * ph_mc + c_m * cross * ph_x

    return SparseState(amps=new_amps, leaked=state.leaked, time=t0 + tau)


def prune(state: SparseState, cutoff: float) -> SparseState:
    """Drop entries with |C|^2 below the cutoff, crediting them to ``leaked``."""
    kept: dict[int, complex] = {}
    leaked = state.leaked
    for s, c in state.amps.items():
        p = c.real * c.real + c.imag * c.imag
        if p < cutoff:
            leaked += p
        else:
            kept[s] = c
    return SparseState(amps=kept, leaked=leaked, time=state.time)


def run_protocol(
    initial: SparseState,
    protocol: Protocol | list[Pulse] | tuple[Pulse, ...],
    cfg: ChainConfig,
    *,
    cutoff: float | None = None,
    trace: bool = False,
    doubled: bool = False,
    seed: int | None = None,
) -> RunReport:
    """Apply a pulse sequence with pruning after each pulse.

    ``cutoff`` is the raw probability pruning threshold (defaults to the
    chain config's).  Note that it applies to stored probabilities: when a
    report is to be read in the doubled convention, pass the doubled cutoff
    divided by two.  The generation ledger records, for every state, the
    first pulse index after which it was stored above the cutoff.
    """
    for s in initial.amps:
        if not 0 <= s < cfg.dimension:
            raise ValueError(f"state {s} does not fit in {cfg.n_qubits} bits")
    protocol = as_protocol(protocol)
    threshold = reporting_cutoff(cfg, cutoff)
    _, (amps, leaked, time), generation, rows = run_pulses(
        initial,
        protocol,
        lambda state, pulse: prune(apply_pulse(state, pulse, cfg), threshold),
        lambda state: (state.amps, state.leaked, state.time),
        trace,
    )
    return make_report(
        "perturbative",
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
