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
    nearest_flip,
)
from .pulses import Protocol, Pulse
from .report import RunReport, TraceEntry, make_report


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

    def norm(self) -> float:
        return math.fsum(c.real * c.real + c.imag * c.imag for c in self.amps.values())


def norm_deficit(state: SparseState) -> float:
    """1 - sum |C_p|^2; equals the leaked ledger up to rounding."""
    return 1.0 - state.norm()


def _window_spins(freq: float, cfg: ChainConfig) -> list[int]:
    """Spins whose transitions could fall inside the near-resonant window.

    A flip of spin k lies within 2J of omega_k, so only spins with
    |omega_k - freq| <= 6J can respond to the pulse at all.
    """
    margin = (NEAR_RESONANT_MAX_J + 2.0) * cfg.coupling + RESONANCE_TOL
    guess = (freq - cfg.base_larmor) / cfg.larmor_spacing
    lo = max(0, math.floor(guess - margin / cfg.larmor_spacing))
    hi = min(cfg.n_qubits - 1, math.ceil(guess + margin / cfg.larmor_spacing))
    return [
        k for k in range(lo, hi + 1) if abs(cfg.omega(k) - freq) <= margin
    ]


def apply_pulse(state: SparseState, pulse: Pulse, cfg: ChainConfig) -> SparseState:
    """Propagate every tracked amplitude through one pulse (no pruning)."""
    nu = pulse.frequency
    rabi = pulse.rabi
    tau = pulse.duration
    t0 = state.time
    j = cfg.coupling
    omega0 = cfg.base_larmor
    spacing = cfg.larmor_spacing
    n = cfg.n_qubits
    window = NEAR_RESONANT_MAX_J * j + RESONANCE_TOL * j

    spins = _window_spins(nu, cfg)
    single = spins[0] if len(spins) == 1 else None

    amps = state.amps
    new_amps: dict[int, complex] = {}
    seen: set[int] = set()

    for s in sorted(amps):
        if s in seen:
            continue
        if single is not None:
            k = single
            # signed energy change of flipping spin k, from local bits only
            sigma = 1 - 2 * ((s >> k) & 1)
            nb = 0
            if k > 0:
                nb += 1 - 2 * ((s >> (k - 1)) & 1)
            if k < n - 1:
                nb += 1 - 2 * ((s >> (k + 1)) & 1)
            e = sigma * (omega0 + k * spacing) + j * sigma * nb
        elif not spins:
            new_amps[s] = amps[s]
            continue
        else:
            k, e = nearest_flip(s, nu, cfg)
        delta = abs(e) - nu
        if abs(delta) > window:
            new_amps[s] = amps[s]
            continue

        partner = s ^ (1 << k)
        seen.add(partner)
        if e > 0.0:
            m, p = s, partner
        else:
            m, p = partner, s
        c_m = amps.get(m, 0.0j)
        c_p = amps.get(p, 0.0j)

        lam = math.hypot(rabi, delta)
        half = 0.5 * lam * tau
        cos_l = math.cos(half)
        sin_l = math.sin(half)
        diag = complex(cos_l, (delta / lam) * sin_l)
        cross = 1j * (rabi / lam) * sin_l
        ph_m = cmath.exp(-0.5j * delta * tau)
        ph_x = cmath.exp(1j * delta * (t0 + 0.5 * tau))

        new_amps[m] = c_m * diag * ph_m + c_p * cross * ph_x.conjugate()
        new_amps[p] = c_p * diag.conjugate() * ph_m.conjugate() + c_m * cross * ph_x

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
    if not isinstance(protocol, Protocol):
        protocol = Protocol(pulses=tuple(protocol))
    threshold = cfg.cutoff if cutoff is None else cutoff

    ref_state = protocol.initial_state if protocol.initial_state is not None else 0
    state = initial
    generation = {s: 0 for s in sorted(initial.amps)}
    trace_rows: list[TraceEntry] | None = None
    if trace:
        trace_rows = [
            TraceEntry(
                pulse_index=0,
                time=state.time,
                norm=state.norm(),
                leaked=state.leaked,
                n_states=len(state.amps),
                reference_amplitude=state.amps.get(ref_state),
            )
        ]

    for idx, pulse in enumerate(protocol.pulses, start=1):
        state = apply_pulse(state, pulse, cfg)
        state = prune(state, threshold)
        for s in state.amps:
            if s not in generation:
                generation[s] = idx
        if trace_rows is not None:
            trace_rows.append(
                TraceEntry(
                    pulse_index=idx,
                    time=state.time,
                    norm=state.norm(),
                    leaked=state.leaked,
                    n_states=len(state.amps),
                    reference_amplitude=state.amps.get(ref_state),
                )
            )

    return make_report(
        "perturbative",
        cfg,
        protocol if protocol.pulses else None,
        state.amps,
        state.leaked,
        state.time,
        generation,
        trace=trace_rows,
        doubled=doubled,
        prune_cutoff=threshold,
        seed=seed,
    )
