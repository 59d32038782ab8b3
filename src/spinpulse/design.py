"""Pulse design: 2pik drive strengths and the end-to-end controlled-NOT protocol.

A near-resonant pulse with detuning Delta rotates a spectator state about a
tilted axis at the generalized frequency lambda = sqrt(rabi^2 + Delta^2).
If lambda * duration = 2*pi*k the spectator returns exactly to itself and
the pulse is invisible to it; solving that condition together with the
pulse-area constraint fixes the drive strength:

    pi-pulse:    rabi = |Delta| / sqrt(4 k^2 - 1)
    pi/2-pulse:  rabi = |Delta| / sqrt(16 k^2 - 1)

The controlled-NOT between the chain ends (control = spin N-1, target =
spin 0) starts with a pi/2-pulse on the control and then walks the flipped
branch down the chain with 2N-3 pi-pulses: flip spin N-2, flip N-3, unflip
N-2, then repeatedly flip the next spin down and unflip the one above until
spin 0 is set and only spins N-1 and 0 remain flipped.  Every pi-pulse is
exactly resonant on that branch; against the all-zeros branch each pulse is
detuned by 2J, except the third (4J).
"""

from __future__ import annotations

import math
import random
from dataclasses import replace

from .chain import ChainConfig, flip_energy, transition_frequency
from .pulses import Protocol, Pulse

PI_PULSE = "pi"
HALF_PI_PULSE = "pi/2"


def rabi_for_2pik(delta: float, k: int, kind: str = PI_PULSE) -> float:
    """Drive strength making a pulse of the given area invisible at detuning delta."""
    if k < 1:
        raise ValueError(f"revolution count k must be >= 1, got {k}")
    if delta == 0:
        raise ValueError("zero detuning: there is no spectator rotation to close")
    if kind == PI_PULSE:
        return abs(delta) / math.sqrt(4.0 * k * k - 1.0)
    if kind == HALF_PI_PULSE:
        return abs(delta) / math.sqrt(16.0 * k * k - 1.0)
    raise ValueError(f"unknown pulse kind {kind!r}")


def cn_flip_sequence(n_qubits: int) -> list[int]:
    """Spins flipped by the successive pi-pulses of the end-to-end CN gate."""
    if n_qubits < 3:
        raise ValueError(f"CN protocol needs at least 3 qubits, got {n_qubits}")
    seq = [n_qubits - 2, n_qubits - 3, n_qubits - 2]
    for j in range(n_qubits - 3, 0, -1):
        seq.extend((j - 1, j))
    return seq


def build_cn_protocol(
    cfg: ChainConfig,
    rabi: float | None = None,
    k: int | None = None,
    equal_epsilon: bool = True,
) -> Protocol:
    """Build the CN_{N-1,0} protocol: one pi/2-pulse plus 2N-3 pi-pulses.

    Give either the base drive strength ``rabi`` directly or a revolution
    count ``k``, in which case rabi is set so every 2J-detuned pi-pulse
    satisfies the 2pik condition.  With ``equal_epsilon`` the third pulse,
    whose ground-branch detuning is 4J, is driven at twice the base rabi so
    its spectator transition probability matches the others (and its 2pik
    condition closes with the same k).  Frequencies come from walking the
    flipped-branch state path, so each pi-pulse is exactly resonant on it.
    """
    n = cfg.n_qubits
    if n < 3:
        raise ValueError(f"CN protocol needs at least 3 qubits, got {n}")
    if (rabi is None) == (k is None):
        raise ValueError("give exactly one of rabi or k")
    if rabi is None:
        rabi = rabi_for_2pik(2.0 * cfg.coupling, k, PI_PULSE)
    if rabi <= 0:
        raise ValueError("rabi must be positive")

    ground = 0
    control_bit = 1 << (n - 1)
    pulses: list[Pulse] = []
    path: list[int] = [ground]
    detunings: list[float] = []

    # pi/2-pulse, resonant on the ground -> control-flipped transition.
    nu = transition_frequency(ground, n - 1, cfg)
    pulses.append(Pulse(frequency=nu, rabi=rabi, duration=0.5 * math.pi / rabi))
    path.append(control_bit)
    detunings.append(0.0)

    state = control_bit
    for idx, spin in enumerate(cn_flip_sequence(n), start=1):
        omega_n = rabi
        if idx == 3 and equal_epsilon:
            omega_n = 2.0 * rabi
        nu = transition_frequency(state, spin, cfg)
        pulses.append(Pulse(frequency=nu, rabi=omega_n, duration=math.pi / omega_n))
        state ^= 1 << spin
        path.append(state)
        detunings.append(abs(flip_energy(ground, spin, cfg)) - nu)

    return Protocol(
        pulses=tuple(pulses),
        gate=f"CN_{n - 1},0",
        path=tuple(path),
        detunings=tuple(detunings),
    )


def analytic_final_state(n_qubits: int, k: int, m_pulses: int | None = None) -> tuple[complex, complex]:
    """Closed-form final amplitudes of the CN protocol when every pi-pulse
    satisfies the 2pik condition with the same k.

    Returns (c_ground, c_target) for the all-zeros component and the
    component with spins N-1 and 0 flipped.  Each spectator pi-pulse
    multiplies the ground amplitude by (-1)^k * exp(-i*pi*sqrt(4k^2-1)/2);
    each resonant pi-pulse multiplies the moving branch by i.
    """
    if m_pulses is None:
        m_pulses = 2 * n_qubits - 3
    c0 = ((-1) ** (k * m_pulses) / math.sqrt(2.0)) * complex(
        math.cos(-math.pi * m_pulses * math.sqrt(4.0 * k * k - 1.0) / 2.0),
        math.sin(-math.pi * m_pulses * math.sqrt(4.0 * k * k - 1.0) / 2.0),
    )
    c1 = complex((-1) ** (n_qubits - 1) / math.sqrt(2.0), 0.0)
    return c0, c1


def spectator_phase_increment(rabi: float, delta: float, duration: float) -> float:
    """Continuous (unwrapped) phase a spectator amplitude acquires in one pulse.

    The spectator factor is [cos(theta) + i*(Delta/lambda)*sin(theta)] *
    exp(-i*Delta*duration/2) with theta = lambda*duration/2.  Its phase is
    tracked without wrapping: the elliptical first factor stays within a
    quarter turn of theta, which pins the winding number.  Resonant pulses
    (delta == 0) contribute no spectator phase.
    """
    if delta == 0.0:
        return 0.0
    lam = math.hypot(rabi, delta)
    theta = 0.5 * lam * duration
    ratio = abs(delta) / lam
    wrapped = math.atan2(ratio * math.sin(theta), math.cos(theta))
    unwrapped = wrapped + 2.0 * math.pi * round((theta - wrapped) / (2.0 * math.pi))
    if delta < 0.0:
        unwrapped = -unwrapped
    return unwrapped - 0.5 * delta * duration


def perturb_protocol(
    protocol: Protocol,
    pulse_range: tuple[int, int],
    amplitude_jitter: float,
    seed: int,
) -> Protocol:
    """Add seeded uniform jitter to the drive strength of a pi-pulse range.

    ``pulse_range`` is inclusive and counts pi-pulses from 1: the pulses
    whose area rabi * duration is pi, so the CN protocol's opening
    pi/2-pulse is skipped.  Durations are kept fixed, so jittered pulses are
    no longer exact pi-pulses.  Raises if the range is empty or runs past
    the protocol's pi-pulses, or if a jittered strength would be <= 0.
    """
    lo, hi = pulse_range
    if amplitude_jitter < 0:
        raise ValueError("amplitude_jitter must be >= 0")
    pi_pulses = [math.isclose(p.area, math.pi) for p in protocol.pulses]
    count = sum(pi_pulses)
    if not 1 <= lo <= hi <= count:
        raise ValueError(f"pulse range ({lo}, {hi}) must lie within pi-pulses 1 to {count}")
    rng = random.Random(seed)
    new_pulses: list[Pulse] = []
    ordinal = 0
    for pulse, is_pi in zip(protocol.pulses, pi_pulses):
        if is_pi:
            ordinal += 1
            if lo <= ordinal <= hi and amplitude_jitter > 0:
                eta = rng.uniform(-amplitude_jitter, amplitude_jitter)
                new_rabi = pulse.rabi + eta
                if new_rabi <= 0:
                    raise ValueError(
                        f"jitter {eta} drives pulse {ordinal} rabi non-positive"
                    )
                pulse = replace(pulse, rabi=new_rabi)
        new_pulses.append(pulse)
    return replace(protocol, pulses=tuple(new_pulses))
