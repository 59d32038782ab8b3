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

``PulsePairs`` is the one pairing rule, read by both kernels and by
``error_model``.  A block depends on the pair's flip energy only.  With one
spin k in the window, that is set by the neighbour bits k-1 and k+1, so each
pulse computes at most four blocks, one per neighbourhood pattern, and
applies each to every pair with that pattern using the same operations in
the same order.  With several, each state's ``chain.nearest_flip`` decides.

Emission order, which fixes the amplitudes' insertion order and that of
the ``leaked`` sum: states are visited in ascending order; one out of the
window is written as it is, and a pair when its first stored member comes
up, lower level first.

Packed state: a pulse with one spin k in its window and at least
``PACKED_MIN_STATES`` stored states runs on ``PackedAmps``, (S, ceil(N/64))
uint64 rows plus one complex128 amplitude array, which stay packed across
such pulses.  A row's words run most significant first, so its bytes order
it as the integer it holds, and the pulse is a fixed number of array
operations on the rows themselves: a stable sort of their ``void`` view;
the stored pairs, found by clearing bit k in one column of the sorted copy
and sorting again, stably, so that the two members of a pair are equal rows
side by side, the one with bit k clear first; and each row's neighbourhood
code, bits k-1, k and k+1 as ``PulsePairs.pair`` reads them, which indexes
one table per pulse (``_code_table``).  The table
gives the slots a row emits, which one holds the row with bit k flipped, and
the 16 real coefficients of its pair's two outputs, computed in split real
and imaginary arithmetic that rounds as CPython's complex product does
(numpy's complex multiply does not).  Slots come from a cumulative sum, and
each permutation of the amplitudes is one ``take``.  The prune runs in the
kernel, so rows are built (``chain.descend``) for the kept slots only, and
the output keeps their lineage, which ``report.run_pulses`` logs for the
first-crossing ledger: the codes, plus the input rows when the input was
not itself a kernel output.  Other pulses, and smaller states, run the
per-state loop, whose fixed cost per pulse is ~15x lower, and then
``prune``.  Both give bit-identical amplitudes, order and ``leaked``.

Not modelled: far-detuned leakage.  Flips outside the near-resonant window
are dropped, not propagated, and that channel is the dominant gate error at
the 2*pi*k drive points: there this engine reports an unwanted probability
near 3e-16 where the exact engine gives 4e-7 to 3e-4.
``error_model.first_order_error`` recovers it on short chains.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .chain import (
    ChainConfig,
    descend,
    flip_energy,
    near_resonant_window,
    nearest_flip,
    pack_states,
    window_spins,
)
from .pulses import Protocol, Pulse, as_protocol
from .report import RunReport, make_report, reporting_cutoff, run_pulses

# Stored states from which a pulse with one spin in its window runs the packed
# kernel.  Measured per pulse on the recorded calls of the N=200 Fig. 2 and
# N=1000 jittered runs (``tools/pulse_replay.py record``), both paths on the
# same inputs, each with its share of the first-crossing log and replay (best
# of 5, the paths interleaved call by call, 2-core host): the kernel wins from
# 100-124 states at N=200 (229 us a pulse against 263 us for the loop) and
# from 125-149 at N=1000 (365 against 452 us); the loop wins at 75-99 (185
# against 235 us at N=200) and 100-124 at N=1000 (345 against 526 us), and at
# 25-49 (82 and 102 us against 194 and 230 us).  Whole Fig. 2 runs with the
# threshold at 100, 110, 125 and 140 differ by less than the host's spread.
PACKED_MIN_STATES = 125


class PackedAmps(Mapping):
    """Amplitudes of S states as arrays: ``rows`` from ``chain.pack_states``
    and the complex128 amplitudes ``c``.  ``values`` and ``get``, which a
    traced run calls every pulse, read the arrays; other mapping access
    builds an int-keyed dict on first use.  The kernel's output carries
    ``lineage`` = (k, codes, source), from which ``chain.descend`` rebuilds
    ``rows``: source is the input rows when the input was no kernel output
    (a hand-over), else None, the replay having rebuilt the input's rows
    from its own lineage.  ``lineage`` is None outside the kernel."""

    def __init__(self, rows: np.ndarray, c: np.ndarray, lineage: tuple | None = None):
        self.rows, self.c, self.lineage = rows, c, lineage
        self._dict: dict[int, complex] | None = None

    @classmethod
    def pack(cls, amps: Mapping[int, complex], n_qubits: int) -> "PackedAmps":
        return cls(pack_states(amps, n_qubits), np.fromiter(amps.values(), complex, len(amps)))

    def as_dict(self) -> dict[int, complex]:
        if self._dict is None:
            rows = self.rows.view(f"V{8 * self.rows.shape[1]}").ravel().tolist()
            states = [int.from_bytes(b, "big") for b in rows]
            self._dict = dict(zip(states, self.c.tolist()))
        return self._dict

    def values(self) -> list[complex]:
        return self.c.tolist()

    def get(self, state: int, default=None):
        try:
            key = np.void(state.to_bytes(8 * self.rows.shape[1], "big"))
        except (AttributeError, OverflowError):  # not an int, or wider than the rows
            return default
        hit = np.flatnonzero(self.rows.view(key.dtype).ravel() == key)
        return complex(self.c[hit[0]]) if len(hit) else default

    def __getitem__(self, state: int) -> complex:
        return self.as_dict()[state]

    def __contains__(self, state) -> bool:
        return state in self.as_dict()

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.c)


@dataclass
class SparseState:
    """Sparse interaction-picture state plus the pruning ledger.

    ``amps`` maps basis states (integers) to complex amplitudes, as a dict or
    as ``PackedAmps``; ``leaked`` is the total probability removed by pruning,
    and ``time`` the absolute protocol time reached so far.  Engine operations
    return new instances; treat existing ones as immutable.
    """

    amps: Mapping[int, complex]
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


class PulsePairs:
    """Which pair each basis state joins under one pulse starting at ``t0``.

    ``pair(s)`` is (k, e, block) when s pairs with s ^ 2^k, e being the
    signed flip energy of s and block that of ``_block``, and None when s is
    left alone.  With one window spin k, ``pattern(j)`` gives (e, block) of
    neighbour pattern j = bit(k-1) + 2 bit(k+1), e that of the member whose
    bit k is 0.  Blocks are computed when first asked for.
    """

    __slots__ = ("pulse", "cfg", "spins", "_args", "_blocks")

    def __init__(self, pulse: Pulse, cfg: ChainConfig, t0: float):
        self.pulse, self.cfg = pulse, cfg
        self.spins = window_spins(pulse.frequency, cfg)
        self._args = pulse.frequency, pulse.rabi, pulse.duration, t0, near_resonant_window(cfg)
        self._blocks: dict = {}  # (e, block) by pattern j with one window spin, else block by |e|

    def pattern(self, j: int):
        entry = self._blocks.get(j)
        if entry is None:
            k = self.spins[0]
            e = flip_energy((j & 1) << k >> 1 | (j >> 1) << (k + 1), k, self.cfg)
            entry = self._blocks[j] = e, _block(e, *self._args)
        return entry

    def pair(self, s: int):
        spins = self.spins
        if len(spins) == 1:
            k = spins[0]
            bits = s << 1 >> k & 7  # bits k-1, k and k+1 of s
            e, blk = self.pattern(bits & 1 | bits >> 1 & 2)
            if bits & 2:
                e = -e
        elif spins:
            k, e = nearest_flip(s, self.pulse.frequency, self.cfg)
            if abs(e) not in self._blocks:
                self._blocks[abs(e)] = _block(e, *self._args)
            blk = self._blocks[abs(e)]
        else:
            return None
        return None if blk is None else (k, e, blk)


def _mul(a, b):
    """CPython's complex product on (real, imaginary) pairs of arrays."""
    (ar, ai), (br, bi) = a, b
    return ar * br - ai * bi, ar * bi + ai * br


def _code_table(pairs: PulsePairs):
    """The packed kernel's table for a pulse with one window spin k, indexed
    by a row's neighbourhood code 0-7: bits k-1, k and k+1 of its state
    (those ``PulsePairs.pair`` reads).  Returns:

    - ``count``, the slots the row emits: 1 out of the window, 2 in it;
    - ``flip``, the slot (0 for m, 1 for p) that holds the row with bit k
      flipped, the other one holding the row itself;
    - ``coef``, shape (8, 2, 8): the real and imaginary parts of alpha,
      beta, gamma and delta in out = (x alpha) beta + (y gamma) delta for
      the m and p slots, x being the stored amplitude and y its partner's.

    The stored amplitude's term comes first in both slots, so in the slot of
    the level that is not stored the two terms of the loop's sum change
    places; IEEE addition commutes exactly, signed zeros included.
    """
    blocks = [pairs.pattern(j) for j in range(4)]
    count, flip, coef = [], [], []
    for code in range(8):
        e, blk = blocks[code & 1 | code >> 1 & 2]
        if blk is None:
            count.append(1)
            flip.append(0)
            coef.extend((0j,) * 8)
            continue
        diag, cross, ph_m, ph_xc, diag_c, ph_mc, ph_x = blk
        own_m = (-e if code & 2 else e) > 0.0  # the stored state is the lower level
        count.append(2)
        flip.append(own_m)
        coef.extend((diag, ph_m, cross, ph_xc, cross, ph_x, diag_c, ph_mc) if own_m
                    else (cross, ph_xc, diag, ph_m, diag_c, ph_mc, cross, ph_x))
    coef = np.fromiter(coef, complex, 64).view(float).reshape(8, 2, 8)
    return np.array(count), np.array(flip, np.intp), coef.transpose(2, 1, 0).copy()


def _neighbourhood_codes(rows: np.ndarray, k: int) -> np.ndarray:
    """``s << 1 >> k & 7`` of the state s of each packed row: bits k-1, k
    and k+1."""
    words = rows.shape[1]
    if k == 0:
        return rows[:, -1] << np.uint64(1) & np.uint64(7)
    word, shift = divmod(k - 1, 64)
    code = rows[:, words - 1 - word] >> np.uint64(shift)
    if shift >= 62 and word + 1 < words:  # bit k+1, or bits k and k+1, in the next word
        code |= rows[:, words - 2 - word] << np.uint64(64 - shift)
    code &= np.uint64(7)
    return code


def _packed_pulse(amps: PackedAmps, k: int, table: tuple, cutoff: float, leaked: float):
    """The per-state loop's pulse on packed rows, for the one window spin ``k``,
    then its prune: (kept amplitudes, ``leaked`` plus the dropped probability).

    ``table`` is ``_code_table`` of the pulse.  Rows are built for the kept
    slots only; their ``lineage`` codes each one's row in ``amps`` and whether
    bit k was flipped (``chain.descend``).
    """
    count_of, flip_of, coef = table
    rows, words = amps.rows, amps.rows.shape[1]
    order = np.argsort(rows.view(f"V{8 * words}").ravel(), kind="stable")
    keys, c = rows.take(order, axis=0), amps.c.take(order)
    code = _neighbourhood_codes(keys, k).view(np.intp)  # 0-7: a free view
    # pair each state s with bit k clear with s + 2^k, if it is stored: with
    # bit k cleared their rows are equal, and a stable sort puts them side
    # by side, s first
    keys[:, words - 1 - k // 64] &= ~np.uint64(1 << k % 64)
    by_pair = np.argsort(keys.view(f"V{8 * words}").ravel(), kind="stable")
    keys = keys.take(by_pair, axis=0).view(np.uint64)  # native order: only == is asked
    # one != pass; each row's W flags, read as whole words, are 0 when it
    # equals the next row
    differs = (keys[1:] != keys[:-1]).view(f"u{min(8, words & -words)}")
    for w in range(1, differs.shape[1]):
        differs[:, 0] |= differs[:, w]
    t = np.flatnonzero(differs[:, 0] == 0)
    lower, pos = by_pair.take(t), by_pair.take(t + 1)

    # each out-of-window state is written alone, each pair by its first stored
    # member: the second one's count halves, to 0 in the window and 1 outside
    # it (both members share bits k-1 and k+1, so both are in it or neither)
    count = count_of.take(code)
    count[pos] &= 1
    # codes reach 2 S - 1: uint16 up to 32,768 input rows, uint32 above
    lineage = np.repeat(order.astype(np.min_scalar_type(2 * len(c) - 1)), count)
    lineage <<= 1
    out = np.repeat(c, count)
    lead = np.flatnonzero(count == 2)
    slot = np.cumsum(count).take(lead) - 2  # the m slot; the p slot follows
    code = code.take(lead)
    lineage[slot + flip_of.take(code)] += 1
    other = np.zeros(len(c), complex)
    other[lower] = c.take(pos)
    x, y = c.take(lead), other.take(lead)
    coef = coef.take(code, axis=2)
    first = _mul(_mul((x.real, x.imag), coef[0:2]), coef[2:4])
    second = _mul(_mul((y.real, y.imag), coef[4:6]), coef[6:8])
    pair = np.empty((2, len(lead)), complex)
    np.add(first[0], second[0], out=pair.real)
    np.add(first[1], second[1], out=pair.imag)
    out[slot], out[slot + 1] = pair

    p = out.real * out.real + out.imag * out.imag
    drop = p < cutoff
    if drop.any():
        # summed in emission order, one addition at a time, from ``leaked``,
        # as ``prune`` does
        dropped = p[drop]
        dropped[0] += leaked
        leaked = float(np.add.accumulate(dropped)[-1])
        keep = np.flatnonzero(~drop)
        lineage, out = lineage.take(keep), out.take(keep)
    source = rows if amps.lineage is None else None  # the replay rebuilds a kernel output's rows
    return PackedAmps(descend(rows, k, lineage), out, (k, lineage, source)), leaked


def apply_pulse(
    state: SparseState, pulse: Pulse, cfg: ChainConfig, cutoff: float = 0.0
) -> SparseState:
    """Propagate every tracked amplitude through one pulse, then drop the
    states with |C|^2 below ``cutoff`` into ``leaked`` (none at 0).

    With one spin in the window and at least ``PACKED_MIN_STATES`` states the
    result is packed and pruned in the kernel; otherwise it is a dict, pruned
    by ``prune``.  Pairs follow ``PulsePairs``.
    """
    t0 = state.time
    pairs = PulsePairs(pulse, cfg, t0)
    amps = state.amps
    if len(amps) >= PACKED_MIN_STATES and len(pairs.spins) == 1:
        # type() rather than isinstance(), which on a Mapping subclass goes
        # through ABCMeta at ~0.5 us a call, a few per cent of a 2-state pulse
        if type(amps) is not PackedAmps:
            amps = PackedAmps.pack(amps, cfg.n_qubits)
        packed, leaked = _packed_pulse(
            amps, pairs.spins[0], _code_table(pairs), cutoff, state.leaked
        )
        return SparseState(packed, leaked, t0 + pulse.duration)
    if type(amps) is PackedAmps:
        amps = amps.as_dict()

    new_amps: dict[int, complex] = {}
    for s, c in sorted(amps.items()):
        if s in new_amps:
            continue  # written with its partner
        pair = pairs.pair(s)
        if pair is None:
            new_amps[s] = c
            continue
        k, e, (diag, cross, ph_m, ph_xc, diag_c, ph_mc, ph_x) = pair
        partner = s ^ (1 << k)
        c_x = amps.get(partner, 0j)
        if e > 0.0:
            m, p, c_m, c_p = s, partner, c, c_x
        else:
            m, p, c_m, c_p = partner, s, c_x, c
        new_amps[m] = c_m * diag * ph_m + c_p * cross * ph_xc
        new_amps[p] = c_p * diag_c * ph_mc + c_m * cross * ph_x

    return prune(SparseState(new_amps, state.leaked, t0 + pulse.duration), cutoff)


def prune(state: SparseState, cutoff: float) -> SparseState:
    """Drop entries with |C|^2 below the cutoff, crediting them to ``leaked``."""
    leaked = state.leaked
    kept: dict[int, complex] = {}
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
    divided by two.  The generation ledger records, for every final state,
    the first pulse index after which it was stored above the cutoff.
    """
    for s in initial.amps:
        if not 0 <= s < cfg.dimension:
            raise ValueError(f"state {s} does not fit in {cfg.n_qubits} bits")
    protocol = as_protocol(protocol)
    threshold = reporting_cutoff(cfg, cutoff)
    _, (amps, leaked, time), generation, rows = run_pulses(
        initial,
        protocol,
        lambda state, pulse: apply_pulse(state, pulse, cfg, threshold),
        lambda state: (state.amps, state.leaked, state.time),
        trace,
    )
    return make_report(
        "perturbative",
        cfg,
        protocol,
        amps.as_dict() if type(amps) is PackedAmps else dict(amps),
        leaked,
        time,
        generation,
        trace=rows,
        doubled=doubled,
        prune_cutoff=threshold,
        seed=seed,
    )
