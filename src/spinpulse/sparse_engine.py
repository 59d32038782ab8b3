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

Packed state: a pulse with one spin in its window and at least
``PACKED_MIN_STATES`` stored states runs on ``PackedAmps``, (S, ceil(N/64))
uint64 rows plus float64 real and imaginary parts that stay packed across
such pulses.  The pulse is a fixed number of array operations: a stable sort
by value, a search for each lower state's partner, slots by cumulative sum,
and the blocks in split real and imaginary arithmetic, which rounds as
CPython's complex product does (numpy's complex multiply does not).  Rows
are gathered with ``take``, several times cheaper than fancy indexing on
(S, W) arrays, and each pair's block coefficients come from one real table
indexed by its neighbour pattern.  The prune runs in the kernel, so rows are
built for the kept slots only, and the output keeps their lineage, which
``report.run_pulses`` logs for the first-crossing ledger.  Other pulses, and
smaller states, run the per-state loop, whose fixed cost per pulse is ~10x
lower, and then ``prune``.  Both give bit-identical amplitudes, order and
``leaked``.

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
    sort_keys,
    window_spins,
)
from .pulses import Protocol, Pulse, as_protocol
from .report import RunReport, make_report, reporting_cutoff, run_pulses

# Stored states from which a pulse with one spin in its window runs the packed
# kernel: below it the per-state loop is faster (measured at N=200 and 1000).
PACKED_MIN_STATES = 150


class PackedAmps(Mapping):
    """Amplitudes of S states as arrays: ``rows`` from ``chain.pack_states``,
    ``re`` and ``im``.  ``values`` and ``get``, which a traced run calls every
    pulse, read the arrays; other mapping access builds an int-keyed dict on
    first use.  The kernel's output carries ``lineage`` = (k, codes, input
    rows), from which ``chain.descend`` rebuilds ``rows``; None otherwise."""

    def __init__(self, rows: np.ndarray, re: np.ndarray, im: np.ndarray,
                 lineage: tuple | None = None):
        self.rows, self.re, self.im, self.lineage = rows, re, im, lineage
        self._dict: dict[int, complex] | None = None

    @classmethod
    def pack(cls, amps: Mapping[int, complex], n_qubits: int) -> "PackedAmps":
        c = np.fromiter(amps.values(), complex, len(amps))
        return cls(pack_states(amps, n_qubits), c.real.copy(), c.imag.copy())

    def as_dict(self) -> dict[int, complex]:
        if self._dict is None:
            # numpy drops the trailing zero bytes of an ``S`` item, as little-endian allows
            rows = self.rows.view(f"S{8 * self.rows.shape[1]}").ravel().tolist()
            states = [int.from_bytes(b, "little") for b in rows]
            self._dict = dict(zip(states, map(complex, self.re.tolist(), self.im.tolist())))
        return self._dict

    def values(self) -> list[complex]:
        c = np.empty(len(self.re), complex)
        c.real, c.imag = self.re, self.im
        return c.tolist()

    def get(self, state: int, default=None):
        try:
            key = state.to_bytes(8 * self.rows.shape[1], "little")
        except (AttributeError, OverflowError):  # not an int, or wider than the rows
            return default
        hit = np.flatnonzero(self.rows.view(f"S{len(key)}").ravel() == key)
        return complex(self.re[hit[0]], self.im[hit[0]]) if len(hit) else default

    def __getitem__(self, state: int) -> complex:
        return self.as_dict()[state]

    def __contains__(self, state) -> bool:
        return state in self.as_dict()

    def __iter__(self):
        return iter(self.as_dict())

    def __len__(self) -> int:
        return len(self.re)


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


def _packed_pulse(amps: PackedAmps, k: int, n: int, blocks: list, cutoff: float, leaked: float):
    """The per-state loop's pulse on packed rows, for the one window spin ``k``,
    then its prune: (kept amplitudes, ``leaked`` plus the dropped probability).

    ``blocks[j]`` is (e, block) of neighbour pattern j = bit(k-1) + 2 bit(k+1).
    Rows are built for the kept slots only; their ``lineage`` codes each one's
    row in ``amps`` and whether bit k was flipped (``chain.descend``).
    """
    keys = sort_keys(amps.rows)
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], amps.rows.take(order, axis=0)
    re, im = amps.re.take(order), amps.im.take(order)
    word, mask = k // 64, np.uint64(1 << (k % 64))
    upper = (rows[:, word] & mask) != 0
    # pair each lower state s with s + 2^k, keeping the partner's amplitude
    lower = np.flatnonzero(~upper)
    targets = rows.take(lower, axis=0)
    targets[:, word] |= mask
    pos = np.minimum(np.searchsorted(keys, sort_keys(targets)), len(keys) - 1)
    hit = (rows.take(pos, axis=0) == targets).all(axis=1)
    lower, pos = lower[hit], pos[hit]
    paired = np.zeros(len(keys), bool)
    paired[lower] = paired[pos] = True
    other_re, other_im = np.zeros(len(keys)), np.zeros(len(keys))
    other_re[lower], other_im[lower] = re.take(pos), im.take(pos)
    pattern = np.zeros(len(keys), np.intp)
    for weight, i in ((1, k - 1), (2, k + 1)):
        if 0 <= i < n:
            bits = (rows[:, i // 64] >> np.uint64(i % 64)) & np.uint64(1)
            pattern += weight * bits.astype(np.intp)

    # each out-of-window state is written alone, each pair at its first stored member
    active = np.array([blk is not None for _, blk in blocks])[pattern]
    writes_pair = active & ~(upper & paired)
    count = np.where(active, 2 * writes_pair, 1)
    # codes reach 2 S - 1: uint16 up to 32,768 input rows, uint32 above
    lineage = np.repeat(order.astype(np.min_scalar_type(2 * len(keys) - 1)), count)
    lineage <<= 1
    out_re, out_im = np.repeat(re, count), np.repeat(im, count)

    slot = (np.cumsum(count) - count)[writes_pair]
    lead = np.flatnonzero(writes_pair)
    pat = pattern[lead]
    e = np.array([e for e, _ in blocks])[pat]
    own_m = np.where(upper[lead], -e, e) > 0.0  # the stored state is the lower level
    pairs = (np.stack((re[lead], other_re[lead])), np.stack((im[lead], other_im[lead])))
    c = [np.where(own_m, x, x[::-1]) for x in pairs]  # rows C_m, C_p
    # per pattern: (diag, diag*), (ph_m, ph_m*), (cross, cross), (ph_x*, ph_x),
    # as one real table (quantity, real or imaginary part, m or p row, pattern)
    table = [[blk[i] for i in (0, 4, 2, 5, 1, 1, 3, 6)] if blk else [0j] * 8 for _, blk in blocks]
    table = np.array(table).reshape(4, 4, 2).transpose(1, 2, 0)
    diag, ph_m, cross, ph_x = np.stack((table.real, table.imag), axis=1).take(pat, axis=3)
    first = _mul(_mul(c, diag), ph_m)
    second = _mul(_mul([x[::-1] for x in c], cross), ph_x)
    # the m then the p slot of each pair; bit k of the stored row is flipped in
    # the p slot when the stored state is the lower level, else in the m slot
    lineage[slot + own_m] += 1
    for j in (0, 1):
        out_re[slot + j] = first[0][j] + second[0][j]
        out_im[slot + j] = first[1][j] + second[1][j]

    p = out_re * out_re + out_im * out_im
    drop = p < cutoff
    if drop.any():
        # summed in emission order, one addition at a time, as ``prune`` does
        leaked = float(np.add.accumulate(np.append(leaked, p[drop]))[-1])
        keep = ~drop
        lineage, out_re, out_im = lineage[keep], out_re[keep], out_im[keep]
    kept = PackedAmps(descend(amps.rows, k, lineage), out_re, out_im, (k, lineage, amps.rows))
    return kept, leaked


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
        blocks = [pairs.pattern(j) for j in range(4)]
        packed, leaked = _packed_pulse(
            amps, pairs.spins[0], cfg.n_qubits, blocks, cutoff, state.leaked
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
