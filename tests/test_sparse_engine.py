import cmath
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpulse as sp
from spinpulse import report as report_module, sparse_engine
from spinpulse.chain import (
    descend, near_resonant_window, nearest_flip, pack_states, window_spins,
)
from spinpulse.error_model import _block_modes
from spinpulse.sparse_engine import (
    PACKED_MIN_STATES, PackedAmps, PulsePairs, SparseState, apply_pulse, prune,
)

CFG2 = sp.ChainConfig(n_qubits=2, larmor_spacing=10.0, base_larmor=100.0)


def stored_norm(state):
    return math.fsum(c.real * c.real + c.imag * c.imag for c in state.amps.values())


def detuned_pulse(cfg, detuning, rabi, duration):
    """Pulse addressing spin N-1 of the ground state with a chosen detuning."""
    nu = sp.transition_frequency(0, cfg.n_qubits - 1, cfg) - detuning
    return sp.Pulse(frequency=nu, rabi=rabi, duration=duration)


def reference_apply_pulse(state, pulse, cfg):
    """The kernel as first written: one block computed per in-window state."""
    nu, rabi, tau, t0 = pulse.frequency, pulse.rabi, pulse.duration, state.time
    window = near_resonant_window(cfg)
    spins = window_spins(nu, cfg)
    amps = state.amps
    new_amps = {}
    seen = set()
    for s in sorted(amps):
        if s in seen:
            continue
        if len(spins) == 1:
            k = spins[0]
            e = sp.flip_energy(s, k, cfg)
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
        m, p = (s, partner) if e > 0.0 else (partner, s)
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


def packed_apply_pulse(state, pulse, cfg, cutoff=0.0):
    """``apply_pulse`` with the packed kernel on every one-spin window."""
    with mock.patch.object(sparse_engine, "PACKED_MIN_STATES", 1):
        return apply_pulse(state, pulse, cfg, cutoff)


def outcome(kernel, state, pulse, cfg):
    try:
        out = kernel(state, pulse, cfg)
    except sp.AmbiguousTransitionError:
        return "ambiguous"
    return list(out.amps.items()), out.leaked, out.time


@st.composite
def kernel_inputs(draw):
    """A chain, a pulse near one spin's lines, and states with and without partners."""
    n = draw(st.integers(2, 130))
    # a small base Larmor frequency gives flip energies of zero on spin 0
    cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=draw(st.floats(3.0, 200.0)),
                         base_larmor=draw(st.sampled_from([None, 0.0, 1.0, 2.0])))
    k = draw(st.integers(0, n - 1))
    nu = cfg.omega(k) + draw(
        st.one_of(st.sampled_from([0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -4.0]),
                  st.floats(-7.0, 7.0))
    )
    pulse = sp.Pulse(frequency=nu, rabi=draw(st.floats(0.01, 1.0)),
                     duration=draw(st.floats(0.1, 50.0)))
    near = range(max(0, k - 3), min(n, k + 4))
    amps = {}
    for s in draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=30)):
        amps[s] = complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
        if draw(st.booleans()):
            amps[s ^ (1 << draw(st.sampled_from(near)))] = complex(
                draw(st.floats(-1, 1)), draw(st.floats(-1, 1)))
    state = SparseState(amps=amps, leaked=draw(st.floats(0.0, 0.1)),
                        time=draw(st.floats(0.0, 1e4)))
    return state, pulse, cfg


class TestKernelAgainstReference:
    @given(kernel_inputs())
    @settings(max_examples=300, deadline=None)
    def test_bit_identical_to_reference_kernel(self, inputs):
        # same amplitudes in the same insertion order, same ledger and time,
        # and AmbiguousTransitionError in the same cases
        state, pulse, cfg = inputs
        assert outcome(apply_pulse, state, pulse, cfg) == outcome(
            reference_apply_pulse, state, pulse, cfg
        )

    @given(kernel_inputs(), st.sampled_from([0.0, 1e-3, 0.1, 0.5]))
    @settings(max_examples=300, deadline=None)
    def test_packed_kernel_bit_identical_to_reference_kernel(self, inputs, cutoff):
        # every pulse with one window spin runs packed, whatever the state
        # count, and prunes in the kernel as prune does after the reference
        state, pulse, cfg = inputs
        with mock.patch.object(sparse_engine, "PACKED_MIN_STATES", 1):
            packed = outcome(lambda *a: apply_pulse(*a, cutoff), state, pulse, cfg)
        expected = outcome(lambda *a: prune(reference_apply_pulse(*a), cutoff), state, pulse, cfg)
        assert packed == expected
        assert repr(packed) == repr(expected)  # signed zeros too

    @given(kernel_inputs())
    @settings(max_examples=100, deadline=None)
    def test_first_order_blocks_are_the_kernels_pairs(self, inputs):
        # error_model._block_modes reads the same rule as the kernels: each
        # stored state's block holds exactly the states apply_pulse writes
        # for it alone, or both raise AmbiguousTransitionError
        state, pulse, cfg = inputs
        pairs = PulsePairs(pulse, cfg, state.time)
        for s in sorted(state.amps):
            alone = SparseState({s: state.amps[s]}, time=state.time)
            kernels = [apply_pulse, packed_apply_pulse, reference_apply_pulse]
            try:
                spin, members, _, _ = _block_modes(s, 0.0, pairs)
            except sp.AmbiguousTransitionError:
                assert [outcome(f, alone, pulse, cfg) for f in kernels] == ["ambiguous"] * 3
                continue
            assert members == ((s,) if spin is None else (s, s ^ (1 << spin)))
            for kernel in kernels:
                assert sorted(kernel(alone, pulse, cfg).amps) == sorted(members)

    def test_inputs_cover_both_window_kinds_and_ambiguity(self):
        # the strategy above reaches one-spin and multi-spin windows, and
        # pulses the two-level reduction must refuse
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=3.0)
        pulse = sp.Pulse(frequency=cfg.omega(2) + 1.5, rabi=0.2, duration=3.0)
        assert len(window_spins(pulse.frequency, cfg)) > 1
        state = SparseState(amps={0: 1.0 + 0j, 1 << 2: 0.5j, 0b101010: 0.3})
        assert outcome(reference_apply_pulse, state, pulse, cfg) == "ambiguous"
        assert outcome(apply_pulse, state, pulse, cfg) == "ambiguous"
        # and empty windows: 7J off a spin's line, with spacing above 13J
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=20.0)
        pulse = sp.Pulse(frequency=cfg.omega(3) + 7.0, rabi=0.2, duration=3.0)
        assert window_spins(pulse.frequency, cfg) == []
        pairs = PulsePairs(pulse, cfg, state.time)
        assert [_block_modes(s, 0.0, pairs)[:2] for s in state.amps] == [
            (None, (s,)) for s in state.amps
        ]
        assert outcome(apply_pulse, state, pulse, cfg)[0] == list(state.amps.items())


def with_code(s, k, code, n):
    """``s`` with bits k-1, k and k+1 set to the 3-bit ``code``, within n bits."""
    span = 7 << k >> 1
    return (s & ~span | code << k >> 1) & ((1 << n) - 1)


class TestKernelEdges:
    """The packed kernel where a neighbourhood code spans two words, at the
    chain's ends, for each of the 8 codes, and on signed zeros."""

    @pytest.mark.parametrize("n", [64, 65, 128, 130, 200, 1000])
    def test_neighbourhood_codes(self, n):
        # bits k-1 and k+1 come from the next word when (k-1) % 64 >= 62; at
        # k = 0 bit -1 reads 0, and at k = N-1 bit N does
        rng = random.Random(n)
        for k in sorted({0, 1, 62, 63, 64, 65, 127, 128, n - 1} & set(range(n))):
            states = [rng.getrandbits(n) for _ in range(20)]
            states += [with_code(s, k, code, n) for s in states[:10] for code in range(8)]
            codes = sparse_engine._neighbourhood_codes(pack_states(states, n), k)
            expected = [s << 1 >> k & 7 for s in states]
            assert codes.tolist() == expected, k
            assert len(set(expected)) == (8 if 0 < k < n - 1 else 4)

    ZEROS = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    AMPS = ZEROS + [complex(-0.0, 0.6), complex(0.3, -0.0), complex(-0.25, 0.5)]

    @pytest.mark.parametrize("code", range(8))
    @pytest.mark.parametrize("cutoff", [0.0, 0.1])
    def test_each_code_against_reference(self, code, cutoff):
        # window spin 64, whose neighbour bits 63 and 65 lie in two words, at
        # Larmor frequencies omega: the state with bit 64 clear has flip
        # energy omega + J (s63 + s65), s = +1 for a clear bit: the lower
        # level at 50, and not where that energy is 0 or below at 1 and 0;
        # at 50 the pairs of flip energy 52 lie out of the window
        k, n = 64, 130
        levels = set()
        for omega, nu in ((50.0, 46.5), (1.0, 2.0), (0.0, 1.0)):
            cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0,
                                 base_larmor=omega - 100.0 * k)
            pulse = sp.Pulse(frequency=nu, rabi=0.3, duration=5.0)
            pairs = PulsePairs(pulse, cfg, 2.0)
            assert pairs.spins == [k]
            rng = random.Random(code)
            amps = {}
            for i, c in enumerate(self.AMPS + self.AMPS[::-1]):
                s = with_code(rng.getrandbits(n), k, code, n)
                amps[s] = c
                if i >= len(self.AMPS):  # the partner stored too
                    amps[s ^ 1 << k] = self.AMPS[i % len(self.AMPS)]
            state = SparseState(amps, leaked=0.125, time=2.0)
            lead = pairs.pair(next(iter(amps)))
            assert (lead is None) == (omega == 50.0 and code & 5 == 0)
            if lead is not None:
                levels.add(lead[1] > 0.0)  # the stored state is the lower level
            packed = outcome(lambda *a: packed_apply_pulse(*a, cutoff), state, pulse, cfg)
            expected = outcome(lambda *a: prune(reference_apply_pulse(*a), cutoff),
                               state, pulse, cfg)
            assert repr(packed) == repr(expected), omega
        # the stored state's flip energy, +-(omega + J (s63 + s65)), changes
        # sign over these omegas for codes 1, 4, 5 and 7 only
        assert len(levels) == (2 if code in (1, 4, 5, 7) else 1)

    @pytest.mark.parametrize("n", [64, 65, 130, 1000])
    def test_pairs_at_word_edges(self, n):
        # dense row sets with partners (rows that differ in bit k only), rows
        # that differ from a stored row in one word other than k's, with and
        # without bit k flipped too, and rows that differ in a neighbour bit
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0)
        for k in sorted({0, 63, 64, 127, 128, n - 1} & set(range(n))):
            rng = random.Random(n * 1000 + k)
            base = [rng.getrandbits(n) for _ in range(120)]
            states = set(base)
            for s in base[:80]:
                states.add(s ^ 1 << k)
            others = [w for w in range(-(-n // 64)) if w != k // 64]
            for s in base[40:100] if others else ():
                other = rng.getrandbits(64) << 64 * rng.choice(others) & (1 << n) - 1
                states.update({s ^ other, s ^ other ^ 1 << k})
            for s in base[100:]:
                states.add(s ^ 1 << rng.choice([max(k - 1, 0), min(k + 1, n - 1)]))
            amps = {s: complex(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)) for s in states}
            state = SparseState(amps, leaked=0.0625, time=3.0)
            for offset in (-2.0, 0.0, 2.0):
                pulse = sp.Pulse(frequency=cfg.omega(k) + offset, rabi=0.3, duration=5.0)
                pairs = PulsePairs(pulse, cfg, 3.0)
                assert pairs.spins == [k]
                # pairs with both members stored are evolved at every offset
                assert sum(s ^ 1 << k in amps and pairs.pair(s) is not None for s in amps) > 20
                for cutoff in (0.0, 1e-3):
                    packed = outcome(lambda *a: packed_apply_pulse(*a, cutoff), state, pulse, cfg)
                    expected = outcome(lambda *a: prune(reference_apply_pulse(*a), cutoff),
                                       state, pulse, cfg)
                    assert repr(packed) == repr(expected), (k, offset, cutoff)

    def test_stored_pair_out_of_the_window(self):
        # a lower row whose partner is stored but whose pair lies out of the
        # window writes both rows alone
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=100.0)
        pulse = sp.Pulse(frequency=cfg.omega(0) + 5.5, rabi=0.3, duration=5.0)
        assert PulsePairs(pulse, cfg, 0.0).spins == [0]
        state = SparseState({0: 0j, 1: 0j})
        assert outcome(packed_apply_pulse, state, pulse, cfg) == ([(0, 0j), (1, 0j)], 0.0, 5.0)


class TestApplyPulse:
    def test_resonant_pi_pulse_full_transfer(self):
        pulse = detuned_pulse(CFG2, 0.0, 0.3, math.pi / 0.3)
        out = apply_pulse(SparseState.from_basis(0), pulse, CFG2)
        partner = 1 << 1
        assert abs(out.amps[0]) < 1e-15
        assert out.amps[partner] == pytest.approx(1j, abs=1e-12)

    def test_2pik_pulse_leaves_spectator_untouched(self):
        rabi = sp.rabi_for_2pik(2.0, 4)
        pulse = detuned_pulse(CFG2, 2.0, rabi, math.pi / rabi)
        out = apply_pulse(SparseState.from_basis(0), pulse, CFG2)
        assert abs(abs(out.amps[0]) - 1.0) < 1e-12
        assert abs(out.amps.get(1 << 1, 0j)) ** 2 < 1e-12

    def test_closed_form_for_random_near_resonant_pulses(self):
        rng = random.Random(2024)
        for _ in range(1000):
            rabi = rng.uniform(0.02, 1.0)
            delta = rng.uniform(0.05, 3.9) * rng.choice((-1.0, 1.0))
            tau = rng.uniform(0.1, 30.0)
            pulse = detuned_pulse(CFG2, delta, rabi, tau)
            out = apply_pulse(SparseState.from_basis(0), pulse, CFG2)
            p_stay = abs(out.amps[0]) ** 2
            p_move = abs(out.amps.get(1 << 1, 0j)) ** 2
            eps = sp.epsilon(rabi, delta, tau)
            assert p_stay + p_move == pytest.approx(1.0, abs=1e-12)
            assert p_move == pytest.approx(eps, abs=1e-12)

    def test_written_phases_from_lower_level(self):
        rabi, delta, tau = 0.3, 2.0, 5.0
        start = SparseState(amps={0: 1.0 + 0j}, time=7.5)
        pulse = detuned_pulse(CFG2, delta, rabi, tau)
        out = apply_pulse(start, pulse, CFG2)
        lam = math.hypot(rabi, delta)
        half = 0.5 * lam * tau
        expect_stay = complex(
            math.cos(half), (delta / lam) * math.sin(half)
        ) * cmath.exp(-0.5j * delta * tau)
        expect_move = (
            1j * (rabi / lam) * math.sin(half)
            * cmath.exp(1j * (7.5 * delta + 0.5 * delta * tau))
        )
        assert out.amps[0] == pytest.approx(expect_stay, abs=1e-12)
        assert out.amps[1 << 1] == pytest.approx(expect_move, abs=1e-12)

    def test_written_phases_from_upper_level(self):
        rabi, delta, tau = 0.3, -2.0, 5.0
        upper = 1 << 1
        start = SparseState(amps={upper: 1.0 + 0j}, time=3.25)
        pulse = detuned_pulse(CFG2, delta, rabi, tau)
        out = apply_pulse(start, pulse, CFG2)
        # driven pair ordered (lower=ground, upper=flip); the pulse sits above
        # the transition so the pair detuning is negative
        dpair = abs(sp.flip_energy(0, 1, CFG2)) - pulse.frequency
        lam = math.hypot(rabi, dpair)
        half = 0.5 * lam * tau
        expect_stay = complex(
            math.cos(half), -(dpair / lam) * math.sin(half)
        ) * cmath.exp(0.5j * dpair * tau)
        expect_move = (
            1j * (rabi / lam) * math.sin(half)
            * cmath.exp(-1j * (3.25 * dpair + 0.5 * dpair * tau))
        )
        assert out.amps[upper] == pytest.approx(expect_stay, abs=1e-12)
        assert out.amps[0] == pytest.approx(expect_move, abs=1e-12)

    def test_coherent_merge_of_tracked_pair(self):
        # both levels populated: the block must act as one unitary, not as
        # two independent transfers
        a, b = 0.6 + 0.1j, complex(math.sqrt(1 - abs(0.6 + 0.1j) ** 2), 0)
        start = SparseState(amps={0: a, 2: b})
        pulse = detuned_pulse(CFG2, 2.0, 0.3, 4.0)
        out = apply_pulse(start, pulse, CFG2)
        only_lower = apply_pulse(SparseState(amps={0: a}), pulse, CFG2)
        only_upper = apply_pulse(SparseState(amps={2: b}), pulse, CFG2)
        for s in (0, 2):
            superposed = only_lower.amps.get(s, 0j) + only_upper.amps.get(s, 0j)
            assert out.amps[s] == pytest.approx(superposed, abs=1e-12)
        assert sum(abs(c) ** 2 for c in out.amps.values()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_non_resonant_state_passes_through(self):
        # a frequency in the middle of the gap between two spins' lines is
        # non-resonant for every state
        cfg = sp.ChainConfig(n_qubits=5, larmor_spacing=100.0)
        pulse = sp.Pulse(frequency=cfg.omega(3) + 50.0, rabi=0.2, duration=11.0)
        far = sp.state_from_string("00001")
        start = SparseState(amps={far: 0.5 + 0.5j}, time=2.0)
        out = apply_pulse(start, pulse, cfg)
        assert out.amps[far] == 0.5 + 0.5j

    @given(
        amp_angle=st.floats(0, 2 * math.pi),
        split=st.floats(0.0, 1.0),
        rabi=st.floats(0.05, 1.0),
        delta=st.floats(-3.9, 3.9),
        tau=st.floats(0.2, 25.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitarity_per_pulse(self, amp_angle, split, rabi, delta, tau):
        a = math.sqrt(split) * cmath.exp(1j * amp_angle)
        b = math.sqrt(1.0 - split)
        start = SparseState(amps={0: a, 2: b}, time=1.0)
        pulse = detuned_pulse(CFG2, delta, rabi, tau)
        out = apply_pulse(start, pulse, CFG2)
        assert stored_norm(out) == pytest.approx(1.0, abs=1e-12)


class TestPrune:
    def test_nothing_below_cutoff_is_identity(self):
        state = SparseState(amps={0: 0.8, 3: 0.6}, leaked=0.25)
        out = prune(state, 1e-6)
        assert out.amps == state.amps
        assert out.leaked == state.leaked

    def test_single_entry_below_cutoff(self):
        state = SparseState(amps={0: 1.0, 5: complex(math.sqrt(5e-7), 0)})
        out = prune(state, 1e-6)
        assert 5 not in out.amps
        assert out.leaked == pytest.approx(5e-7, rel=1e-9)

    def test_keeps_entries_at_exact_cutoff(self):
        state = SparseState(amps={4: complex(1e-3, 0)})
        out = prune(state, 1e-6)
        assert 4 in out.amps

    def test_norm_deficit_tracks_leaked(self):
        state = SparseState.from_basis(0)
        assert 1.0 - stored_norm(state) == pytest.approx(0.0, abs=1e-15)
        big = complex(math.sqrt(1.0 - 3.6e-7), 0)
        pruned = prune(SparseState(amps={0: big, 7: complex(6e-4, 0)}), 1e-6)
        assert 1.0 - stored_norm(pruned) == pytest.approx(3.6e-7, rel=1e-6)
        assert pruned.leaked == pytest.approx(3.6e-7, rel=1e-9)
        assert 1.0 - stored_norm(pruned) == pytest.approx(pruned.leaked, abs=1e-12)


class TestRunProtocol:
    def test_opening_pulse_makes_even_superposition(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.2)
        report = sp.run_protocol(
            SparseState.from_basis(0), [proto.pulses[0]], cfg
        )
        control = 1 << 5
        assert report.final_amps[0] == pytest.approx(1 / math.sqrt(2), abs=1e-12)
        assert report.final_amps[control] == pytest.approx(
            1j / math.sqrt(2), abs=1e-12
        )

    def test_full_protocol_matches_analytic_two_level_solution(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
        k = 2
        proto = sp.build_cn_protocol(cfg, k=k, equal_epsilon=True)
        report = sp.run_protocol(SparseState.from_basis(0), proto, cfg)
        assert len(report.final_amps) == 2
        c0_ref, c1_ref = sp.analytic_final_state(6, k)
        c0 = report.final_amps[proto.initial_state]
        c1 = report.final_amps[proto.target_state]
        assert abs(c0) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(c1) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert math.remainder(cmath.phase(c0) - cmath.phase(c0_ref), 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-9)
        )
        assert math.remainder(cmath.phase(c1) - cmath.phase(c1_ref), 2 * math.pi) == (
            pytest.approx(0.0, abs=1e-9)
        )

    def test_pi_pulses_move_flipped_branch_to_target(self):
        # the controlled-NOT action proper: with the control set, the pi-pulse
        # ladder walks the excitation to the target with certainty
        cfg = sp.ChainConfig(n_qubits=7, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.3)
        start = SparseState.from_basis(proto.path[1])
        report = sp.run_protocol(start, proto.pulses[1:], cfg)
        target = (1 << 6) | 1
        assert report.probability(target) == pytest.approx(1.0, abs=1e-12)

    def test_norm_plus_leaked_conserved_along_lossy_run(self):
        cfg = sp.ChainConfig(n_qubits=8, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.23, equal_epsilon=False)
        report = sp.run_protocol(
            SparseState.from_basis(0), proto, cfg, cutoff=1e-6, trace=True
        )
        for entry in report.trace:
            assert entry.norm + entry.leaked == pytest.approx(1.0, abs=1e-12)
        assert report.leaked > 0

    def test_generation_ledger_records_first_crossing(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.2, equal_epsilon=False)
        report = sp.run_protocol(SparseState.from_basis(0), proto, cfg)
        assert report.generation[0] == 0
        assert report.generation[proto.target_state] == len(proto)
        assert all(g >= 0 for g in report.generation.values())
        # the ledger holds final states only: path[1] is one after the first pulse
        opening = sp.run_protocol(SparseState.from_basis(0), proto.pulses[:1], cfg)
        assert opening.generation == {0: 0, proto.path[1]: 1}

    def test_bit_identical_reruns(self):
        cfg = sp.ChainConfig(n_qubits=10, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.17, equal_epsilon=False)
        a = sp.run_protocol(SparseState.from_basis(0), proto, cfg)
        b = sp.run_protocol(SparseState.from_basis(0), proto, cfg)
        assert a.final_amps == b.final_amps
        assert a.leaked == b.leaked
        assert list(a.generation.items()) == list(b.generation.items())

    def test_time_accumulates_durations(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.5)
        report = sp.run_protocol(SparseState.from_basis(0), proto, cfg)
        assert report.time == pytest.approx(
            sum(p.duration for p in proto.pulses), rel=1e-15
        )


def reference_run(initial, pulses, cfg, cutoff):
    """A whole run as first written: the reference kernel, the per-state prune
    loop and the int-keyed first-crossing loop over every stored state.

    Returns the final amplitudes, leaked, the ledger restricted to the final
    states in their order, and each final state that was stored, pruned and
    stored again, with the last pulse that stored it again.
    """
    state = initial
    generation = dict.fromkeys(state.amps, 0)
    again = {}
    for idx, pulse in enumerate(pulses, start=1):
        before = state.amps
        state = reference_apply_pulse(state, pulse, cfg)
        kept, leaked = {}, state.leaked
        for s, c in state.amps.items():
            p = c.real * c.real + c.imag * c.imag
            if p < cutoff:
                leaked += p
            else:
                kept[s] = c
        state = SparseState(kept, leaked, state.time)
        for s in kept:
            if s not in generation:
                generation[s] = idx
            elif s not in before:
                again[s] = idx
    final = state.amps
    return (list(final.items()), state.leaked, [(s, generation[s]) for s in final],
            {s: idx for s, idx in again.items() if s in final})


def random_superposition(n, count, spins, rng):
    """``count`` random states over all words; about half with their partner
    across one of ``spins``, amplitudes spread from 1e-4 to 1."""
    amps = {}
    while len(amps) < count:
        s = rng.getrandbits(n)
        amps[s] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * 10 ** rng.uniform(-4, 0)
        if rng.random() < 0.5:
            amps[s ^ (1 << rng.choice(spins))] = complex(rng.uniform(-1, 1), 0.3)
    return amps


def mixed_draw(n, count):
    """A run on ``n`` qubits from ``count`` random states whose pulses take
    turns on the packed kernel and the per-state loop: (cfg, spins, initial,
    pulses), ``spins`` being the window spins of the pulses."""
    cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0)
    # window spins at both ends and where bit k-1 or k+1 lies in another word
    spins = [k for k in (0, n - 1, 63, 64, 127, 128) if k < n]
    rng = random.Random(n * 1000 + count)
    pulses = [
        sp.Pulse(frequency=cfg.omega(k) + d, rabi=rng.uniform(0.1, 0.5),
                 duration=rng.uniform(1.0, 20.0))
        for k in spins for d in (0.0, 2.0, -2.0, 5.0, -1.0)
    ]
    rng.shuffle(pulses)
    # a pulse between two spins' lines addresses no spin; the last one
    # hands the kernel's rows back to the loop
    idle = sp.Pulse(frequency=cfg.omega(1) + 50.0, rabi=0.3, duration=2.0)
    pulses.insert(3, idle)
    pulses.append(idle)
    initial = SparseState(random_superposition(n, count, spins, rng), time=3.0)
    return cfg, spins, initial, pulses


# stored states at the start of a mixed run: below PACKED_MIN_STATES, and above
STARTS = [95, 300]


class TestPackedRuns:
    """Whole runs through run_protocol equal the per-state reference exactly:
    amplitudes in insertion order, leaked probability, ledger in order."""

    def test_starts_straddle_the_kernels_threshold(self):
        assert STARTS[0] < PACKED_MIN_STATES < STARTS[1]

    @pytest.fixture
    def lookups(self, monkeypatch):
        """States looked up one at a time in a PackedAmps: a run reads packed
        states through the dict ``as_dict`` holds instead."""
        calls, getitem = [], PackedAmps.__getitem__
        monkeypatch.setattr(PackedAmps, "__getitem__",
                            lambda self, s: calls.append(s) or getitem(self, s))
        return calls

    @pytest.mark.parametrize("n", [64, 65, 128, 129])
    @pytest.mark.parametrize("count", STARTS)
    def test_equal_to_reference_run(self, n, count, monkeypatch, lookups):
        packed_calls, kinds = [], []
        kernel, apply = sparse_engine._packed_pulse, sparse_engine.apply_pulse
        monkeypatch.setattr(sparse_engine, "_packed_pulse",
                            lambda *a: packed_calls.append(a[1]) or kernel(*a))

        def watched(state, *args):
            out = apply(state, *args)
            kinds.append((type(state.amps), type(out.amps)))
            return out

        monkeypatch.setattr(sparse_engine, "apply_pulse", watched)
        cfg, spins, initial, pulses = mixed_draw(n, count)
        report = sp.run_protocol(initial, pulses, cfg, cutoff=1e-6)
        final, leaked, generation, again = reference_run(initial, pulses, cfg, 1e-6)
        assert list(report.final_amps.items()) == final
        assert repr(list(report.final_amps.items())) == repr(final)  # signed zeros too
        assert report.leaked == leaked
        assert list(report.generation.items()) == generation
        # the packed kernel ran, on every window spin, and so did the loop,
        # with both hand-overs between them
        assert set(packed_calls) == set(spins)
        assert len(packed_calls) < len(pulses)
        assert {(dict, PackedAmps), (PackedAmps, dict)} <= set(kinds)
        # final states that were pruned and stored again keep their first crossing
        assert again
        assert all(report.generation[s] < last for s, last in again.items())
        assert not lookups

    @pytest.mark.parametrize("n", [64, 65, 128, 129])
    @pytest.mark.parametrize("count", STARTS)
    @pytest.mark.parametrize("hashing", ["constant", "shared"])
    def test_replay_exact_whatever_the_hash(self, n, count, hashing, monkeypatch):
        # the first-crossing replay's bucket prefilter only narrows the key
        # search: with every spin word zero, so that every row is a candidate,
        # or with the words of every other window spin zero, so that rows
        # such flips away from a final state share its bucket, the ledger is
        # unchanged
        cfg, spins, initial, pulses = mixed_draw(n, count)
        final_amps, _, generation, _ = reference_run(initial, pulses, cfg, 1e-6)
        spin_words, kernel, kept = report_module._spin_words, sparse_engine._packed_pulse, []

        def words(width):
            out = spin_words(width)
            out[slice(None) if hashing == "constant" else spins[::2]] = 0
            return out

        def watched(*args):
            out = kernel(*args)
            kept.append(out[0].rows)
            return out

        monkeypatch.setattr(report_module, "_spin_words", words)
        monkeypatch.setattr(sparse_engine, "_packed_pulse", watched)
        report = sp.run_protocol(initial, pulses, cfg, cutoff=1e-6)
        assert list(report.generation.items()) == generation

        # the rows the replay rebuilds (the kernel's): non-final ones fall in
        # the final states' buckets, and with "shared" others do not
        table, final = report_module._byte_tables(words((n + 63) // 64)), report.final_amps
        shift = np.uint64(64 - (16 * len(final) - 1).bit_length())
        occupied = set(report_module._row_hashes(pack_states(final, n), table) >> shift)
        rows = np.concatenate(kept)
        buckets = report_module._row_hashes(rows, table) >> shift
        is_final = np.isin(rows.view(f"V{rows.shape[1] * 8}").ravel(),
                           pack_states(final, n).view(f"V{rows.shape[1] * 8}").ravel())
        searched = np.isin(buckets, list(occupied))
        assert (searched & ~is_final).sum() > 1
        assert hashing == "constant" or (~searched).sum() > 1

    def test_lone_states_split_then_pair_up(self, lookups):
        # one pulse splits lone states; the next one sees pairs on both sides
        cfg = sp.ChainConfig(n_qubits=130, larmor_spacing=100.0)
        rng = random.Random(7)
        amps = {rng.getrandbits(130) & ~(1 << 64): 0.05 + 0.01j
                for _ in range(PACKED_MIN_STATES + 10)}
        pulse = sp.Pulse(frequency=cfg.omega(64) + 2.0, rabi=0.3, duration=5.0)
        initial = SparseState(amps)
        report = sp.run_protocol(initial, [pulse, pulse, pulse], cfg, cutoff=1e-5)
        final, leaked, generation, _ = reference_run(initial, [pulse] * 3, cfg, 1e-5)
        assert len(final) > len(amps)
        assert not lookups  # the run ends on packed states
        assert list(report.final_amps.items()) == final
        assert report.leaked == leaked
        assert list(report.generation.items()) == generation

    def test_traced_run_equals_the_loops_trace(self, monkeypatch):
        # trace rows read off packed rows: norm, state count and the reference
        # amplitude equal those of the same run on the per-state loop
        cfg = sp.ChainConfig(n_qubits=70, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.14, equal_epsilon=False)
        packed = sp.run_protocol(SparseState.from_basis(0), proto, cfg, cutoff=5e-7, trace=True)
        assert max(e.n_states for e in packed.trace) > PACKED_MIN_STATES
        monkeypatch.setattr(sparse_engine, "PACKED_MIN_STATES", math.inf)
        loop = sp.run_protocol(SparseState.from_basis(0), proto, cfg, cutoff=5e-7, trace=True)
        assert repr(packed.trace) == repr(loop.trace)
        assert packed.trace_csv() == loop.trace_csv()


class TestReplayHash:
    """The replay's hash of a rebuilt row, carried from its source row's,
    equals the hash computed from the row's bytes, and both equal the XOR of
    the set spins' words."""

    @pytest.mark.parametrize("n", [64, 65, 130, 200, 1000])
    def test_carried_equals_hash_of_rebuilt_rows(self, n):
        rng, gen = random.Random(n), np.random.default_rng(n)
        width = (n + 63) // 64
        words = report_module._spin_words(width)
        table = report_module._byte_tables(words)
        states = [0, (1 << n) - 1] + [rng.getrandbits(n) for _ in range(3000)]
        rows = pack_states(states, n)
        hashes = report_module._row_hashes(rows, table)
        expected = []
        for s in states[:200]:
            h = 0
            for i in range(n):
                if s >> i & 1:
                    h ^= int(words[i])
            expected.append(h)
        assert hashes[:200].tolist() == expected
        # chains of descend, each spin k several times, codes in both types
        for step, k in enumerate(sorted({0, 63, 64, n - 1} & set(range(n))) * 3):
            dtype = (np.uint16, np.uint32)[step % 2]
            codes = gen.integers(0, 2 * len(rows), size=len(rows) + 500).astype(dtype)
            rows = descend(rows, k, codes)
            hashes = report_module._descend_hashes(hashes, k, codes, words)
            assert np.array_equal(hashes, report_module._row_hashes(rows, table)), (k, step)

    def test_hashes_of_no_rows(self):
        table = report_module._byte_tables(report_module._spin_words(2))
        assert report_module._row_hashes(np.zeros((0, 2), ">u8"), table).shape == (0,)


class TestRepeatedPulses:
    """Repeats of one pulse at different start times, whose blocks differ
    only in the phase ph_x, and jittered copies of it, run on the packed
    kernel, give the per-state loop's run exactly."""

    def test_repeated_and_jittered_pulses(self, monkeypatch):
        n = 130
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0)
        rng = random.Random(26)
        base = [sp.Pulse(frequency=cfg.omega(k) + d, rabi=0.3, duration=d + 4.0)
                for k, d in ((64, 2.0), (63, -1.0), (65, 0.0))]
        jittered = [sp.Pulse(frequency=p.frequency + rng.uniform(-0.05, 0.05),
                             rabi=p.rabi, duration=p.duration) for p in base for _ in range(2)]
        pulses = base * 4 + jittered
        rng.shuffle(pulses)
        initial = SparseState(random_superposition(n, 300, [63, 64, 65], rng), time=1.5)
        calls, kernel = [], sparse_engine._packed_pulse
        monkeypatch.setattr(sparse_engine, "_packed_pulse",
                            lambda *a: calls.append(a[1]) or kernel(*a))
        packed = sp.run_protocol(initial, pulses, cfg, cutoff=1e-6)
        assert len(calls) == len(pulses)  # every pulse ran packed
        assert len(set(pulses)) == 9
        monkeypatch.setattr(sparse_engine, "PACKED_MIN_STATES", math.inf)
        loop = sp.run_protocol(initial, pulses, cfg, cutoff=1e-6)
        assert len(calls) == len(pulses)
        final, leaked, generation, _ = reference_run(initial, pulses, cfg, 1e-6)
        for report in (packed, loop):
            assert repr(list(report.final_amps.items())) == repr(final)
            assert report.leaked == leaked
            assert list(report.generation.items()) == generation


class TestLineageType:
    """The kernel's codes, 2 x input row + flipped bit, come in the narrowest
    unsigned type that holds 2 S - 1 for S input rows: uint16 up to 32,768
    rows, uint32 above."""

    CFG = sp.ChainConfig(n_qubits=200, larmor_spacing=100.0)
    PULSE = sp.Pulse(frequency=CFG.omega(100) + 2.0, rabi=0.3, duration=5.0)

    def superposition(self, count, seed):
        """``count`` states, the last one in an active pair, so that the last
        code is 2 count - 1."""
        rng = random.Random(seed)
        pairs = PulsePairs(self.PULSE, self.CFG, 0.0)
        amps = random_superposition(200, count - 1, [99, 100, 101], rng)
        amps = dict(list(amps.items())[:count - 1])
        last = next(s for s in iter(lambda: rng.getrandbits(200), None)
                    if s not in amps and pairs.pair(s) is not None)
        amps[last] = 0.5 + 0.25j
        return amps

    @pytest.mark.parametrize("count, dtype", [(32768, np.uint16), (32769, np.uint32)])
    def test_kernel_at_the_type_boundary(self, count, dtype):
        state = SparseState(self.superposition(count, count))
        out = apply_pulse(state, self.PULSE, self.CFG, 1e-6)
        expected = prune(reference_apply_pulse(state, self.PULSE, self.CFG), 1e-6)
        assert list(out.amps.items()) == list(expected.amps.items())
        assert out.leaked == expected.leaked
        k, codes, source = out.amps.lineage
        assert codes.dtype == dtype
        assert codes.max() == 2 * count - 1
        assert np.array_equal(source, pack_states(state.amps, 200))
        assert np.array_equal(descend(source, k, codes), pack_states(expected.amps, 200))

    def test_replay_of_both_types(self, monkeypatch):
        # a pulse on 32,768 rows logs uint16 codes and leaves more rows than
        # that, so the next one logs uint32 codes; the ledger is the reference's
        dtypes, kernel = [], sparse_engine._packed_pulse

        def watched(*args):
            out = kernel(*args)
            dtypes.append(out[0].lineage[1].dtype)
            return out

        monkeypatch.setattr(sparse_engine, "_packed_pulse", watched)
        initial = SparseState(self.superposition(32768, 1))
        pulses = [self.PULSE, sp.Pulse(frequency=self.CFG.omega(101), rabi=0.2, duration=7.0)]
        report = sp.run_protocol(initial, pulses, self.CFG, cutoff=1e-6)
        final, leaked, generation, _ = reference_run(initial, pulses, self.CFG, 1e-6)
        assert dtypes == [np.uint16, np.uint32]
        assert list(report.final_amps.items()) == final
        assert report.leaked == leaked
        assert list(report.generation.items()) == generation
        assert set(report.generation.values()) == {0, 1, 2}

    def test_input_rows_only_after_a_hand_over(self):
        # the kernel's lineage carries its input rows when its input was a
        # dict; after a kernel output the replay has rebuilt them already
        initial = SparseState(self.superposition(3 * PACKED_MIN_STATES, 3))
        pulses = [self.PULSE, sp.Pulse(frequency=self.CFG.omega(101), rabi=0.2, duration=7.0)]
        first = apply_pulse(initial, pulses[0], self.CFG, 1e-6)
        second = apply_pulse(first, pulses[1], self.CFG, 1e-6)
        assert np.array_equal(first.amps.lineage[2], pack_states(initial.amps, 200))
        assert type(second.amps) is PackedAmps and second.amps.lineage[2] is None
        report = sp.run_protocol(initial, pulses, self.CFG, cutoff=1e-6)
        final, leaked, generation, _ = reference_run(initial, pulses, self.CFG, 1e-6)
        assert list(report.final_amps.items()) == final
        assert report.leaked == leaked
        assert list(report.generation.items()) == generation
        assert set(report.generation.values()) == {0, 1, 2}


class TestPackedRows:
    @pytest.mark.parametrize("words", [1, 2, 4, 16])
    def test_sort_keys_order_rows_as_ints(self, words):
        # a row's void view is its sort key: a stable sort puts the states in
        # ascending order
        rng = random.Random(words)
        states = {0, 1, 255, 256, (1 << (64 * words)) - 1, 1 << (64 * words - 1)}
        for _ in range(500):
            # zero bytes anywhere, the low ones included, so that rows end in zeros
            b = bytes(rng.choice((0, rng.randrange(256))) for _ in range(8 * words))
            states.add(int.from_bytes(b, "little"))
            states.add(rng.getrandbits(8 * rng.randrange(1, 8 * words)) << 8)
        states = list(states)
        rng.shuffle(states)
        rows = pack_states(states, 64 * words)
        order = np.argsort(rows.view(f"V{8 * words}").ravel(), kind="stable")
        assert [states[i] for i in order] == sorted(states)

    def test_rows_hold_big_endian_words(self):
        states = [0, 1 << 64, (1 << 129) | 5, 256]
        packed = PackedAmps.pack(dict.fromkeys(states, 1j), 130)
        assert packed.rows.shape == (4, 3)
        assert [r.tobytes() for r in packed.rows] == [s.to_bytes(24, "big") for s in states]
        assert list(packed.items()) == [(s, 1j) for s in states]
        assert len(packed) == 4

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 1000])
    def test_as_dict_and_get_round_trip_leading_zero_bytes(self, n):
        # rows with zero bytes at either end, all-zero and all-ones rows among
        # them; an ``S`` item would drop a row's trailing zero bytes
        states = [s for s in (0, 1, 1 << 63, 1 << 64, (1 << n) - 1) if s < 1 << n]
        amps = {s: complex(i, -i) for i, s in enumerate(dict.fromkeys(states))}
        packed = PackedAmps.pack(amps, n)
        assert list(packed.as_dict().items()) == list(amps.items())
        for s, c in amps.items():
            assert packed.get(s) == c
        assert packed.get(2) is None

    def test_values_and_get_read_the_rows(self):
        amps = {0: -0.0 + 0.5j, 1 << 64: 0.25 - 0.0j, (1 << 129) | 5: -1e-300 + 3j, 256: 1j}
        packed = PackedAmps.pack(amps, 130)
        assert repr(list(packed.values())) == repr(list(amps.values()))
        for state in list(amps) + [1, 1 << 129, 1 << 192, -1, 2.0, None]:
            assert repr(packed.get(state)) == repr(amps.get(state))
        assert packed.get(7, 0j) == 0j
        assert packed._dict is None  # neither built the int-keyed dict
