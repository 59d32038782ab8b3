import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpulse as sp
from spinpulse.chain import (
    RESONANCE_TOL, basis_energies, descend, near_resonant_window, nearest_flip, pack_states,
)

CFG2 = sp.ChainConfig(n_qubits=2, larmor_spacing=10.0, base_larmor=100.0)


def two_loop_energy(state, cfg):
    zeeman = 0.0
    for k in range(cfg.n_qubits):
        s = 1 - 2 * ((state >> k) & 1)
        zeeman += cfg.omega(k) * s
    bonds = 0
    for k in range(cfg.n_qubits - 1):
        bonds += 1 if ((state >> k) & 1) == ((state >> (k + 1)) & 1) else -1
    return -0.5 * zeeman - 0.5 * cfg.coupling * bonds


class TestBasisEnergy:
    def test_two_spin_ground_state(self):
        # -(100 + 110)/2 - 1/2
        assert sp.basis_energy(0, CFG2) == pytest.approx(-105.5, abs=1e-12)

    def test_single_excitations_split_by_larmor_spacing(self):
        e_spin0 = sp.basis_energy(0b01, CFG2)
        e_spin1 = sp.basis_energy(0b10, CFG2)
        assert e_spin1 - e_spin0 == pytest.approx(CFG2.larmor_spacing, abs=1e-12)

    def test_three_spin_all_flipped(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=100.0)
        total = sum(cfg.omega(k) for k in range(3))
        expected = 0.5 * total - cfg.coupling
        assert sp.basis_energy(0b111, cfg) == pytest.approx(expected, abs=1e-12)

    def test_state_size_check(self):
        with pytest.raises(ValueError):
            sp.basis_energy(1 << 2, CFG2)

    @given(
        data=st.data(),
        n=st.integers(1, 300),
        spacing=st.one_of(st.integers(1, 200).map(float), st.floats(0.01, 500.0)),
        base=st.floats(0.0, 5000.0),
        coupling=st.sampled_from([0.7, 1.0, 2.35]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_two_loop_formula(self, data, n, spacing, base, coupling):
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=spacing, base_larmor=base,
                             coupling=coupling)
        state = data.draw(st.integers(0, (1 << n) - 1))
        reference = two_loop_energy(state, cfg)
        assert sp.basis_energy(state, cfg) == reference

    @given(
        data=st.data(),
        n=st.integers(1, 300),
        spacing=st.one_of(st.integers(1, 200).map(float), st.floats(0.01, 500.0)),
        base=st.one_of(st.just(0.0), st.floats(0.0, 5000.0)),
        coupling=st.sampled_from([0.7, 1.0, 2.35]),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_bit_identical_to_two_loop_formula(self, data, n, spacing, base,
                                                     coupling):
        # repr also tells the signed zeros of base_larmor 0 apart
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=spacing, base_larmor=base,
                             coupling=coupling)
        states = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        assert [repr(e) for e in basis_energies(states, cfg)] == [
            repr(two_loop_energy(s, cfg)) for s in states
        ]

    def test_empty_zero_base_and_out_of_range_batches(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0)
        assert basis_energies([], cfg) == []
        zero = sp.ChainConfig(n_qubits=1, larmor_spacing=10.0, base_larmor=0.0)
        assert [repr(e) for e in basis_energies([0, 1], zero)] == [
            repr(two_loop_energy(s, zero)) for s in (0, 1)
        ]
        for bad in (8, -1):
            with pytest.raises(ValueError, match=f"state {bad} does not fit in 3 bits"):
                basis_energies([0, bad], cfg)


class TestTransitionFrequency:
    def test_inner_spin_both_neighbours_flipped(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=10.0, base_larmor=100.0)
        state = sp.state_from_string("0101")
        # spin 1 has neighbours spin 2 ('1') and spin 0 ('1')
        assert sp.transition_frequency(state, 1, cfg) == pytest.approx(
            cfg.omega(1) - 2 * cfg.coupling, abs=1e-12
        )

    def test_end_spin_with_ground_neighbour(self):
        assert sp.transition_frequency(0, 0, CFG2) == pytest.approx(
            CFG2.omega(0) + CFG2.coupling, abs=1e-12
        )

    def test_inner_spin_opposite_neighbours(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=100.0)
        state = sp.state_from_string("100")
        # spin 1: neighbours spin 2 ('1') and spin 0 ('0')
        assert sp.transition_frequency(state, 1, cfg) == pytest.approx(
            cfg.omega(1), abs=1e-12
        )

    @given(state=st.integers(min_value=0, max_value=255), k=st.integers(0, 7))
    @settings(max_examples=80, deadline=None)
    def test_matches_energy_difference(self, state, k):
        cfg = sp.ChainConfig(n_qubits=8, larmor_spacing=17.0, base_larmor=300.0)
        direct = abs(
            sp.basis_energy(state ^ (1 << k), cfg) - sp.basis_energy(state, cfg)
        )
        assert sp.transition_frequency(state, k, cfg) == pytest.approx(
            direct, abs=1e-9
        )


class TestResonantFrequencyTable:
    def test_two_spin_table(self):
        table = sp.resonant_frequency_table(CFG2)
        expected = sorted(
            [CFG2.omega(0) - 1, CFG2.omega(0) + 1, CFG2.omega(1) - 1, CFG2.omega(1) + 1]
        )
        assert table == pytest.approx(expected)

    def test_three_spin_table_size(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0)
        assert len(sp.resonant_frequency_table(cfg)) == 7

    @pytest.mark.parametrize("n", [2, 5, 11, 40])
    def test_size_is_3n_minus_2(self, n):
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=10.0)
        assert len(sp.resonant_frequency_table(cfg)) == 3 * n - 2

    def test_all_positive_when_base_exceeds_twice_coupling(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=10.0, base_larmor=2.5)
        assert all(f > 0 for f in sp.resonant_frequency_table(cfg))


def nearest_detuning(state, freq, cfg):
    """Spin of ``state``'s nearest flip and its signed detuning |E_flip| - freq."""
    k, e = nearest_flip(state, freq, cfg)
    return k, abs(e) - freq


class TestClassifyTransition:
    # nearest_flip plus the near-resonant window: resonant means |detuning|
    # below RESONANCE_TOL * J, near-resonant up to the window, else non-resonant
    CFG = sp.ChainConfig(n_qubits=8, larmor_spacing=100.0)

    def test_ground_state_near_resonant_at_inner_line(self):
        n = self.CFG.n_qubits
        spin, delta = nearest_detuning(0, self.CFG.omega(n - 2), self.CFG)
        assert RESONANCE_TOL <= abs(delta) <= near_resonant_window(self.CFG)
        assert spin == n - 2
        assert delta == pytest.approx(2.0, abs=1e-9)

    def test_resonant_on_domain_state(self):
        n = self.CFG.n_qubits
        state = sp.state_from_string("11100000")
        spin, delta = nearest_detuning(state, self.CFG.omega(n - 2) - 2.0, self.CFG)
        assert abs(delta) < RESONANCE_TOL
        assert spin == n - 2

    def test_ground_state_double_detuned(self):
        n = self.CFG.n_qubits
        _, delta = nearest_detuning(0, self.CFG.omega(n - 2) - 2.0, self.CFG)
        assert RESONANCE_TOL <= abs(delta) <= near_resonant_window(self.CFG)
        assert delta == pytest.approx(4.0, abs=1e-9)

    def test_far_frequency_is_non_resonant(self):
        _, delta = nearest_detuning(0, self.CFG.omega(3) + 50.0, self.CFG)
        assert abs(delta) > near_resonant_window(self.CFG)

    @given(state=st.integers(min_value=0, max_value=2**8 - 1))
    @settings(max_examples=60, deadline=None)
    def test_detunings_from_table_are_multiples_of_coupling(self, state):
        # every table frequency lies within 4J of its own spin's line for any
        # neighbour configuration, so no table drive is ever non-resonant
        cfg = self.CFG
        for freq in sp.resonant_frequency_table(cfg):
            _, delta = nearest_detuning(state, freq, cfg)
            assert abs(delta) <= near_resonant_window(cfg)
            assert min(abs(abs(delta) - v) for v in (0.0, 2.0, 4.0)) < 1e-9

    def test_ambiguous_window_raises(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=6.0, base_larmor=60.0)
        # drive between the spin-1 and spin-0 lines: both fall within 4J
        with pytest.raises(sp.AmbiguousTransitionError):
            nearest_flip(0, cfg.omega(1) - 2.0, cfg)


def nearest_by_full_scan(state, freq, cfg):
    """(spin, signed detuning) of the nearest flip found by trying every spin
    of the chain; None when a second flip is also in the window."""
    window = near_resonant_window(cfg)
    scored = sorted(
        (abs(abs(sp.flip_energy(state, k, cfg)) - freq), k) for k in range(cfg.n_qubits)
    )
    if len(scored) > 1 and scored[1][0] <= window:
        return None  # a second transition in the window: ambiguous
    k = scored[0][1]
    return k, abs(sp.flip_energy(state, k, cfg)) - freq


class TestWindowAgainstFullScan:
    @given(
        n=st.integers(2, 12),
        spacing_j=st.floats(3.0, 20.0),
        coupling=st.sampled_from([0.7, 1.3]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_classification_matches_full_scan(self, n, spacing_j, coupling, data):
        cfg = sp.ChainConfig(
            n_qubits=n, larmor_spacing=spacing_j * coupling, coupling=coupling
        )
        window = near_resonant_window(cfg)
        state = data.draw(st.integers(0, (1 << n) - 1), label="state")
        for line in sp.resonant_frequency_table(cfg):
            for offset in (0.0, 2.0, -2.0, 0.3, -0.3):
                freq = line + offset * coupling
                expected = nearest_by_full_scan(state, freq, cfg)
                if expected is None:
                    with pytest.raises(sp.AmbiguousTransitionError):
                        nearest_flip(state, freq, cfg)
                    continue
                got = nearest_detuning(state, freq, cfg)
                if abs(expected[1]) <= window:
                    assert got == expected
                else:
                    # no flip in the window: the state is left alone
                    assert abs(got[1]) > window


class TestDescend:
    @pytest.mark.parametrize("words, n", [(1, 64), (2, 128), (4, 200), (16, 1000)])
    def test_equals_masked_assignment_at_word_boundaries(self, words, n):
        rng = random.Random(n)
        states = [rng.getrandbits(n) for _ in range(40)] + [0, (1 << n) - 1]
        rows = pack_states(states, n)
        for k in {0, 63, 64, 127, n - 1} & set(range(n)):
            # rows drawn twice or not at all, flipped or not
            lineage = np.array([2 * rng.randrange(len(states)) + rng.randrange(2)
                                for _ in range(60)], np.int32)
            assert 0 < (lineage & 1).sum() < len(lineage)
            for codes in (lineage, lineage[:0]):
                expected = rows[codes >> 1]
                expected[(codes & 1).astype(bool), words - 1 - k // 64] ^= np.uint64(1 << (k % 64))
                out = descend(rows, k, codes)
                assert out.dtype == rows.dtype and out.shape == (len(codes), words)
                assert out.tobytes() == expected.tobytes()
                assert [int.from_bytes(bytes(r), "big") for r in out] == [
                    states[c >> 1] ^ ((c & 1) << k) for c in codes.tolist()]
        assert rows.tobytes() == pack_states(states, n).tobytes()  # input untouched


class TestChainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            sp.ChainConfig(n_qubits=0, larmor_spacing=10.0)
        with pytest.raises(ValueError):
            sp.ChainConfig(n_qubits=4, larmor_spacing=-1.0)
        with pytest.raises(ValueError):
            sp.ChainConfig(n_qubits=4, larmor_spacing=10.0, cutoff=2.0)

    @pytest.mark.parametrize("field, value, error", [
        ("n_qubits", "6", TypeError), ("n_qubits", 6.5, TypeError), ("n_qubits", True, TypeError),
        ("larmor_spacing", "a", TypeError), ("larmor_spacing", math.nan, ValueError),
        ("base_larmor", math.inf, ValueError), ("coupling", math.inf, ValueError),
        ("cutoff", "x", TypeError),
    ])
    def test_rejects_malformed_fields(self, field, value, error):
        fields = {"n_qubits": 4, "larmor_spacing": 10.0, field: value}
        with pytest.raises(error, match=field):
            sp.ChainConfig(**fields)

    def test_default_base_larmor(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=10.0)
        assert cfg.base_larmor == 100.0
        assert cfg.omega(3) == pytest.approx(130.0)

    def test_state_string_round_trip(self):
        s = sp.state_from_string("10100")
        assert s == 0b10100
        assert sp.state_to_string(s, 5) == "10100"
