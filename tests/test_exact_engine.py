import cmath
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpulse as sp
from spinpulse import exact_engine
from spinpulse.error_model import _block_modes
from spinpulse.exact_engine import (
    dense_amplitudes, dense_view, diagonalize, interaction_to_rotating, rotating_diagonal,
    rotating_to_interaction,
)
from spinpulse.sparse_engine import PulsePairs, SparseState


def two_level_closed_form(rabi, delta, tau, t0, start_lower):
    """Interaction-picture amplitudes of the driven pair after one pulse."""
    lam = math.hypot(rabi, delta)
    half = 0.5 * lam * tau
    cross = 1j * (rabi / lam) * math.sin(half)
    if start_lower:
        c_m = complex(math.cos(half), (delta / lam) * math.sin(half)) * cmath.exp(
            -0.5j * delta * tau
        )
        c_p = cross * cmath.exp(1j * (t0 * delta + 0.5 * delta * tau))
    else:
        c_p = complex(math.cos(half), -(delta / lam) * math.sin(half)) * cmath.exp(
            0.5j * delta * tau
        )
        c_m = cross * cmath.exp(-1j * (t0 * delta + 0.5 * delta * tau))
    return c_m, c_p


class TestRotatingHamiltonian:
    def test_single_spin_matrix(self):
        cfg = sp.ChainConfig(n_qubits=1, larmor_spacing=10.0, base_larmor=100.0)
        pulse = sp.Pulse(frequency=97.0, rabi=0.4, duration=1.0)
        ham = sp.build_rotating_hamiltonian(pulse, cfg)
        expected = np.array([[-(100.0 - 97.0) / 2, -0.2], [-0.2, (100.0 - 97.0) / 2]])
        assert np.allclose(ham, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_every_row_has_n_offdiagonals(self, n):
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=10.0)
        pulse = sp.Pulse(frequency=cfg.omega(0), rabi=0.4, duration=1.0)
        ham = sp.build_rotating_hamiltonian(pulse, cfg)
        off = ham - np.diag(np.diag(ham))
        assert (np.count_nonzero(off, axis=1) == n).all()
        assert np.allclose(off[off != 0], -0.2)

    def test_symmetric(self):
        cfg = sp.ChainConfig(n_qubits=5, larmor_spacing=13.0)
        pulse = sp.Pulse(frequency=cfg.omega(2) + 2.0, rabi=0.37, duration=1.0)
        ham = sp.build_rotating_hamiltonian(pulse, cfg)
        assert np.array_equal(ham, ham.T)

    def test_resonant_subblock_matches_two_level_block(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=50.0)
        state = sp.state_from_string("1000")
        nu = sp.transition_frequency(state, 2, cfg)
        pulse = sp.Pulse(frequency=nu, rabi=0.3, duration=1.0)
        ham = sp.build_rotating_hamiltonian(pulse, cfg)
        partner = state ^ (1 << 2)
        sub = ham[np.ix_([state, partner], [state, partner])]
        assert sub[0, 1] == pytest.approx(-0.15)
        assert sub[1, 0] == pytest.approx(-0.15)
        # diagonal difference is the pair detuning (zero here)
        assert sub[1, 1] - sub[0, 0] == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_matches_energy_minus_frame_shift(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=20.0)
        nu = cfg.omega(1)
        diag = rotating_diagonal(nu, cfg)
        for s in range(8):
            n_flipped = bin(s).count("1")
            chi = -0.5 * nu * (cfg.n_qubits - 2 * n_flipped)
            assert diag[s] == pytest.approx(sp.basis_energy(s, cfg) - chi, rel=1e-12)

    def test_cap_enforced(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=10.0)
        pulse = sp.Pulse(frequency=cfg.omega(0), rabi=0.4, duration=1.0)
        with pytest.raises(sp.QubitCapError):
            sp.build_rotating_hamiltonian(pulse, cfg, cap=5)


class TestEigenSystem:
    def test_residual_and_orthonormality(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=25.0)
        pulse = sp.Pulse(frequency=cfg.omega(3), rabi=0.4, duration=1.0)
        ham = sp.build_rotating_hamiltonian(pulse, cfg)
        eig = diagonalize(ham)
        scale = np.linalg.norm(ham)
        residual = ham @ eig.vectors - eig.vectors * eig.values
        assert np.max(np.abs(residual)) <= 1e-10 * scale
        gram = eig.vectors.T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(ham.shape[0]))) <= 1e-10


class TestEvolvePulseExact:
    def test_zero_duration_is_identity(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=30.0)
        pulse = sp.Pulse(frequency=cfg.omega(1), rabi=0.2, duration=5.0)
        rng = np.random.default_rng(5)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        eig = diagonalize(sp.build_rotating_hamiltonian(pulse, cfg))
        out = sp.evolve_pulse_exact(amps, eig, 0.0)
        assert np.allclose(out, amps, atol=1e-12)

    def test_norm_preserved(self):
        cfg = sp.ChainConfig(n_qubits=5, larmor_spacing=40.0)
        pulse = sp.Pulse(frequency=cfg.omega(2) - 2.0, rabi=0.31, duration=9.0)
        rng = np.random.default_rng(6)
        amps = rng.normal(size=32) + 1j * rng.normal(size=32)
        amps /= np.linalg.norm(amps)
        eig = diagonalize(sp.build_rotating_hamiltonian(pulse, cfg))
        out = sp.evolve_pulse_exact(amps, eig, pulse.duration)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    # The real products form the same terms as the complex formula, summed in
    # another order.  Each output sums d terms of size at most 1, so the two
    # differ by a few ulps times sqrt(d) (32 at d = 1024); 1e-13 is ~450 ulps.
    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_matches_the_complex_formula(self, n):
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=100.0)
        pulse = sp.Pulse(frequency=cfg.omega(n // 2) + 2.0, rabi=0.3, duration=12.5)
        eig = diagonalize(sp.build_rotating_hamiltonian(pulse, cfg))
        rng = np.random.default_rng(n)
        amps = rng.normal(size=cfg.dimension) + 1j * rng.normal(size=cfg.dimension)
        amps /= np.linalg.norm(amps)
        v = eig.vectors
        for tau in (0.0, pulse.duration, 37.3):
            expected = v @ (np.exp(-1j * eig.values * tau) * (v.T @ amps))
            out = sp.evolve_pulse_exact(amps, eig, tau)
            assert np.max(np.abs(out - expected)) <= 1e-13
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_resonant_pi_transfers_population(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=100.0)
        nu = sp.transition_frequency(0, 2, cfg)
        pulse = sp.Pulse(frequency=nu, rabi=0.1, duration=math.pi / 0.1)
        report = sp.run_protocol_exact(
            SparseState.from_basis(0), [pulse], cfg, cutoff=1e-300
        )
        mu = sp.mu_base(0.1, 100.0)
        assert report.probability(1 << 2) >= 1.0 - 20.0 * mu


class TestDenseView:
    def test_leaked_is_the_dropped_mass_itself(self):
        # 1e-20 below the cutoff next to a kept probability of one: the total
        # minus the kept sum rounds it away
        re, im = np.array([1.0, 0.0, 1e-10, 0.0]), np.array([0.0, 0.0, 0.0, -1e-10])
        amps, leaked = dense_view(re, im, 1e-15)
        assert amps == {0: 1 + 0j}
        assert leaked == math.fsum([1e-10**2, 1e-10**2]) > 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(3, 10))
    @settings(max_examples=100, deadline=None)
    def test_leaked_never_negative(self, seed, bits):
        # cut a random normalized vector at one of its four smallest
        # probabilities, so that the dropped mass is far below one
        rng = np.random.default_rng(seed)
        c = rng.normal(size=1 << bits) + 1j * rng.normal(size=1 << bits)
        c /= np.linalg.norm(c)
        probs = c.real**2 + c.imag**2
        threshold = np.sort(probs)[rng.integers(4)]
        amps, leaked = dense_view(c.real, c.imag, threshold)
        dropped = math.fsum(probs[probs < threshold].tolist())
        assert leaked >= 0.0
        assert leaked == pytest.approx(dropped, rel=1e-12, abs=0.0)
        assert set(amps) == set(np.flatnonzero(probs >= threshold).tolist())


def reference_run(pulses, cfg, cutoff):
    """``run_protocol_exact`` from basis state 0, written as a plain loop that
    keeps every eigensystem until the end: (amps, leaked, ledger items of
    the final states)."""
    eigensystems = {}
    c, t = dense_amplitudes({0: 1.0}, cfg.dimension), 0.0
    ledger = {s: 0 for s in dense_view(c.real, c.imag, cutoff)[0]}
    for idx, pulse in enumerate(pulses, start=1):
        key = (pulse.frequency, pulse.rabi)
        if key not in eigensystems:
            eigensystems[key] = diagonalize(sp.build_rotating_hamiltonian(pulse, cfg))
        a = interaction_to_rotating(c, pulse, cfg, t)
        a = sp.evolve_pulse_exact(a, eigensystems[key], pulse.duration)
        t += pulse.duration
        c = rotating_to_interaction(a, pulse, cfg, t)
        for s in dense_view(c.real, c.imag, cutoff)[0]:
            ledger.setdefault(s, idx)
    amps, leaked = dense_view(c.real, c.imag, cutoff)
    return amps, leaked, [(s, ledger[s]) for s in amps]


def max_overlap(pulses):
    """Most distinct (frequency, rabi) keys needed at one pulse: keys whose
    first pulse is at or before it and whose last pulse is at or after it."""
    keys = [(p.frequency, p.rabi) for p in pulses]
    spans = {k: (keys.index(k), len(keys) - 1 - keys[::-1].index(k)) for k in keys}
    return max(sum(lo <= i <= hi for lo, hi in spans.values()) for i in range(len(keys)))


class TestEigensystemLifetime:
    """Each distinct pulse is diagonalized once and its eigensystem is freed
    after the last pulse that uses it."""

    CFG = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
    A = sp.Pulse(frequency=CFG.omega(1), rabi=0.2, duration=5.0)
    B = sp.Pulse(frequency=CFG.omega(2) + 1.0, rabi=0.3, duration=4.0)
    C = sp.Pulse(frequency=CFG.omega(3), rabi=0.2, duration=6.0)

    @pytest.mark.parametrize("schedule", ["cn", "ABACB"])
    def test_at_most_the_live_eigensystems_are_kept(self, monkeypatch, schedule):
        if schedule == "cn":
            pulses = sp.build_cn_protocol(self.CFG, rabi=0.2, equal_epsilon=False).pulses
        else:
            pulses = [getattr(self, name) for name in schedule]
        refs = []  # a weak reference to every eigensystem made
        counts = {"calls": 0, "peak": 0}

        def alive():
            return sum(ref() is not None for ref in refs)

        diagonalize_all, evolve = exact_engine.diagonalize, exact_engine.evolve_pulse_exact

        def counting_diagonalize(ham):
            eig = diagonalize_all(ham)
            counts["calls"] += 1
            refs.append(weakref.ref(eig))
            counts["peak"] = max(counts["peak"], alive())
            return eig

        def watched_evolve(amps, eig, tau):
            counts["peak"] = max(counts["peak"], alive())
            return evolve(amps, eig, tau)

        monkeypatch.setattr(exact_engine, "diagonalize", counting_diagonalize)
        monkeypatch.setattr(exact_engine, "evolve_pulse_exact", watched_evolve)
        report = sp.run_protocol_exact({0: 1.0}, pulses, self.CFG, cutoff=1e-12)
        assert counts["calls"] == len({(p.frequency, p.rabi) for p in pulses})
        assert counts["peak"] == max_overlap(pulses) == 2
        assert alive() == 0
        monkeypatch.undo()
        amps, leaked, ledger = reference_run(pulses, self.CFG, 1e-12)
        assert report.final_amps == amps
        assert report.leaked == leaked
        assert list(report.generation.items()) == ledger


class TestFrameConversions:
    CFG = sp.ChainConfig(n_qubits=4, larmor_spacing=30.0)
    PULSE = sp.Pulse(frequency=320.0, rabi=0.3, duration=2.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        c /= np.linalg.norm(c)
        back = sp.rotating_to_interaction(
            sp.interaction_to_rotating(c, self.PULSE, self.CFG, t=13.7),
            self.PULSE,
            self.CFG,
            t=13.7,
        )
        assert np.allclose(back, c, atol=1e-12)

    def test_time_zero_is_identity(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        out = sp.interaction_to_rotating(c, self.PULSE, self.CFG, t=0.0)
        assert np.allclose(out, c, atol=1e-15)

    def test_single_pulse_phases_match_closed_form(self):
        # N=2 with a huge Larmor spacing: the exact amplitudes reduce to the
        # driven-pair solution up to dressing at first order in rabi/spacing
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=1e6)
        delta = 2.0
        nu = sp.transition_frequency(0, 1, cfg) - delta
        pulse = sp.Pulse(frequency=nu, rabi=0.25, duration=6.0)
        report = sp.run_protocol_exact(
            SparseState.from_basis(0), [pulse], cfg, cutoff=1e-300
        )
        c_m_ref, c_p_ref = two_level_closed_form(0.25, delta, 6.0, 0.0, True)
        assert report.final_amps[0] == pytest.approx(c_m_ref, abs=1e-6)
        assert report.final_amps[2] == pytest.approx(c_p_ref, abs=1e-6)


class TestTwoLevelEquivalence:
    def test_hundred_random_pulses_reproduce_closed_form(self):
        # isolated driven pair: rotating-frame diagonalization, evolution and
        # frame conversions must reproduce the closed-form solution exactly
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            rabi = rng.uniform(0.02, 1.0)
            delta = rng.uniform(-4.0, 4.0)
            tau = rng.uniform(0.1, 30.0)
            t0 = rng.uniform(0.0, 50.0)
            e_m = rng.uniform(-5.0, 5.0)
            h = np.array([[e_m, -rabi / 2], [-rabi / 2, e_m + delta]])
            evals, vecs = np.linalg.eigh(h)
            diag = np.array([e_m, e_m + delta])
            for start_lower in (True, False):
                c = np.zeros(2, complex)
                c[0 if start_lower else 1] = 1.0
                a = np.exp(-1j * diag * t0) * c
                a = vecs @ (np.exp(-1j * evals * tau) * (vecs.T @ a))
                c_out = np.exp(1j * diag * (t0 + tau)) * a
                ref = two_level_closed_form(rabi, delta, tau, t0, start_lower)
                worst = max(worst, abs(c_out[0] - ref[0]), abs(c_out[1] - ref[1]))
        assert worst < 1e-10


class TestTwoLevelBlock:
    # error_model._block_modes: (spin, members, levels, modes), each mode an
    # (eigenvalue, components along members) pair, lower eigenvalue first
    CFG = sp.ChainConfig(n_qubits=5, larmor_spacing=60.0)

    def test_resonant_block_mixes_evenly(self):
        state = sp.state_from_string("10000")
        nu = sp.transition_frequency(state, 3, self.CFG)
        pulse = sp.Pulse(frequency=nu, rabi=0.2, duration=1.0)
        _, _, _, ((e_low, v_low), (e_high, v_high)) = _block_modes(
            state, 0.0, PulsePairs(pulse, self.CFG, 0.0)
        )
        assert np.allclose(np.abs(v_low), [1 / math.sqrt(2)] * 2, atol=1e-9)
        assert np.allclose(np.abs(v_high), [1 / math.sqrt(2)] * 2, atol=1e-9)
        assert e_high - e_low == pytest.approx(0.2, rel=1e-9)

    def test_weak_drive_mixing_amplitude(self):
        rabi = 0.01
        nu = self.CFG.omega(2)  # ground-state detuning 2J
        pulse = sp.Pulse(frequency=nu, rabi=rabi, duration=1.0)
        _, _, _, ((_, v_low), _) = _block_modes(0, 0.0, PulsePairs(pulse, self.CFG, 0.0))
        assert v_low[1] == pytest.approx(rabi / 4.0, rel=1e-3)
        assert v_low[0] == pytest.approx(1.0 - rabi**2 / 32.0, rel=1e-6)

    def test_splitting_is_generalized_rabi(self):
        pulse = sp.Pulse(frequency=self.CFG.omega(2), rabi=0.3, duration=1.0)
        _, _, _, ((e_low, _), (e_high, _)) = _block_modes(0, 0.0, PulsePairs(pulse, self.CFG, 0.0))
        assert e_high - e_low == pytest.approx(math.hypot(0.3, 2.0), rel=1e-12)

    def test_non_resonant_state_is_its_own_block(self):
        pulse = sp.Pulse(frequency=self.CFG.omega(2) + 30.0, rabi=0.3, duration=1.0)
        assert _block_modes(0, 1.5, PulsePairs(pulse, self.CFG, 0.0)) == (
            None, (0,), (1.5,), ((1.5, (1.0,)),)
        )

    def test_upper_level_has_same_block_with_members_swapped(self):
        upper = sp.state_from_string("00100")
        pulse = sp.Pulse(frequency=self.CFG.omega(2) + 1.5, rabi=0.3, duration=1.0)
        spin, members, levels, modes = _block_modes(0, 0.0, PulsePairs(pulse, self.CFG, 0.0))
        spin_u, members_u, levels_u, modes_u = _block_modes(
            upper, levels[1], PulsePairs(pulse, self.CFG, 0.0)
        )
        assert (spin_u, members_u) == (spin, members[::-1])
        assert levels_u == pytest.approx(levels[::-1], abs=1e-12)
        assert modes[1][0] - modes[0][0] == pytest.approx(math.hypot(0.3, 0.5), rel=1e-12)
        for (e, vec), (e_u, vec_u) in zip(modes, modes_u):
            assert e_u == pytest.approx(e, abs=1e-12)
            # the same eigenvector up to sign
            assert abs(np.dot(vec_u[::-1], vec)) == pytest.approx(1.0, abs=1e-12)


class TestFirstOrderLeakage:
    def test_leakage_scales_with_inverse_square_distance(self):
        # A near-resonantly driven ground state dribbles into one-flip states
        # at amplitude ~ (rabi/2)/gap per pulse edge.  The pulse-end value
        # oscillates around twice the static admixture (rabi/2delta)^2, so
        # the scale is checked on a duration average against that mean.
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=150.0)
        rabi = 0.05
        k = 1
        nu = cfg.omega(k)  # detuning 2J on the ground state
        base = math.pi / rabi
        ratios = {1: [], 2: [], 3: []}
        n_tau = 12
        for i in range(n_tau):
            tau = base * (1.0 + 0.04 * i)
            pulse = sp.Pulse(frequency=nu, rabi=rabi, duration=tau)
            report = sp.run_protocol_exact(
                SparseState.from_basis(0), [pulse], cfg, cutoff=1e-300
            )
            for d in (1, 2, 3):
                expect = (rabi / 2.0) ** 2 / (d * cfg.larmor_spacing) ** 2
                ratios[d].append(report.probability(1 << (k + d)) / expect)
        for d in (1, 2, 3):
            mean = sum(ratios[d]) / n_tau
            assert 0.5 * 2.0 <= mean <= 1.5 * 2.0, (d, mean)


class TestErrorVersusDrive:
    def test_error_dips_at_2pik_drives(self):
        # scanning the drive strength, the total unwanted probability has
        # deep minima exactly at the revolution-closing values
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
        results = {}
        k4 = sp.rabi_for_2pik(2.0, 4)
        k5 = sp.rabi_for_2pik(2.0, 5)
        for rabi in (k4, 0.5 * (k4 + k5), k5):
            proto = sp.build_cn_protocol(cfg, rabi=rabi, equal_epsilon=True)
            rep = sp.run_protocol_exact(
                SparseState.from_basis(0), proto, cfg, cutoff=1e-300
            )
            results[rabi] = (
                1.0
                - rep.probability(proto.initial_state)
                - rep.probability(proto.target_state)
            )
        midpoint = 0.5 * (k4 + k5)
        assert results[k4] < 0.02 * results[midpoint]
        assert results[k5] < 0.02 * results[midpoint]


class TestOracleEquivalence:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_table_pulse_sequences_agree_with_exact(self, data):
        # fuzz the two-level reduction against the dense solver: arbitrary
        # pulses drawn from the resonance table, arbitrary areas.  Individual
        # probabilities agree up to first order in rabi/spacing (dressing of
        # the measured bare populations).
        cfg = sp.ChainConfig(n_qubits=5, larmor_spacing=5000.0)
        table = sp.resonant_frequency_table(cfg)
        pulses = []
        for _ in range(data.draw(st.integers(1, 4), label="n_pulses")):
            freq = data.draw(st.sampled_from(table), label="freq")
            rabi = data.draw(st.floats(0.05, 0.3), label="rabi")
            area = data.draw(st.floats(0.3, 2.2), label="area")
            pulses.append(
                sp.Pulse(frequency=freq, rabi=rabi, duration=area * math.pi / rabi)
            )
        rep_s = sp.run_protocol(
            SparseState.from_basis(0), pulses, cfg, cutoff=1e-300
        )
        rep_e = sp.run_protocol_exact(
            SparseState.from_basis(0), pulses, cfg, cutoff=1e-300
        )
        tol = 6.0 * max(p.rabi for p in pulses) / (2.0 * cfg.larmor_spacing)
        for s in range(cfg.dimension):
            assert abs(rep_s.probability(s) - rep_e.probability(s)) < tol + 1e-9

    def test_sparse_engine_matches_exact_within_dressing_scale(self):
        # individual branch probabilities of the exact run differ from the
        # two-level result by first order in rabi/spacing (the instantaneous
        # dressing), not by the smaller mu*M leakage
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=1600.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.2, equal_epsilon=True)
        rep_s = sp.run_protocol(
            SparseState.from_basis(0), proto, cfg, cutoff=1e-14
        )
        rep_e = sp.run_protocol_exact(
            SparseState.from_basis(0), proto, cfg, cutoff=1e-14
        )
        scale = math.sqrt(sp.mu_base(0.2, cfg.larmor_spacing))
        for s in (proto.initial_state, proto.target_state):
            assert abs(rep_s.probability(s) - rep_e.probability(s)) < 3.0 * scale
