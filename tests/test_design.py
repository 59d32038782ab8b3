import cmath
import math

import pytest

import spinpulse as sp
from spinpulse.chain import RESONANCE_TOL, nearest_flip


class TestRabiFor2pik:
    def test_seventh_revolution_anchor(self):
        assert sp.rabi_for_2pik(2.0, 7) == pytest.approx(2.0 / math.sqrt(195.0))
        assert sp.rabi_for_2pik(2.0, 7) == pytest.approx(0.1432, abs=1e-4)

    def test_first_pi_value(self):
        assert sp.rabi_for_2pik(1.0, 1) == pytest.approx(1.0 / math.sqrt(3.0))

    def test_first_half_pi_value(self):
        assert sp.rabi_for_2pik(1.0, 1, "pi/2") == pytest.approx(1.0 / math.sqrt(15.0))

    def test_half_pi_value_also_closes_pi_rotation(self):
        # the pi/2 solution with revolution count k equals the pi solution
        # with revolution count 2k
        for k in (1, 2, 5):
            assert sp.rabi_for_2pik(2.0, k, "pi/2") == pytest.approx(
                sp.rabi_for_2pik(2.0, 2 * k, "pi")
            )

    def test_closes_spectator_rotation_exactly(self):
        for k in (1, 3, 7):
            rabi = sp.rabi_for_2pik(2.0, k)
            lam = math.hypot(rabi, 2.0)
            assert lam * (math.pi / rabi) == pytest.approx(2 * math.pi * k, rel=1e-12)

    def test_rejects_zero_detuning_and_bad_k(self):
        with pytest.raises(ValueError):
            sp.rabi_for_2pik(0.0, 3)
        with pytest.raises(ValueError):
            sp.rabi_for_2pik(2.0, 0)


class TestCnProtocol:
    CFG = sp.ChainConfig(n_qubits=8, larmor_spacing=100.0)

    def test_first_three_pi_pulse_frequencies(self):
        cfg = self.CFG
        n = cfg.n_qubits
        proto = sp.build_cn_protocol(cfg, rabi=0.2)
        freqs = [p.frequency for p in proto.pulses[1:4]]
        assert freqs == pytest.approx(
            [cfg.omega(n - 2), cfg.omega(n - 3), cfg.omega(n - 2) - 2.0]
        )

    def test_opening_pulse_is_resonant_on_the_ground_state(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.2)
        opener = proto.pulses[0]
        spin = self.CFG.n_qubits - 1
        assert nearest_flip(0, opener.frequency, self.CFG)[0] == spin
        assert abs(abs(sp.flip_energy(0, spin, self.CFG)) - opener.frequency) < RESONANCE_TOL
        assert opener.area == pytest.approx(math.pi / 2)

    def test_pulse_count_for_large_chain(self):
        cfg = sp.ChainConfig(n_qubits=200, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.14, equal_epsilon=False)
        assert len(proto) == 1 + 397

    def test_detunings_vs_ground(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.2)
        assert proto.detunings[0] == 0.0
        for idx, delta in enumerate(proto.detunings[1:], start=1):
            expected = 4.0 if idx == 3 else 2.0
            assert delta == pytest.approx(expected, abs=1e-9)

    def test_every_pi_pulse_resonant_on_its_path_state(self):
        cfg = sp.ChainConfig(n_qubits=9, larmor_spacing=50.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.2)
        for before, after, pulse in zip(proto.path, proto.path[1:], proto.pulses):
            spin = (before ^ after).bit_length() - 1
            assert abs(abs(sp.flip_energy(before, spin, cfg)) - pulse.frequency) < RESONANCE_TOL

    def test_path_flips_each_interior_spin_twice(self):
        n = 9
        seq = sp.cn_flip_sequence(n)
        assert len(seq) == 2 * n - 3
        counts = {k: seq.count(k) for k in set(seq)}
        assert counts[0] == 1
        for k in range(1, n - 1):
            assert counts[k] == 2

    def test_path_ends_on_control_plus_target(self):
        for n in (3, 4, 7):
            cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=50.0)
            proto = sp.build_cn_protocol(cfg, rabi=0.3)
            assert proto.path[0] == 0
            assert proto.path[1] == 1 << (n - 1)
            assert proto.path[-1] == (1 << (n - 1)) | 1

    def test_equal_epsilon_doubles_third_pulse(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.2, equal_epsilon=True)
        rabis = [p.rabi for p in proto.pulses[1:]]
        assert rabis[2] == pytest.approx(0.4)
        assert all(r == pytest.approx(0.2) for i, r in enumerate(rabis) if i != 2)
        # the doubled third pulse keeps the spectator probability unchanged
        eps_regular = sp.epsilon(0.2, 2.0, math.pi / 0.2)
        eps_third = sp.epsilon(0.4, 4.0, math.pi / 0.4)
        assert eps_third == pytest.approx(eps_regular, rel=1e-12)

    def test_third_pulse_closes_with_same_revolution_count(self):
        k = 5
        proto = sp.build_cn_protocol(self.CFG, k=k, equal_epsilon=True)
        third = proto.pulses[3]
        lam = math.hypot(third.rabi, 4.0)
        assert lam * third.duration == pytest.approx(2 * math.pi * k, rel=1e-12)

    def test_requires_three_qubits(self):
        with pytest.raises(ValueError):
            sp.build_cn_protocol(sp.ChainConfig(n_qubits=2, larmor_spacing=10.0), rabi=0.2)

    def test_rabi_or_k_exclusive(self):
        with pytest.raises(ValueError):
            sp.build_cn_protocol(self.CFG, rabi=0.2, k=3)
        with pytest.raises(ValueError):
            sp.build_cn_protocol(self.CFG)


class TestAnalyticFinalState:
    def test_magnitudes_are_half(self):
        for n, k in ((5, 1), (10, 4), (200, 7)):
            c0, c1 = sp.analytic_final_state(n, k)
            assert abs(c0) ** 2 == pytest.approx(0.5, abs=1e-12)
            assert abs(c1) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_large_k_phase_vanishes(self):
        # per-pulse spectator phase pi*(k - sqrt(4k^2-1)/2 - ...) -> 0
        c0_small, _ = sp.analytic_final_state(10, 2)
        c0_large, _ = sp.analytic_final_state(10, 4000)
        phase_large = abs(math.remainder(cmath.phase(c0_large), 2 * math.pi))
        phase_small = abs(math.remainder(cmath.phase(c0_small), 2 * math.pi))
        assert phase_large < 1e-2
        assert phase_large < phase_small

    def test_k1_per_pulse_phase_increment_is_24_degrees(self):
        c0_one, _ = sp.analytic_final_state(4, 1, m_pulses=1)
        c0_two, _ = sp.analytic_final_state(4, 1, m_pulses=2)
        increment = cmath.phase(c0_two / c0_one)
        assert math.degrees(abs(increment)) == pytest.approx(
            math.degrees(math.pi * (1 - math.sqrt(3) / 2)), abs=1e-9
        )
        assert math.degrees(abs(increment)) == pytest.approx(24.1, abs=0.1)

    def test_target_sign_alternates_with_chain_parity(self):
        assert sp.analytic_final_state(5, 3)[1].real > 0
        assert sp.analytic_final_state(6, 3)[1].real < 0


class TestPerturbProtocol:
    CFG = sp.ChainConfig(n_qubits=12, larmor_spacing=100.0)

    def test_zero_bound_is_identity(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.1)
        assert sp.perturb_protocol(proto, (3, 9), 0.0, seed=1) == proto

    def test_same_seed_same_protocol(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.1)
        a = sp.perturb_protocol(proto, (3, 9), 0.05, seed=42)
        b = sp.perturb_protocol(proto, (3, 9), 0.05, seed=42)
        assert a == b
        c = sp.perturb_protocol(proto, (3, 9), 0.05, seed=43)
        assert c != a

    def test_only_the_requested_pi_pulses_change(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.1)
        jittered = sp.perturb_protocol(proto, (3, 9), 0.05, seed=7)
        # pulse 0 is the opening pi/2-pulse; pi-pulse ordinals start after it
        for idx, (orig, new) in enumerate(zip(proto.pulses, jittered.pulses)):
            if 3 <= idx <= 9:
                assert abs(new.rabi - orig.rabi) <= 0.05
                assert new.rabi != orig.rabi
            else:
                assert new.rabi == orig.rabi
            assert new.duration == orig.duration
            assert new.frequency == orig.frequency

    def test_rejects_nonpositive_result(self):
        proto = sp.build_cn_protocol(self.CFG, rabi=0.01)
        with pytest.raises(ValueError):
            sp.perturb_protocol(proto, (1, 21), 0.05, seed=0)


class TestProtocolSerialization:
    def test_round_trip(self, tmp_path):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, k=3)
        path = tmp_path / "protocol.json"
        proto.save(path)
        assert sp.Protocol.load(path) == proto

    def test_unknown_key_rejected(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=100.0)
        data = sp.build_cn_protocol(cfg, rabi=0.2).to_dict()
        data["surprise"] = 1
        with pytest.raises(sp.ConfigError):
            sp.Protocol.from_dict(data)

    def test_pulse_has_no_phase(self):
        with pytest.raises(TypeError):
            sp.Pulse(frequency=100.0, rabi=0.2, duration=1.0, phase=0.3)
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=100.0)
        data = sp.build_cn_protocol(cfg, rabi=0.2).to_dict()
        assert all("phase" not in pulse for pulse in data["pulses"])

    def test_zero_phase_of_older_files_loads(self):
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=100.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.2)
        data = proto.to_dict()
        for pulse in data["pulses"]:
            pulse["phase"] = 0.0
        assert sp.Protocol.from_dict(data) == proto

