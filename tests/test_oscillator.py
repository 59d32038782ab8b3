import math

import numpy as np
import pytest

import spinpulse as sp
from spinpulse.exact_engine import h0_energies
from spinpulse.oscillator import _coupling_matrices, _integrate_pulse, _stage_matrices
from spinpulse.sparse_engine import SparseState


def _one_spin_pulse_pair(c0: np.ndarray) -> tuple[dict, dict]:
    """Classical amplitudes and the exact ones times exp(-i E_p T), N=1."""
    cfg = sp.ChainConfig(n_qubits=1, larmor_spacing=10.0, base_larmor=15.0)
    pulse = sp.Pulse(frequency=cfg.omega(0), rabi=0.5, duration=1.3)
    rep_c = sp.run_protocol_classical(c0, [pulse], cfg, cutoff=1e-300)
    rep_e = sp.run_protocol_exact(c0, [pulse], cfg, cutoff=1e-300)
    energies = h0_energies(cfg)
    lab = {
        s: c * np.exp(-1j * energies[s] * rep_e.time)
        for s, c in rep_e.final_amps.items()
    }
    return rep_c.final_amps, lab


class TestAmplitudeMapping:
    def test_round_trip_random_vector(self):
        # an empty protocol maps c -> (x, p) -> x + i p and nothing else
        rng = np.random.default_rng(11)
        c = rng.normal(size=16) + 1j * rng.normal(size=16)
        c /= np.linalg.norm(c)
        cfg = sp.ChainConfig(n_qubits=4, larmor_spacing=10.0)
        report = sp.run_protocol_classical(c, [], cfg, cutoff=1e-300)
        back = np.array([report.final_amps[s] for s in range(16)])
        assert np.max(np.abs(back - c)) < 1e-14

    def test_real_amplitude_maps_to_coordinate(self):
        c0 = np.array([1.0 + 0j, 0j])
        cfg = sp.ChainConfig(n_qubits=1, larmor_spacing=10.0)
        report = sp.run_protocol_classical(c0, [], cfg, cutoff=1e-300)
        assert report.final_amps == {0: 1.0 + 0j}
        # x carries the real part: the pair rotates as exp(-i E t), not
        # exp(+i E t) as it would with the momentum carrying it
        got, lab = _one_spin_pulse_pair(c0)
        assert max(abs(got[s] - lab[s]) for s in range(2)) < 1e-8

    def test_imaginary_amplitude_maps_to_momentum(self):
        c0 = np.array([1j, 0j])
        cfg = sp.ChainConfig(n_qubits=1, larmor_spacing=10.0)
        report = sp.run_protocol_classical(c0, [], cfg, cutoff=1e-300)
        assert report.final_amps == {0: 1j}
        got, lab = _one_spin_pulse_pair(c0)
        assert max(abs(got[s] - lab[s]) for s in range(2)) < 1e-8

    def test_norm_convention(self):
        # sum(x^2 + p^2) is the quantum norm: one for a normalized state
        rng = np.random.default_rng(12)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        c /= np.linalg.norm(c)
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0)
        report = sp.run_protocol_classical(c, [], cfg, cutoff=1e-300)
        assert report.stored_norm() + report.leaked == pytest.approx(1.0, abs=1e-14)

    def test_lab_frame_amplitudes_match_exact_times_free_phase(self, cn3_dense_reports):
        # c = x + i p carries laboratory-frame amplitudes: C_p * exp(-i E_p T)
        # with C_p the exact engine's interaction-picture amplitudes
        cfg, rep_c, rep_e = cn3_dense_reports
        energies = h0_energies(cfg)
        assert set(rep_c.final_amps) == set(rep_e.final_amps) == set(range(8))
        worst = max(
            abs(rep_c.final_amps[s] - c * np.exp(-1j * energies[s] * rep_e.time))
            for s, c in rep_e.final_amps.items()
        )
        assert worst < 1e-8


class TestFreeEvolution:
    def test_pairs_rotate_at_state_energy(self):
        # drive switched off: each (x, p) pair rotates at its state energy
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)
        energies = h0_energies(cfg)
        s_mat, k_mat = _coupling_matrices(cfg)
        w = _stage_matrices(energies, s_mat, k_mat, rabi=0.0)
        rng = np.random.default_rng(13)
        c0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        c0 /= np.linalg.norm(c0)
        duration = 2.37
        y = np.concatenate([c0.real, c0.imag])
        y = _integrate_pulse(y, w, freq=1.0, t_start=0.0, duration=duration, step=2e-4)
        expected = np.exp(-1j * energies * duration) * c0
        got = y[:4] + 1j * y[4:]
        assert np.max(np.abs(got - expected)) < 1e-9
        assert np.sum(y * y) == pytest.approx(1.0, abs=1e-12)


class TestIntegrate:
    def test_two_spin_resonant_pulse_matches_exact(self):
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)
        nu = sp.transition_frequency(0, 1, cfg)
        pulse = sp.Pulse(frequency=nu, rabi=0.5, duration=math.pi / 0.5)
        rep_c = sp.run_protocol_classical(
            SparseState.from_basis(0), [pulse], cfg, cutoff=1e-300
        )
        rep_e = sp.run_protocol_exact(
            SparseState.from_basis(0), [pulse], cfg, cutoff=1e-300
        )
        for s in range(4):
            assert rep_c.probability(s) == pytest.approx(
                rep_e.probability(s), abs=1e-6
            )

    def test_six_spin_protocol_fragment_matches_exact(self):
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=5.0, base_larmor=8.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.5)
        fragment = list(proto.pulses[:2])
        rep_c = sp.run_protocol_classical(
            SparseState.from_basis(0), fragment, cfg, cutoff=1e-300, norm_tol=1e-8
        )
        rep_e = sp.run_protocol_exact(
            SparseState.from_basis(0), fragment, cfg, cutoff=1e-300
        )
        for s in range(64):
            assert rep_c.probability(s) == pytest.approx(
                rep_e.probability(s), abs=1e-6
            )

    def test_linearity_in_the_initial_amplitudes(self):
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)
        nu = sp.transition_frequency(0, 1, cfg)
        pulse = sp.Pulse(frequency=nu, rabi=0.4, duration=3.0)
        proto = sp.Protocol(pulses=(pulse,))
        rng = np.random.default_rng(14)
        c0 = rng.normal(size=4) + 1j * rng.normal(size=4)
        scale = 0.3 - 0.4j

        def final(initial):
            report = sp.run_protocol_classical(
                initial, proto, cfg, step=1e-4, cutoff=1e-300
            )
            return np.array([report.final_amps[s] for s in range(4)])

        out = final(c0)
        out_scaled = final(scale * c0)
        assert np.max(np.abs(out_scaled - scale * out)) < 1e-9

    def test_norm_conserved_to_tolerance(self):
        cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=15.0)
        proto = sp.build_cn_protocol(cfg, rabi=0.5)
        report = sp.run_protocol_classical(
            np.eye(8, dtype=complex)[0], proto, cfg, norm_tol=1e-9
        )
        assert abs(report.stored_norm() + report.leaked - 1.0) <= 1e-9

    def test_oversized_step_raises(self):
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=20.0, base_larmor=40.0)
        nu = sp.transition_frequency(0, 1, cfg)
        proto = sp.Protocol(pulses=(sp.Pulse(frequency=nu, rabi=0.5, duration=40.0),))
        with pytest.raises(sp.IntegrationStepError):
            sp.run_protocol_classical(
                np.eye(4, dtype=complex)[0], proto, cfg, step=0.1
            )

    def test_qubit_cap(self):
        cfg = sp.ChainConfig(n_qubits=9, larmor_spacing=10.0)
        proto = sp.Protocol(
            pulses=(sp.Pulse(frequency=cfg.omega(0), rabi=0.1, duration=1.0),)
        )
        with pytest.raises(sp.QubitCapError):
            sp.run_protocol_classical(np.zeros(1 << 9, dtype=complex), proto, cfg)
