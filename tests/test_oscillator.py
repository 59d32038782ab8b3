import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinpulse as sp
from spinpulse import oscillator
from spinpulse.exact_engine import h0_energies
from spinpulse.oscillator import (
    _coupling_matrices, _integrate_pulse, _stage_matrices, _step_coefficients,
    _step_increments, default_step,
)
from spinpulse.sparse_engine import SparseState


def _rk4_reference(y, w, freq, t_start, duration, step):
    """The stage-by-stage classic RK4 loop the step-matrix integrator replaced."""
    n_steps = max(1, math.ceil(duration / step))
    h = duration / n_steps
    w0, w1, w2 = w

    def deriv(ti, yi):
        a = freq * ti
        return w0 @ yi + math.cos(a) * (w1 @ yi) + math.sin(a) * (w2 @ yi)

    t = t_start
    for _ in range(n_steps):
        k1 = deriv(t, y)
        k2 = deriv(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = deriv(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = deriv(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _reference_run(c0, pulses, cfg, norm_tol):
    """Final amplitudes of the reference loop over ``pulses`` at the default step."""
    step = default_step(cfg, sp.Protocol(pulses=tuple(pulses)), norm_tol)
    energies = h0_energies(cfg)
    s_mat, k_mat = _coupling_matrices(cfg)
    y, t = np.concatenate([c0.real, c0.imag]), 0.0
    for p in pulses:
        w = _stage_matrices(energies, s_mat, k_mat, p.rabi)
        y = _rk4_reference(y, w, p.frequency, t, p.duration, step)
        t += p.duration
    return y[: c0.size] + 1j * y[c0.size :]


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


class TestStepMatrix:
    @given(
        n=st.integers(4, 5),
        rabi=st.floats(0.5, 2.0),
        freq=st.floats(1.0, 60.0),
        angle=st.floats(0.0, 100.0),
        h=st.floats(0.05, 0.3),
    )
    @settings(max_examples=60, deadline=None)
    def test_fourier_coefficients_give_the_direct_step_matrix(self, n, rabi, freq, angle, h):
        # the 9 coefficient matrices rebuild the one-step matrix I + D at any angle;
        # the reference loop applied to the identity assembles it directly.
        # Harmonic m needs m spins raised in one step, so N >= 4 and a drive
        # and step large enough that (h rabi / 2)^4 stands well above 1e-12
        # make every harmonic count.
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=5.0, base_larmor=8.0)
        w = _stage_matrices(h0_energies(cfg), *_coupling_matrices(cfg), rabi)
        t = angle / freq
        eye = np.eye(w.shape[1])
        got = eye + _step_increments(_step_coefficients(w, freq, h), np.array([freq * t]))[0]
        direct = _rk4_reference(eye, w, freq, t, h, h)
        assert np.max(np.abs(got - direct)) <= 1e-12 * np.max(np.abs(direct))

    @pytest.mark.parametrize(
        "duration, step", [(0.3, 1.0), (1.0, 0.25), (1.0, 0.3), (2.0, 0.001)]
    )
    def test_steps_per_pulse(self, monkeypatch, duration, step):
        # max(1, ceil(duration / step)) steps, starting at t_start + i h; at
        # N=6 a chunk holds 64 increment matrices, so 2000 steps span 32 chunks
        angles = []
        real = oscillator._step_increments

        def spy(coeffs, chunk_angles):
            angles.append(chunk_angles)
            return real(coeffs, chunk_angles)

        monkeypatch.setattr(oscillator, "_step_increments", spy)
        cfg = sp.ChainConfig(n_qubits=6, larmor_spacing=5.0, base_larmor=8.0)
        w = _stage_matrices(h0_energies(cfg), *_coupling_matrices(cfg), rabi=0.5)
        y = np.eye(128)[0]
        t_start, freq = 1.7, 9.0
        _integrate_pulse(y, w, freq, t_start, duration, step)
        n_steps = max(1, math.ceil(duration / step))
        h = duration / n_steps
        np.testing.assert_array_equal(
            np.concatenate(angles), freq * (t_start + np.arange(n_steps) * h)
        )

    @pytest.mark.parametrize("n", [2, 3])
    def test_run_matches_reference_loop(self, n):
        # Tolerance fixed before measuring: both integrate with the same scheme
        # and step, but the reference advances t by repeated += h, which moves
        # its drive angles by about n_steps * eps * nu * t.
        tol = 1e-9
        cfg = sp.ChainConfig(n_qubits=n, larmor_spacing=10.0, base_larmor=15.0)
        if n == 2:
            pulses = [
                sp.Pulse(frequency=cfg.omega(0), rabi=0.5, duration=2.0),
                sp.Pulse(frequency=cfg.omega(1), rabi=0.3, duration=3.3),
            ]
        else:
            pulses = list(sp.build_cn_protocol(cfg, rabi=0.5).pulses[:2])
        rng = np.random.default_rng(15 + n)
        c0 = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        c0 /= np.linalg.norm(c0)
        report = sp.run_protocol_classical(c0, pulses, cfg, cutoff=1e-300, norm_tol=1e-6)
        got = np.array([report.final_amps[s] for s in range(1 << n)])
        expected = _reference_run(c0, pulses, cfg, norm_tol=1e-6)
        assert np.max(np.abs(got - expected)) < tol


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

    @pytest.mark.parametrize(
        "options",
        [{"step": 0.0}, {"step": -0.01}, {"step": math.inf}, {"norm_tol": 0.0},
         {"norm_tol": math.nan}, {"step": "abc"}],
    )
    def test_step_and_norm_tol_must_be_positive_finite(self, options):
        cfg = sp.ChainConfig(n_qubits=2, larmor_spacing=5.0, base_larmor=8.0)
        proto = sp.Protocol(pulses=(sp.Pulse(frequency=cfg.omega(0), rabi=0.5, duration=1.0),))
        with pytest.raises(ValueError, match=next(iter(options))):
            sp.run_protocol_classical(np.eye(4, dtype=complex)[0], proto, cfg, **options)

    def test_qubit_cap(self):
        cfg = sp.ChainConfig(n_qubits=9, larmor_spacing=10.0)
        proto = sp.Protocol(
            pulses=(sp.Pulse(frequency=cfg.omega(0), rabi=0.1, duration=1.0),)
        )
        with pytest.raises(sp.QubitCapError):
            sp.run_protocol_classical(np.zeros(1 << 9, dtype=complex), proto, cfg)
