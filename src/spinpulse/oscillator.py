"""Classical-oscillator equivalent of the chain dynamics.

The amplitude equations i dc_n/dt = E_n c_n + sum_k V_nk(t) c_k are linear,
so they can be read as Hamilton's equations for 2^N coordinate/momentum
pairs.  With c_n = x_n + i p_n the classical Hamiltonian

    H = sum_n E_n (x_n^2 + p_n^2) / 2
        + 1/2 sum_{n,k} [x_n Re(V_nk) x_k + p_n Re(V_nk) p_k + 2 p_n Im(V_nk) x_k]

yields

    dx_n/dt =  E_n p_n + sum_k [Re(V_nk) p_k + Im(V_nk) x_k]
    dp_n/dt = -E_n x_n - sum_k [Re(V_nk) x_k - Im(V_nk) p_k]

which reproduce the amplitude equations exactly.  The drive matrix couples
only single-flip pairs: V(t) = -(rabi/2) (e^{-i nu t} F + e^{+i nu t} F^T)
with F the raise-one-spin matrix, so Re V = -(rabi/2) cos(nu t) (F + F^T)
and Im V = -(rabi/2) sin(nu t) (F^T - F).

Convention: the map between amplitudes and oscillator pairs is c = x + i p,
so sum(x^2 + p^2) equals the quantum norm (one for a normalized state) and
a free pair rotates at E_n.  Any uniform rescaling of (x, p) leaves these
linear equations unchanged; the unit-sum normalization is the one the norm
check uses.

Integration is fixed-step classic Runge-Kutta.  The default step keeps the
fastest phase advance per step at or below 0.05 and tightens further until
the estimated norm drift over the whole protocol is within tolerance.  The
equations are linear, so one step is y -> y + D(a) y, with a = nu t the
drive angle at the step's start.  Its four stages sample the generator at
a, a + nu h/2 and a + nu h, so D is a trigonometric polynomial of degree 4
in a.  Per pulse (fixed h, rabi and nu), D is assembled stage by stage at
the 9 angles a_j = 2 pi j / 9, and a discrete Fourier inverse gives its 9
coefficient matrices (a constant, and cos and sin of harmonics 1-4).  Each
chunk of steps then builds all its D matrices in one matrix product and
applies them one by one.  Step times are t_start + i h.  This is the same
RK4 scheme, exact up to rounding.  Keeping the identity out of D (rather
than storing M = I + D) keeps each step's rounding error proportional to
the increment: a stored M near I drifts the norm by ~eps per step.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .chain import ChainConfig
from .exact_engine import check_qubit_cap, dense_amplitudes, dense_view, h0_energies
from .exceptions import IntegrationStepError
from .pulses import Protocol, Pulse, as_protocol
from .report import RunReport, make_report, reporting_cutoff, run_pulses
from .sparse_engine import SparseState

CLASSICAL_QUBIT_CAP = 8

# one RK4 step's increment matrix is a trigonometric polynomial of degree 4
# in the drive angle: a constant plus cos and sin of harmonics 1-4
_HARMONICS = np.arange(1, 5)
_N_COEFFS = 2 * _HARMONICS.size + 1
# increment matrices built at once per chunk of steps: 2^20 float64 entries, 8 MB
_CHUNK_ENTRIES = 1 << 20


def _coupling_matrices(cfg: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric flip adjacency S = F + F^T and antisymmetric K = F^T - F."""
    dim = 1 << cfg.n_qubits
    raise_m = np.zeros((dim, dim))
    for m in range(dim):
        for k in range(cfg.n_qubits):
            if not (m >> k) & 1:
                raise_m[m | (1 << k), m] = 1.0
    return raise_m + raise_m.T, raise_m.T - raise_m


def _stage_matrices(
    energies: np.ndarray, s_mat: np.ndarray, k_mat: np.ndarray, rabi: float
) -> np.ndarray:
    """Stacked generators: dy/dt = (W0 + cos(nu t) W1 + sin(nu t) W2) y."""
    dim = energies.size
    w0 = np.zeros((2 * dim, 2 * dim))
    w0[:dim, dim:] = np.diag(energies)
    w0[dim:, :dim] = -np.diag(energies)
    w1 = np.zeros_like(w0)
    w1[:dim, dim:] = -0.5 * rabi * s_mat
    w1[dim:, :dim] = 0.5 * rabi * s_mat
    w2 = np.zeros_like(w0)
    w2[:dim, :dim] = -0.5 * rabi * k_mat
    w2[dim:, dim:] = -0.5 * rabi * k_mat
    return np.stack([w0, w1, w2])


def default_step(cfg: ChainConfig, protocol: Protocol, norm_tol: float) -> float:
    """Fixed step honouring both the 0.05-phase rule and the norm budget.

    The classic Runge-Kutta stability function on a pure oscillation of
    frequency w has modulus 1 - (wh)^6/144 + O((wh)^8), so the norm drifts
    by about T * w * (wh)^5 / 72 over a run of length T; the step is chosen
    to keep that a factor four inside the tolerance.
    """
    energies = h0_energies(cfg)
    fastest = float(np.max(np.abs(energies)))
    fastest += max(abs(p.frequency) for p in protocol.pulses)
    fastest += max(p.rabi for p in protocol.pulses)
    total_time = sum(p.duration for p in protocol.pulses)
    h = 0.05 / fastest
    budget = norm_tol * 72.0 / (4.0 * total_time * fastest)
    h = min(h, budget**0.2 / fastest)
    return h


def _trig_basis(angles: np.ndarray) -> np.ndarray:
    """Rows (1, cos a, sin a, cos 2a, sin 2a, ..., cos 4a, sin 4a), one per angle."""
    multiples = np.multiply.outer(angles, _HARMONICS)
    basis = np.empty((angles.size, _N_COEFFS))
    basis[:, 0] = 1.0
    basis[:, 1::2] = np.cos(multiples)
    basis[:, 2::2] = np.sin(multiples)
    return basis


def _direct_step_increment(
    w: np.ndarray, angle: float, advance: float, h: float
) -> np.ndarray:
    """One classic RK4 step y -> y + D y as the matrix D, assembled stage by stage.

    The drive angle is ``angle`` at the step's start and gains ``advance``
    (nu h) over the step.
    """
    eye = np.eye(w.shape[1])

    def generator(a: float) -> np.ndarray:
        return w[0] + math.cos(a) * w[1] + math.sin(a) * w[2]

    mid = generator(angle + 0.5 * advance)
    k1 = generator(angle)
    k2 = mid @ (eye + 0.5 * h * k1)
    k3 = mid @ (eye + 0.5 * h * k2)
    k4 = generator(angle + advance) @ (eye + h * k3)
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_coefficients(w: np.ndarray, freq: float, h: float) -> np.ndarray:
    """Rows C_k, each a flattened matrix, with D(a) = sum_k basis_k(a) C_k.

    D is a trigonometric polynomial of degree 4 in the start angle a, so its
    9 samples at a_j = 2 pi j / 9 determine it: C_0 = (1/9) sum_j D_j and
    the cos/sin coefficients of harmonic m are (2/9) sum_j cos/sin(m a_j) D_j.
    """
    angles = 2.0 * np.pi * np.arange(_N_COEFFS) / _N_COEFFS
    samples = np.stack(
        [_direct_step_increment(w, a, freq * h, h).ravel() for a in angles]
    )
    weights = _trig_basis(angles).T * (2.0 / _N_COEFFS)
    weights[0] *= 0.5
    return weights @ samples


def _step_increments(coeffs: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The RK4 step increments D(a) for the given start angles, stacked."""
    dim = math.isqrt(coeffs.shape[1])
    return (_trig_basis(angles) @ coeffs).reshape(angles.size, dim, dim)


def _integrate_pulse(
    y: np.ndarray,
    w: np.ndarray,
    freq: float,
    t_start: float,
    duration: float,
    step: float,
) -> np.ndarray:
    n_steps = max(1, math.ceil(duration / step))
    h = duration / n_steps
    coeffs = _step_coefficients(w, freq, h)
    chunk = max(1, _CHUNK_ENTRIES // coeffs.shape[1])
    # an oversized step blows the norm up; the caller reports that as a
    # step error, so overflow here is not an arithmetic concern
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_steps, chunk):
            i = np.arange(first, min(first + chunk, n_steps))
            for d in _step_increments(coeffs, freq * (t_start + i * h)):
                y = y + d @ y
    return y


def run_protocol_classical(
    initial: SparseState | dict[int, complex] | np.ndarray,
    protocol: Protocol | list[Pulse] | tuple[Pulse, ...],
    cfg: ChainConfig,
    *,
    step: float | None = None,
    norm_tol: float = 1e-9,
    cutoff: float | None = None,
    trace: bool = False,
    doubled: bool = False,
    seed: int | None = None,
    cap: int = CLASSICAL_QUBIT_CAP,
) -> RunReport:
    """Run the oscillator system through a protocol and report c_n = x_n + i p_n.

    The oscillator pairs carry laboratory-frame amplitudes: the exact
    engine's interaction-picture C_n times exp(-i E_n t), with the same
    probabilities.  ``leaked`` is the probability left below the reporting
    cutoff.  ``step`` (when given) and ``norm_tol`` must be positive and
    finite.
    """
    for name, value in (("step", step), ("norm_tol", norm_tol)):
        if value is None and name == "step":
            continue
        if not isinstance(value, numbers.Real) or not 0 < value < math.inf:
            raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    check_qubit_cap(cfg, cap, "classical")
    protocol = as_protocol(protocol)
    threshold = reporting_cutoff(cfg, cutoff)
    if step is None and protocol.pulses:
        step = default_step(cfg, protocol, norm_tol)
    energies = h0_energies(cfg)
    s_mat, k_mat = _coupling_matrices(cfg)
    dim = energies.size

    def advance(state: tuple[np.ndarray, float], pulse: Pulse) -> tuple[np.ndarray, float]:
        y, t = state
        w = _stage_matrices(energies, s_mat, k_mat, pulse.rabi)
        y = _integrate_pulse(y, w, pulse.frequency, t, pulse.duration, step)
        return y, t + pulse.duration

    def view(state: tuple[np.ndarray, float]):
        y, t = state
        return (*dense_view(y[:dim], y[dim:], threshold), t)

    c = dense_amplitudes(initial, dim)
    y = np.concatenate([c.real, c.imag])
    norm_in = float(np.sum(y * y))
    (y, _), (amps, leaked, time), generation, rows = run_pulses(
        (y, 0.0), protocol, advance, view, trace
    )
    norm_out = float(np.sum(y * y))
    if not math.isfinite(norm_out) or abs(norm_out - norm_in) > norm_tol * max(1.0, norm_in):
        raise IntegrationStepError(
            f"norm drifted by {abs(norm_out - norm_in):.3e} over the protocol "
            f"(tolerance {norm_tol:.1e}); reduce the step"
        )
    return make_report(
        "classical",
        cfg,
        protocol,
        amps,
        leaked,
        time,
        generation,
        trace=rows,
        doubled=doubled,
        prune_cutoff=threshold,
        seed=seed,
    )
