import pytest

import spinpulse as sp
from spinpulse.sparse_engine import SparseState


@pytest.fixture(scope="session")
def cn3_dense_reports():
    """Criterion-7 run, shared so that its two tests run it once (~0.8 s).

    The N=3, rabi 0.5 equal-eps CN protocol through the classical engine
    (norm_tol 1e-9) and the exact engine, both at cutoff 1e-300.  Returns
    (cfg, classical report, exact report); tests must not modify them.
    """
    cfg = sp.ChainConfig(n_qubits=3, larmor_spacing=10.0, base_larmor=15.0)
    proto = sp.build_cn_protocol(cfg, rabi=0.5, equal_epsilon=True)
    rep_c = sp.run_protocol_classical(
        SparseState.from_basis(0), proto, cfg, cutoff=1e-300, norm_tol=1e-9
    )
    rep_e = sp.run_protocol_exact(SparseState.from_basis(0), proto, cfg, cutoff=1e-300)
    return cfg, rep_c, rep_e
