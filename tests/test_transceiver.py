import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdmimo.channel import SystemConfig, generate_iid
from fdmimo.estimation import EstimationModel, estimate
from fdmimo.numerics import RngStream, SingularMatrixError
from fdmimo.transceiver import (DegeneratePrecoderError, SicMode, build,
                                build_stack, normalize_vector, sps_precoder,
                                zf_combiner, zf_precoder)


def _hats(m=16, n=6, k=3, seed=0):
    cfg = SystemConfig(M=m, N=n, K=k)
    ch = generate_iid(cfg, RngStream(seed, 0))
    return estimate(ch, EstimationModel(), RngStream(seed, 1))


# ------------------------------------------------------------------ mode

def test_mode_tokens_round_trip():
    assert SicMode("stt") is SicMode.SUBTRACTION
    assert SicMode.SPATIAL_SUPPRESSION.value == "sps"
    assert SicMode.NO_SIC.value == "nosic"
    with pytest.raises(ValueError):
        SicMode("zf")


# ------------------------------------------------------------- precoders

def test_zf_precoder_inverts_downlink():
    est = _hats()
    f = zf_precoder(est.h_dl_hat)
    assert f.shape == (16, 3)
    assert np.max(np.abs(est.h_dl_hat @ f - np.eye(3))) < 1e-10


def test_sps_precoder_nulls_si_and_keeps_downlink():
    est = _hats()
    f = sps_precoder(est.h_dl_hat, est.h_si_hat)
    assert f.shape == (16, 3)
    assert np.max(np.abs(est.h_dl_hat @ f - np.eye(3))) < 1e-10
    # the null-space constraint is the whole point of this precoder
    assert np.max(np.abs(est.h_si_hat @ f)) < 1e-10


def test_sps_with_no_si_rows_is_plain_zf():
    est = _hats()
    empty = np.zeros((0, 16), dtype=complex)
    assert np.array_equal(sps_precoder(est.h_dl_hat, empty),
                          zf_precoder(est.h_dl_hat))


def test_normalize_vector_unit_total_power():
    est = _hats()
    g = normalize_vector(zf_precoder(est.h_dl_hat))
    k = g.shape[1]
    norms = np.linalg.norm(g, axis=0)
    assert np.allclose(norms, 1.0 / np.sqrt(k), rtol=1e-12)
    assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)


def test_normalize_vector_rejects_zero_column():
    f = np.ones((4, 2), dtype=complex)
    f[:, 1] = 0.0
    with pytest.raises(DegeneratePrecoderError):
        normalize_vector(f)


# -------------------------------------------------------------- combiner

def test_zf_combiner_inverts_uplink():
    est = _hats()
    w = zf_combiner(est.h_ul_hat)
    assert w.shape == (3, 6)
    assert np.max(np.abs(w @ est.h_ul_hat - np.eye(3))) < 1e-10


# ------------------------------------------------------------------ build

def test_build_zf_matches_parts():
    est = _hats(seed=3)
    tr = build(SicMode.SUBTRACTION, est)
    assert np.array_equal(tr.g,
                          normalize_vector(zf_precoder(est.h_dl_hat)))
    assert np.array_equal(tr.w, zf_combiner(est.h_ul_hat))


def test_build_sps_uses_extended_precoder():
    est = _hats(seed=3)
    tr = build(SicMode.SPATIAL_SUPPRESSION, est)
    assert np.array_equal(
        tr.g,
        normalize_vector(sps_precoder(est.h_dl_hat, est.h_si_hat)))


def test_build_nosic_equals_subtraction_front_end():
    est = _hats(seed=5)
    a = build(SicMode.NO_SIC, est)
    b = build(SicMode.SUBTRACTION, est)
    assert np.array_equal(a.g, b.g)
    assert np.array_equal(a.w, b.w)


def test_precoder_column_norms_match_gram_inverse():
    # 1/||f_k||^2 identity used by the closed forms: ||f_k||^2 is the
    # k-th diagonal of (A A^H)^-1 for the right inverse of A
    est = _hats(m=24, n=8, k=5, seed=7)
    f = zf_precoder(est.h_dl_hat)
    gram_inv = np.linalg.inv(est.h_dl_hat @ est.h_dl_hat.conj().T)
    assert np.allclose(np.linalg.norm(f, axis=0) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)

    stacked = np.vstack([est.h_dl_hat, est.h_si_hat])
    fe = sps_precoder(est.h_dl_hat, est.h_si_hat)
    gram_inv_e = np.linalg.inv(stacked @ stacked.conj().T)
    assert np.allclose(np.linalg.norm(fe, axis=0) ** 2,
                       np.real(np.diag(gram_inv_e))[:5], rtol=1e-9)


def test_combiner_row_norms_match_gram_inverse():
    est = _hats(m=24, n=8, k=5, seed=7)
    w = zf_combiner(est.h_ul_hat)
    gram_inv = np.linalg.inv(est.h_ul_hat.conj().T @ est.h_ul_hat)
    assert np.allclose(np.linalg.norm(w, axis=1) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)


# -------------------------------------------------------------- failures

def test_singular_downlink_reports_context():
    est = _hats()
    bad = est.h_dl_hat.copy()
    bad[1] = bad[0]
    with pytest.raises(SingularMatrixError, match="downlink zero-forcing"):
        zf_precoder(bad)


def test_singular_uplink_reports_context():
    est = _hats()
    bad = est.h_ul_hat.copy()
    bad[:, 1] = bad[:, 0]
    with pytest.raises(SingularMatrixError, match="uplink combining"):
        zf_combiner(bad)


def test_singular_stack_reports_context():
    est = _hats()
    bad_si = np.vstack([est.h_dl_hat[0:1]] * 6)
    with pytest.raises(SingularMatrixError, match="extended zero-forcing"):
        sps_precoder(est.h_dl_hat, bad_si)


# ------------------------------------------------------------ hypothesis

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6))
def test_build_residuals_random_sizes(seed, k):
    n = k + 2
    m = n + k + 3
    est = _hats(m=m, n=n, k=k, seed=seed)
    tr = build(SicMode.SPATIAL_SUPPRESSION, est)
    prod = est.h_dl_hat @ tr.g
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-9
    assert np.max(np.abs(est.h_si_hat @ tr.g)) < 1e-9
    assert np.max(np.abs(tr.w @ est.h_ul_hat - np.eye(k))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gaussian_matrices_never_degenerate(seed):
    gen = RngStream(seed, 0).generator()
    a = gen.standard_normal((4, 12)) + 1j * gen.standard_normal((4, 12))
    f = zf_precoder(a)
    assert np.all(np.isfinite(f))


def test_build_stack_equals_build_bit_for_bit():
    ests = [_hats(seed=seed) for seed in range(3)]
    ext = np.stack([np.vstack([e.h_dl_hat, e.h_si_hat]) for e in ests])
    w, built = build_stack(list(SicMode), ext,
                           np.stack([e.h_ul_hat for e in ests]))
    assert built[SicMode.NO_SIC] is built[SicMode.SUBTRACTION]
    for mode, (g, failed) in built.items():
        assert not failed.any()
        for i, est in enumerate(ests):
            ts = build(mode, est)
            assert np.array_equal(g[i], ts.g)
            assert np.array_equal(w[i], ts.w)
