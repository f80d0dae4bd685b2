import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdmimo.numerics as numerics
from fdmimo.channel import SystemConfig, generate_iid
from fdmimo.estimation import EstimationModel, estimate
from fdmimo.numerics import (RngStream, SingularMatrixError,
                             left_pseudo_inverse, right_pseudo_inverse)
from fdmimo.transceiver import SicMode, build, build_stack


def _hats(m=16, n=6, k=3, seed=0, model=None):
    cfg = SystemConfig(M=m, N=n, K=k)
    ch = generate_iid(cfg, RngStream(seed, 0))
    return estimate(ch, model or EstimationModel(), RngStream(seed, 1))


def _normalized(f):
    k = f.shape[1]
    return f / (np.sqrt(k) * np.linalg.norm(f, axis=0))


def _off_diagonal(p):
    return p - np.diag(np.diag(p))


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
    g = build(SicMode.SUBTRACTION, est).g
    assert g.shape == (16, 3)
    prod = est.h_dl_hat @ g
    assert np.max(np.abs(_off_diagonal(prod))) < 1e-10
    assert np.all(np.diag(prod).real > 0.0)


def test_sps_precoder_nulls_si_and_keeps_downlink():
    est = _hats()
    g = build(SicMode.SPATIAL_SUPPRESSION, est).g
    assert g.shape == (16, 3)
    assert np.max(np.abs(_off_diagonal(est.h_dl_hat @ g))) < 1e-10
    # the null-space constraint is the whole point of this precoder
    assert np.max(np.abs(est.h_si_hat @ g)) < 1e-10


def test_sps_with_no_si_rows_is_plain_zf():
    est = _hats()
    empty = dataclasses.replace(est, h_si_hat=np.zeros((0, 16), complex))
    assert np.array_equal(build(SicMode.SPATIAL_SUPPRESSION, empty).g,
                          build(SicMode.SUBTRACTION, est).g)


def test_precoders_have_unit_total_power():
    est = _hats()
    for mode in SicMode:
        g = build(mode, est).g
        norms = np.linalg.norm(g, axis=0)
        assert np.allclose(norms, 1.0 / np.sqrt(3), rtol=1e-12)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)


def test_a_zero_precoder_column_fails_the_draw(monkeypatch):
    real = numerics._pseudo_inverse

    def zero_column(draw):
        def patched(a, gram_name):
            x, failed = real(a, gram_name)
            if gram_name == "A·Aᴴ":
                x[draw, :, 2] = 0.0       # user 2's precoder column
            return x, failed
        return patched

    ests = [_hats(seed=seed) for seed in range(3)]
    ext = np.stack([np.vstack([e.h_dl_hat, e.h_si_hat]) for e in ests])
    monkeypatch.setattr(numerics, "_pseudo_inverse", zero_column(1))
    _, built = build_stack(list(SicMode), ext,
                           np.stack([e.h_ul_hat for e in ests]))
    for _, failed in built.values():
        assert failed.tolist() == [False, True, False]
    monkeypatch.setattr(numerics, "_pseudo_inverse", zero_column(0))
    for mode in SicMode:
        with pytest.raises(SingularMatrixError,
                           match=f"{mode.value} transceiver"):
            build(mode, ests[1])


# -------------------------------------------------------------- combiner

def test_zf_combiner_inverts_uplink():
    est = _hats()
    w = build(SicMode.SUBTRACTION, est).w
    assert w.shape == (3, 6)
    assert np.max(np.abs(w @ est.h_ul_hat - np.eye(3))) < 1e-10


# ------------------------------------------------------------------ build

def test_build_zf_matches_parts():
    # one code path: the one-draw build is the one-matrix pseudo-inverses
    est = _hats(seed=3)
    tr = build(SicMode.SUBTRACTION, est)
    assert np.array_equal(tr.g, _normalized(right_pseudo_inverse(
        est.h_dl_hat)))
    assert np.array_equal(tr.w, left_pseudo_inverse(est.h_ul_hat))


def test_build_sps_uses_extended_precoder():
    est = _hats(seed=3)
    tr = build(SicMode.SPATIAL_SUPPRESSION, est)
    full = right_pseudo_inverse(np.vstack([est.h_dl_hat, est.h_si_hat]))
    assert np.array_equal(tr.g, _normalized(full[:, :3]))


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
    f = right_pseudo_inverse(est.h_dl_hat)
    gram_inv = np.linalg.inv(est.h_dl_hat @ est.h_dl_hat.conj().T)
    assert np.allclose(np.linalg.norm(f, axis=0) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)

    stacked = np.vstack([est.h_dl_hat, est.h_si_hat])
    fe = right_pseudo_inverse(stacked)[:, :5]
    gram_inv_e = np.linalg.inv(stacked @ stacked.conj().T)
    assert np.allclose(np.linalg.norm(fe, axis=0) ** 2,
                       np.real(np.diag(gram_inv_e))[:5], rtol=1e-9)


def test_combiner_row_norms_match_gram_inverse():
    est = _hats(m=24, n=8, k=5, seed=7)
    w = left_pseudo_inverse(est.h_ul_hat)
    gram_inv = np.linalg.inv(est.h_ul_hat.conj().T @ est.h_ul_hat)
    assert np.allclose(np.linalg.norm(w, axis=1) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)


def test_build_stack_matches_an_inline_per_draw_reference():
    # (7, 4, 3) and (9, 6, 3) have M = N + K: the suppression input is
    # square and leaves the precoder exactly K dimensions
    for m, n, k in [(16, 6, 3), (7, 4, 3), (9, 6, 3)]:
        ests = [_hats(m, n, k, seed, EstimationModel(0.1, 0.1, 0.2))
                for seed in range(6)]
        ext = np.stack([np.vstack([e.h_dl_hat, e.h_si_hat]) for e in ests])
        w, built = build_stack(list(SicMode), ext,
                               np.stack([e.h_ul_hat for e in ests]))
        assert built[SicMode.NO_SIC] is built[SicMode.SUBTRACTION]
        for mode, (g, failed) in built.items():
            assert not failed.any()
            for i, est in enumerate(ests):
                _check_against_reference(mode, est, ext[i], g[i], w[i], k)


def _check_against_reference(mode, est, ext, g, w, k):
    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    # A^H (A A^H)^-1 of the downlink rows, over the SI rows under
    # suppression, first K columns, one norm per user
    a = ext if mode is SicMode.SPATIAL_SUPPRESSION else ext[:k]
    f = a.conj().T @ np.linalg.inv(a @ a.conj().T)
    assert close(g, _normalized(f[:, :k]))
    h = est.h_ul_hat
    assert close(w, np.linalg.inv(h.conj().T @ h) @ h.conj().T)
    # the identities the rates rest on
    assert np.max(np.abs(_off_diagonal(est.h_dl_hat @ g))) < 1e-12
    if mode is SicMode.SPATIAL_SUPPRESSION:
        assert np.max(np.abs(est.h_si_hat @ g)) < 1e-12
    assert np.max(np.abs(w @ h - np.eye(k))) < 1e-12


# -------------------------------------------------------------- failures

def test_singular_downlink_reports_context():
    est = _hats()
    bad = est.h_dl_hat.copy()
    bad[1] = bad[0]
    bad_est = dataclasses.replace(est, h_dl_hat=bad)
    for mode in SicMode:
        with pytest.raises(SingularMatrixError,
                           match=f"{mode.value} transceiver"):
            build(mode, bad_est)


def test_singular_uplink_reports_context():
    est = _hats()
    bad = est.h_ul_hat.copy()
    bad[:, 1] = bad[:, 0]
    bad_est = dataclasses.replace(est, h_ul_hat=bad)
    for mode in SicMode:
        with pytest.raises(SingularMatrixError,
                           match=f"{mode.value} transceiver"):
            build(mode, bad_est)


def test_singular_stack_reports_context():
    # SI rows that repeat a downlink row only break the extended inverse
    est = _hats()
    bad_est = dataclasses.replace(
        est, h_si_hat=np.vstack([est.h_dl_hat[0:1]] * 6))
    with pytest.raises(SingularMatrixError, match="sps transceiver"):
        build(SicMode.SPATIAL_SUPPRESSION, bad_est)
    for mode in (SicMode.NO_SIC, SicMode.SUBTRACTION):
        assert np.array_equal(build(mode, bad_est).g, build(mode, est).g)


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
    f = right_pseudo_inverse(a)
    assert np.all(np.isfinite(f))
