import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fdmimo.transceiver as transceiver
from fdmimo.channel import SystemConfig, _channel_stack, generate_iid
from fdmimo.estimation import estimate
from fdmimo.numerics import (RngStream, Workspace, _stream_width,
                             left_pseudo_inverse, right_pseudo_inverse)
from fdmimo.transceiver import SicMode, build

from conftest import drawn_rows


def _hats(m=16, n=6, k=3, seed=0, variances=(0.0, 0.0, 0.0)):
    """One draw's estimates (h_dl_hat, h_ul_hat, h_si_hat) with the given
    error variances, drawn as a stack of one trial."""
    truth = _channel_stack(SystemConfig(M=m, N=n, K=k), 1)
    shapes = [h.shape[1:] for h in truth]
    normals = drawn_rows(seed, [0, 1], shapes)
    generate_iid(normals[:1], *truth)
    hats = tuple(np.empty_like(h) for h in truth)
    drawn = [shape for shape, v in zip(shapes, variances) if v]
    estimate(variances, normals[1:, :_stream_width(drawn)], truth, hats)
    return tuple(h[0] for h in hats)


def _build(mode, dl, ul, si):
    """One draw's precoder, combiner and failure flag for mode, built as a
    stack of one draw."""
    w, built = build((mode,), np.vstack([dl, si])[None], ul[None])
    g, failed = built[mode]
    return g[0], w[0], bool(failed[0])


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
    dl, ul, si = _hats()
    g, _, failed = _build(SicMode.SUBTRACTION, dl, ul, si)
    assert not failed
    assert g.shape == (16, 3)
    prod = dl @ g
    assert np.max(np.abs(_off_diagonal(prod))) < 1e-10
    assert np.all(np.diag(prod).real > 0.0)


def test_sps_precoder_nulls_si_and_keeps_downlink():
    dl, ul, si = _hats()
    g, _, failed = _build(SicMode.SPATIAL_SUPPRESSION, dl, ul, si)
    assert not failed
    assert g.shape == (16, 3)
    assert np.max(np.abs(_off_diagonal(dl @ g))) < 1e-10
    # the null-space constraint is the whole point of this precoder
    assert np.max(np.abs(si @ g)) < 1e-10


def test_sps_with_no_si_rows_is_plain_zf():
    dl, ul, si = _hats()
    empty = np.zeros((0, 16), complex)
    g_sps = _build(SicMode.SPATIAL_SUPPRESSION, dl, ul, empty)[0]
    assert np.array_equal(g_sps, _build(SicMode.SUBTRACTION, dl, ul, si)[0])


def test_precoders_have_unit_total_power():
    hats = _hats()
    for mode in SicMode:
        g = _build(mode, *hats)[0]
        norms = np.linalg.norm(g, axis=0)
        assert np.allclose(norms, 1.0 / np.sqrt(3), rtol=1e-12)
        assert np.linalg.norm(g) == pytest.approx(1.0, rel=1e-12)


def _stacked(draws):
    """The build inputs of a list of _hats draws."""
    ext = np.stack([np.vstack([dl, si]) for dl, _, si in draws])
    return ext, np.stack([ul for _, ul, _ in draws])


def test_a_zero_precoder_column_fails_the_draw(monkeypatch):
    real = transceiver.right_pseudo_inverse

    def zero_column(a, *args, **kwargs):
        x, failed = real(a, *args, **kwargs)
        x[1, :, 2] = 0.0       # draw 1, user 2's precoder column
        return x, failed

    monkeypatch.setattr(transceiver, "right_pseudo_inverse", zero_column)
    _, built = build(list(SicMode),
                     *_stacked([_hats(seed=seed) for seed in range(3)]))
    for _, failed in built.values():
        assert failed.tolist() == [False, True, False]


# -------------------------------------------------------------- combiner

def test_zf_combiner_inverts_uplink():
    dl, ul, si = _hats()
    w = _build(SicMode.SUBTRACTION, dl, ul, si)[1]
    assert w.shape == (3, 6)
    assert np.max(np.abs(w @ ul - np.eye(3))) < 1e-10


# ------------------------------------------------------------------ build

def test_build_zf_matches_parts():
    # one code path: build is the pseudo-inverses of the same stack
    dl, ul, si = _hats(seed=3)
    g, w, _ = _build(SicMode.SUBTRACTION, dl, ul, si)
    assert np.array_equal(g, _normalized(right_pseudo_inverse(dl[None])[0][0]))
    assert np.array_equal(w, left_pseudo_inverse(ul[None])[0][0])


def test_build_sps_uses_extended_precoder():
    dl, ul, si = _hats(seed=3)
    g = _build(SicMode.SPATIAL_SUPPRESSION, dl, ul, si)[0]
    f, _ = right_pseudo_inverse(np.vstack([dl, si])[None], keep=3)
    assert np.array_equal(g, _normalized(f[0]))


def test_build_nosic_equals_subtraction_front_end():
    ext, ul = _stacked([_hats(seed=5)])
    w, built = build(list(SicMode), ext, ul)
    assert built[SicMode.NO_SIC] is built[SicMode.SUBTRACTION]
    w_alone, alone = build((SicMode.NO_SIC,), ext, ul)
    assert np.array_equal(alone[SicMode.NO_SIC][0],
                          built[SicMode.SUBTRACTION][0])
    assert np.array_equal(w_alone, w)


def test_precoder_column_norms_match_gram_inverse():
    # 1/||f_k||^2 identity used by the closed forms: ||f_k||^2 is the
    # k-th diagonal of (A A^H)^-1 for the right inverse of A
    dl, _, si = _hats(m=24, n=8, k=5, seed=7)
    f, _ = right_pseudo_inverse(dl)
    gram_inv = np.linalg.inv(dl @ dl.conj().T)
    assert np.allclose(np.linalg.norm(f, axis=0) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)

    stacked = np.vstack([dl, si])
    fe = right_pseudo_inverse(stacked)[0][:, :5]
    gram_inv_e = np.linalg.inv(stacked @ stacked.conj().T)
    assert np.allclose(np.linalg.norm(fe, axis=0) ** 2,
                       np.real(np.diag(gram_inv_e))[:5], rtol=1e-9)


def test_combiner_row_norms_match_gram_inverse():
    _, ul, _ = _hats(m=24, n=8, k=5, seed=7)
    w, _ = left_pseudo_inverse(ul)
    gram_inv = np.linalg.inv(ul.conj().T @ ul)
    assert np.allclose(np.linalg.norm(w, axis=1) ** 2,
                       np.real(np.diag(gram_inv)), rtol=1e-9)


def test_build_stack_matches_an_inline_per_draw_reference():
    # (7, 4, 3) and (9, 6, 3) have M = N + K: the suppression input is
    # square and leaves the precoder exactly K dimensions
    for m, n, k in [(16, 6, 3), (7, 4, 3), (9, 6, 3)]:
        draws = [_hats(m, n, k, seed, (0.1, 0.1, 0.2))
                 for seed in range(6)]
        ext, ul = _stacked(draws)
        w, built = build(list(SicMode), ext, ul)
        assert built[SicMode.NO_SIC] is built[SicMode.SUBTRACTION]
        for mode, (g, failed) in built.items():
            assert not failed.any()
            for i, draw in enumerate(draws):
                _check_against_reference(mode, draw, ext[i], g[i], w[i], k)


def _check_against_reference(mode, draw, ext, g, w, k):
    def close(got, want):
        return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    dl, h, si = draw
    # A^H (A A^H)^-1 of the downlink rows, over the SI rows under
    # suppression, first K columns, one norm per user
    a = ext if mode is SicMode.SPATIAL_SUPPRESSION else ext[:k]
    f = a.conj().T @ np.linalg.inv(a @ a.conj().T)
    assert close(g, _normalized(f[:, :k]))
    assert close(w, np.linalg.inv(h.conj().T @ h) @ h.conj().T)
    # the identities the rates rest on
    assert np.max(np.abs(_off_diagonal(dl @ g))) < 1e-12
    if mode is SicMode.SPATIAL_SUPPRESSION:
        assert np.max(np.abs(si @ g)) < 1e-12
    assert np.max(np.abs(w @ h - np.eye(k))) < 1e-12


# -------------------------------------------------------------- failures

def test_singular_downlink_reports_context():
    # a repeated downlink row breaks every mode's precoder, flagged per mode
    good = _hats()
    dl, ul, si = (h.copy() for h in good)
    dl[1] = dl[0]
    _, built = build(list(SicMode), *_stacked([good, (dl, ul, si)]))
    assert set(built) == set(SicMode)
    for _, failed in built.values():
        assert failed.tolist() == [False, True]


def test_singular_uplink_reports_context():
    # a repeated uplink column breaks the combiner, which every mode shares
    good = _hats()
    dl, ul, si = (h.copy() for h in good)
    ul[:, 1] = ul[:, 0]
    _, built = build(list(SicMode), *_stacked([good, (dl, ul, si)]))
    assert set(built) == set(SicMode)
    for _, failed in built.values():
        assert failed.tolist() == [False, True]


def test_singular_stack_reports_context():
    # SI rows that repeat a downlink row only break the extended inverse
    dl, ul, si = _hats()
    bad_si = np.vstack([dl[0:1]] * 6)
    _, built = build(list(SicMode),
                     *_stacked([(dl, ul, si), (dl, ul, bad_si)]))
    assert built[SicMode.SPATIAL_SUPPRESSION][1].tolist() == [False, True]
    for mode in (SicMode.NO_SIC, SicMode.SUBTRACTION):
        g, failed = built[mode]
        assert not failed.any()
        assert np.array_equal(g[1], g[0])


# ------------------------------------------------------------- workspace

def _awkward_chunk(seeds, svd, singular, k=3):
    """Stacked estimates of the given draws in which draw svd takes the
    SVD route (a downlink row scaled by 1e-5: Gram condition about 1e10,
    a residual within 1e-9) and draw singular is exactly singular (zero
    downlink rows and a zero uplink, so the batched Gram inverses
    raise)."""
    ext, ul = _stacked([_hats(seed=seed) for seed in seeds])
    ext[svd, 0] *= 1e-5
    ext[singular, :k] = 0.0
    ul[singular] = 0.0
    return ext, ul


def _same(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and \
        a.tobytes() == b.tobytes()


def _snapshot(w, built):
    return w.copy(), {mode: (g.copy(), failed.copy())
                      for mode, (g, failed) in built.items()}


def _assert_same_build(got, want):
    (w, built), (w_ref, built_ref) = got, want
    assert _same(w, w_ref)
    assert built.keys() == built_ref.keys()
    for mode, (g, failed) in built.items():
        assert _same(g, built_ref[mode][0]), mode
        assert _same(failed, built_ref[mode][1]), mode


def test_a_reused_workspace_builds_what_fresh_builds_do():
    # chunk b is smaller than chunk a, as a last chunk is, and has its
    # awkward draws elsewhere; a third build of chunk a after b finds no
    # trace of b in the buffers
    modes = list(SicMode)
    chunk_a = _awkward_chunk(range(4), svd=1, singular=2)
    chunk_b = _awkward_chunk(range(10, 13), svd=2, singular=0)
    fresh_a = build(modes, *chunk_a)
    fresh_b = build(modes, *chunk_b)
    for (_, failed_a), (_, failed_b) in zip(fresh_a[1].values(),
                                            fresh_b[1].values()):
        assert failed_a.tolist() == [False, False, True, False]
        assert failed_b.tolist() == [True, False, False]
    ws = Workspace()
    reused_a = build(modes, *chunk_a, ws)
    _assert_same_build(_snapshot(*reused_a), fresh_a)
    _assert_same_build(build(modes, *chunk_b, ws), fresh_b)
    # the first build's arrays are views that the second overwrote
    assert _same(reused_a[0][:3], fresh_b[0])
    _assert_same_build(build(modes, *chunk_a, ws), fresh_a)


# ------------------------------------------------------------ hypothesis

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000),
       st.integers(min_value=2, max_value=6))
def test_build_residuals_random_sizes(seed, k):
    n = k + 2
    m = n + k + 3
    dl, ul, si = _hats(m=m, n=n, k=k, seed=seed)
    g, w, failed = _build(SicMode.SPATIAL_SUPPRESSION, dl, ul, si)
    assert not failed
    prod = dl @ g
    off = prod - np.diag(np.diag(prod))
    assert np.max(np.abs(off)) < 1e-9
    assert np.max(np.abs(si @ g)) < 1e-9
    assert np.max(np.abs(w @ ul - np.eye(k))) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_gaussian_matrices_never_degenerate(seed):
    gen = RngStream(seed, 0).generator()
    a = gen.standard_normal((4, 12)) + 1j * gen.standard_normal((4, 12))
    f, failed = right_pseudo_inverse(a)
    assert not failed
    assert np.all(np.isfinite(f))
