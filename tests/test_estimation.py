import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdmimo.channel import (ConfigError, SystemConfig, default_geometry,
                            generate_iid, si_pathloss_gains)
from fdmimo.estimation import (EstimationModel, estimate, model_from_config,
                               uldl_error_variance)
from fdmimo.experiments import CORRELATED_CARRIER_HZ, correlated_sampler
from fdmimo.metrics import _trial_chunks
from fdmimo.numerics import RngStream


def _draw(seed=0):
    cfg = SystemConfig(M=16, N=6, K=3)
    return cfg, generate_iid(cfg, RngStream(seed, 0))


# ----------------------------------------------------------------- model

def test_model_perfect_flag():
    assert EstimationModel().perfect
    assert not EstimationModel(eps2_si=0.1).perfect


@pytest.mark.parametrize("kw", [dict(eps2_dl=-0.1), dict(eps2_ul=math.nan),
                                dict(eps2_si=math.inf)])
def test_model_rejects_bad_variances(kw):
    with pytest.raises(ConfigError):
        EstimationModel(**kw)


def test_error_variance_matches_pilot_model():
    # beta / (K rho beta + 1); at beta=1, rho=10, K=10 this is 1/101
    assert uldl_error_variance(1.0, 10.0, 10) == pytest.approx(
        0.009900990099009901, rel=1e-15)
    assert uldl_error_variance(0.0, 10.0, 10) == 0.0


def test_error_variance_decreases_with_pilot_snr_and_users():
    base = uldl_error_variance(1.0, 10.0, 10)
    assert uldl_error_variance(1.0, 20.0, 10) < base
    assert uldl_error_variance(1.0, 10.0, 20) < base


def test_error_variance_validation():
    with pytest.raises(ConfigError):
        uldl_error_variance(-1.0, 10.0, 10)
    with pytest.raises(ConfigError):
        uldl_error_variance(1.0, 10.0, 0)


def test_model_from_config():
    cfg = SystemConfig()
    assert model_from_config(cfg, perfect=True) == EstimationModel()
    m = model_from_config(cfg, perfect=False)
    assert m.eps2_dl == pytest.approx(1.0 / 101.0, rel=1e-15)
    assert m.eps2_ul == m.eps2_dl
    assert m.eps2_si == 0.2


# -------------------------------------------------------------- estimate

def test_estimate_is_truth_plus_error_bitwise():
    # the error stream holds each error of nonzero variance in the order
    # dl, ul, si, its real parts then its imaginary parts, row-major; a
    # zero-variance error takes no draws and leaves the truth exact
    cfg, ch = _draw()
    for variances in ((0.1, 0.2, 0.3), (0.1, 0.0, 0.3), (0.0, 0.0, 0.3)):
        est = estimate(ch, EstimationModel(*variances), RngStream(1, 1))
        gen = RngStream(1, 1).generator()
        for h, hat, v in zip((ch.h_dl, ch.h_ul, ch.h_si),
                             (est.h_dl_hat, est.h_ul_hat, est.h_si_hat),
                             variances):
            if v:
                re = gen.standard_normal(h.shape)
                im = gen.standard_normal(h.shape)
                assert np.array_equal(
                    hat, h + np.sqrt(v / 2.0) * (re + 1j * im))
            else:
                assert np.array_equal(hat, h)


def test_perfect_estimation_is_exact(monkeypatch):
    cfg, ch = _draw()

    def no_stream(self):
        raise AssertionError("a perfect model opened its error stream")
    monkeypatch.setattr(RngStream, "generator", no_stream)
    est = estimate(ch, EstimationModel(), RngStream(1, 1))
    assert np.array_equal(est.h_dl_hat, ch.h_dl)
    assert np.array_equal(est.h_ul_hat, ch.h_ul)
    assert np.array_equal(est.h_si_hat, ch.h_si)


def test_estimate_deterministic_per_stream():
    cfg, ch = _draw()
    model = EstimationModel(0.1, 0.1, 0.1)
    a = estimate(ch, model, RngStream(4, 9))
    b = estimate(ch, model, RngStream(4, 9))
    assert np.array_equal(a.h_si_hat, b.h_si_hat)
    c = estimate(ch, model, RngStream(4, 11))
    assert not np.array_equal(a.h_si_hat, c.h_si_hat)


def test_error_statistics_match_variances():
    cfg = SystemConfig()
    ch = generate_iid(cfg, RngStream(2, 0))
    model = EstimationModel(eps2_dl=0.05, eps2_ul=0.3, eps2_si=0.2)
    acc_dl = acc_ul = acc_si = 0.0
    trials = 300
    for t in range(trials):
        est = estimate(ch, model, RngStream(2, t))
        acc_dl += np.mean(np.abs(est.h_dl_hat - ch.h_dl) ** 2)
        acc_ul += np.mean(np.abs(est.h_ul_hat - ch.h_ul) ** 2)
        acc_si += np.mean(np.abs(est.h_si_hat - ch.h_si) ** 2)
    assert acc_dl / trials == pytest.approx(0.05, rel=0.05)
    assert acc_ul / trials == pytest.approx(0.3, rel=0.05)
    assert acc_si / trials == pytest.approx(0.2, rel=0.05)


def test_correlated_si_error_variance_follows_the_path_gains():
    # the correlated model's SI error keeps the NMSE per element: its
    # variance is eps2_si times that element's free-space path gain
    cfg = SystemConfig(M=16, N=6, K=3)
    gains = si_pathloss_gains(default_geometry(cfg, CORRELATED_CARRIER_HZ))
    model = EstimationModel(eps2_si=0.2)
    acc = np.zeros_like(gains)
    trials = 2000
    for _, _, _, h_si, h_ext_hat, _ in _trial_chunks(
            cfg, model, 6, range(trials), correlated_sampler(cfg)):
        acc += np.sum(np.abs(h_ext_hat[:, cfg.K:] - h_si) ** 2, axis=0)
    ratio = acc / trials / (0.2 * gains)
    assert abs(np.mean(ratio) - 1.0) < 0.05
    assert np.max(np.abs(ratio - 1.0)) < 0.15


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_errors_uncorrelated_with_channel(seed):
    cfg, ch = _draw(seed)
    est = estimate(ch, EstimationModel(1.0, 1.0, 1.0), RngStream(seed, 1))
    # independence by stream separation; a single draw's correlation is
    # noisy, so only rule out gross coupling
    e_si = est.h_si_hat - ch.h_si
    corr = abs(np.vdot(ch.h_si, e_si)) / (
        np.linalg.norm(ch.h_si) * np.linalg.norm(e_si))
    assert corr < 0.5
