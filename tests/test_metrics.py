import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import fdmimo.metrics as metrics
import fdmimo.numerics as numerics
from fdmimo.channel import (ConfigError, RicianParams, SystemConfig,
                            default_geometry, generate_iid)
from fdmimo.closedform import rate_perfect
from fdmimo.estimation import EstimationModel, estimate, model_from_config
from fdmimo.metrics import (Curve, RateReport, dl_sinr, half_duplex_rate,
                            monte_carlo, monte_carlo_curves,
                            monte_carlo_sweep, residual_si, sum_rate,
                            trial_sample, ul_sinr)
from fdmimo.numerics import RngStream
from fdmimo.transceiver import SicMode, build

CFG_SMALL = SystemConfig(M=9, N=5, K=3)


def _trial(seed=0, model=None):
    ch = generate_iid(CFG_SMALL, RngStream(seed, 0))
    est = estimate(ch, model or EstimationModel(), RngStream(seed, 1))
    return ch, est


# -------------------------------------------------- oracle: naive loops

def _naive_dl(h, g, rho):
    k = g.shape[1]
    out = np.empty(k)
    for i in range(k):
        sig = rho * abs(h[i] @ g[:, i]) ** 2
        intf = rho * sum(abs(h[i] @ g[:, j]) ** 2 for j in range(k) if j != i)
        out[i] = sig / (intf + 1.0)
    return out


def _naive_ul(h, w, omega, rho, pref):
    k = w.shape[0]
    out = np.empty(k)
    for i in range(k):
        sig = rho * abs(w[i] @ h[:, i]) ** 2
        intf = rho * sum(abs(w[i] @ h[:, j]) ** 2 for j in range(k) if j != i)
        out[i] = sig / (intf + pref * omega[i] + np.sum(np.abs(w[i]) ** 2))
    return out


def _naive_omega(w, x, g):
    k = w.shape[0]
    return np.array([np.sum(np.abs(w[i] @ x @ g) ** 2) for i in range(k)])


def test_dl_sinr_matches_naive_loops():
    ch, est = _trial(3)
    ts = build(SicMode.SUBTRACTION, est)
    got = dl_sinr(ch.h_dl, ts.g, 2.5)
    assert np.allclose(got, _naive_dl(ch.h_dl, ts.g, 2.5), rtol=1e-12)


def test_ul_sinr_matches_naive_loops():
    model = EstimationModel(0.05, 0.05, 0.1)
    ch, est = _trial(4, model)
    ts = build(SicMode.NO_SIC, est)
    omega = residual_si(SicMode.NO_SIC, ts.w, ch.h_si, est.h_si_hat, ts.g)
    got = ul_sinr(ch.h_ul, ts.w, omega, CFG_SMALL.rho_ul,
                  CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    want = _naive_ul(ch.h_ul, ts.w, omega, CFG_SMALL.rho_ul,
                     CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.allclose(_naive_omega(ts.w, ch.h_si, ts.g), omega, rtol=1e-12)


def test_residual_si_subtraction_uses_error_only():
    model = EstimationModel(0.0, 0.0, 0.1)
    ch, est = _trial(5, model)
    ts = build(SicMode.SUBTRACTION, est)
    got = residual_si(SicMode.SUBTRACTION, ts.w, ch.h_si, est.h_si_hat, ts.g)
    want = _naive_omega(ts.w, ch.h_si - est.h_si_hat, ts.g)
    assert np.allclose(got, want, rtol=1e-12)


def test_residual_si_perfect_estimates():
    ch, est = _trial(6)
    stt = build(SicMode.SUBTRACTION, est)
    assert np.all(residual_si(SicMode.SUBTRACTION, stt.w, ch.h_si,
                              est.h_si_hat, stt.g) == 0.0)
    sps = build(SicMode.SPATIAL_SUPPRESSION, est)
    assert np.max(residual_si(SicMode.SPATIAL_SUPPRESSION, sps.w, ch.h_si,
                              est.h_si_hat, sps.g)) < 1e-20
    assert np.min(residual_si(SicMode.NO_SIC, stt.w, ch.h_si,
                              est.h_si_hat, stt.g)) > 0.0


def test_ul_sinr_si_snr_override():
    ch, est = _trial(7)
    ts = build(SicMode.NO_SIC, est)
    omega = residual_si(SicMode.NO_SIC, ts.w, ch.h_si, est.h_si_hat, ts.g)
    off = ul_sinr(ch.h_ul, ts.w, omega, CFG_SMALL.rho_ul, 0.0)
    want = _naive_ul(ch.h_ul, ts.w, omega, CFG_SMALL.rho_ul, 0.0)
    assert np.allclose(off, want, rtol=1e-12)


def test_sinrs_broadcast_over_trials_and_points():
    model = EstimationModel(0.05, 0.05, 0.1)
    draws = [_trial(seed, model) for seed in range(3)]
    sets = [build(SicMode.SUBTRACTION, est) for _, est in draws]
    h_dl, h_ul, h_si, h_si_hat, g, w = (np.stack(a) for a in zip(*[
        (ch.h_dl, ch.h_ul, ch.h_si, est.h_si_hat, ts.g, ts.w)
        for (ch, est), ts in zip(draws, sets)]))
    rho = np.array([0.5, 2.0])
    omega = residual_si(SicMode.SUBTRACTION, w, h_si, h_si_hat, g)
    dl = dl_sinr(h_dl[:, None], g[:, None], rho)
    ul = ul_sinr(h_ul[:, None], w[:, None], omega[:, None], rho, 3.0)
    assert dl.shape == ul.shape == (3, 2, 3)
    assert sum_rate(dl).shape == (3, 2)
    for t, ((ch, est), ts) in enumerate(zip(draws, sets)):
        om = residual_si(SicMode.SUBTRACTION, ts.w, ch.h_si, est.h_si_hat,
                         ts.g)
        assert np.array_equal(omega[t], om)
        for j, r in enumerate(rho):
            assert np.array_equal(dl[t, j], dl_sinr(ch.h_dl, ts.g, r))
            assert np.array_equal(ul[t, j],
                                  ul_sinr(ch.h_ul, ts.w, om, r, 3.0))


def test_sum_rate_frozen():
    assert sum_rate(np.array([1.0, 3.0])) == 3.0
    assert sum_rate(np.array([0.0])) == 0.0


def test_trial_sample_bundles_everything():
    ch, est = _trial(8)
    ts = build(SicMode.SUBTRACTION, est)
    s = trial_sample(CFG_SMALL, SicMode.SUBTRACTION, ch, est, ts)
    assert s.dl.shape == s.ul.shape == s.omega.shape == (3,)
    assert np.array_equal(s.dl, dl_sinr(ch.h_dl, ts.g, CFG_SMALL.rho_dl))


# ----------------------------------------------------------- accumulator

def test_welford_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(3.0, 2.0, size=997)
    acc = metrics._Welford()
    for x in xs:
        acc.add(float(x))
    assert acc.mean == pytest.approx(np.mean(xs), rel=1e-12)
    sem = np.std(xs, ddof=1) / math.sqrt(len(xs))
    assert acc.ci95() == pytest.approx(1.96 * sem, rel=1e-12)


def test_welford_needs_two_samples():
    acc = metrics._Welford()
    acc.add(1.0)
    assert math.isnan(acc.ci95())


def test_rate_report_valid_threshold():
    ok = RateReport(1.0, 1.0, 0.1, 0.1, trials=10_000, failures=0)
    assert ok.valid
    bad = RateReport(1.0, 1.0, 0.1, 0.1, trials=1000, failures=2)
    assert not bad.valid
    # exactly 0.1 percent is already invalid, just below it is not
    edge = RateReport(1.0, 1.0, 0.1, 0.1, trials=1000, failures=1)
    assert not edge.valid
    below = RateReport(1.0, 1.0, 0.1, 0.1, trials=1001, failures=1)
    assert below.valid


# ----------------------------------------------------------- monte carlo

def test_monte_carlo_deterministic():
    a = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=50, master_seed=9)
    b = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=50, master_seed=9)
    assert a == b
    c = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=50, master_seed=10)
    assert a != c


def test_sweep_matches_single_points_bitwise():
    cfgs = [CFG_SMALL,
            dataclasses.replace(CFG_SMALL, rho_t_db=60.0),
            dataclasses.replace(CFG_SMALL, rho_ul_db=0.0)]
    swept = monte_carlo_sweep(cfgs, SicMode.NO_SIC, trials=40, master_seed=3)
    for cfg, row in zip(cfgs, swept):
        alone = monte_carlo(cfg, SicMode.NO_SIC, trials=40, master_seed=3)
        assert row == alone


def test_common_random_numbers_pair_modes():
    # same seed, perfect CSI: subtraction and suppression differ only in
    # the precoder, and with exact SI knowledge both kill the SI term, so
    # the uplink rates agree to numerical precision per trial
    kw = dict(trials=60, master_seed=11)
    a = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, **kw)
    b = monte_carlo(CFG_SMALL, SicMode.SPATIAL_SUPPRESSION, **kw)
    assert np.isclose(a.ul_sum_rate, b.ul_sum_rate, rtol=1e-12)
    assert a.dl_sum_rate > b.dl_sum_rate


def _chunks_of(monkeypatch, size):
    monkeypatch.setattr(metrics, "_chunk_trials", lambda m, n, k: size)


def _failing_precoders(monkeypatch, doomed, rows=None):
    """Make the stacked pseudo-inverse guard reject the downlink precoders
    of the trials in doomed (counting precoder inputs in call order), only
    for inputs with the given row count when rows is set."""
    real = numerics._pseudo_inverse
    seen = {"n": 0}

    def flaky(a, gram_name):
        x, failed = real(a, gram_name)
        if gram_name == "A·Aᴴ" and rows in (None, a.shape[-2]):
            index = seen["n"] + np.arange(failed.size)
            seen["n"] += failed.size
            failed = failed | np.isin(index, doomed)
        return x, failed

    monkeypatch.setattr(numerics, "_pseudo_inverse", flaky)


def test_failures_are_counted(monkeypatch):
    _chunks_of(monkeypatch, 4)
    _failing_precoders(monkeypatch, [4, 9, 14, 19, 24])
    rep = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=25, master_seed=1)
    assert rep.failures == 5
    assert rep.trials == 25
    assert not rep.valid


def test_failed_suppression_trial_still_counts_for_other_modes(monkeypatch):
    cfg, trials, seed = CFG_SMALL, 10, 3
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION),
              Curve(SicMode.SUBTRACTION, [0.0])]
    with pytest.MonkeyPatch.context() as mp:
        _chunks_of(mp, 4)
        _failing_precoders(mp, [0, 5, 9], rows=cfg.K + cfg.N)
        got = monte_carlo_curves([cfg], curves, trials=trials,
                                 master_seed=seed)
    assert [reports[0].failures for reports in got] == [0, 0, 3, 0]
    for curve, reports in zip(curves, got):
        if curve.mode is not SicMode.SPATIAL_SUPPRESSION:
            assert reports == monte_carlo_sweep(
                [cfg], curve.mode, si_snrs=curve.si_snrs, trials=trials,
                master_seed=seed)
    # the suppression curve averages exactly the trials that survived
    dl = []
    for t in sorted(set(range(trials)) - {0, 5, 9}):
        ch = generate_iid(cfg, RngStream(seed, 2 * t))
        est = estimate(ch, EstimationModel(), RngStream(seed, 2 * t + 1))
        ts = build(SicMode.SPATIAL_SUPPRESSION, est)
        dl.append(sum_rate(dl_sinr(ch.h_dl, ts.g, cfg.rho_dl)))
    assert got[2][0].dl_sum_rate == pytest.approx(np.mean(dl), rel=1e-12)


def test_every_trial_failing_reports_nan(monkeypatch):
    monkeypatch.setattr(numerics, "GRAM_CONDITION_LIMIT", 1.0)
    rep = monte_carlo(CFG_SMALL, SicMode.NO_SIC, trials=6, master_seed=1)
    assert rep.failures == rep.trials == 6
    assert math.isnan(rep.dl_sum_rate) and math.isnan(rep.ul_sum_rate)
    assert math.isnan(rep.dl_ci95) and math.isnan(rep.ul_ci95)
    assert not rep.valid


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), extra_n=st.integers(1, 3),
       extra_m=st.integers(0, 3), chunk=st.integers(2, 5),
       trials=st.integers(2, 13), correlated=st.booleans(),
       seed=st.integers(0, 1000))
def test_multi_curve_call_equals_one_curve_calls(k, extra_n, extra_m, chunk,
                                                 trials, correlated, seed):
    assume(trials % chunk != 0)    # a partial last chunk; two trials give CIs
    n = k + extra_n
    cfg = SystemConfig(M=n + k + extra_m, N=n, K=k)
    configs = [cfg, dataclasses.replace(cfg, rho_t_db=70.0),
               dataclasses.replace(cfg, rho_ul_db=0.0, alpha_anc_db=30.0)]
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION),
              Curve(SicMode.SUBTRACTION, [0.0, None, 0.0])]
    kw = dict(trials=trials, master_seed=seed,
              estimation=model_from_config(cfg, perfect=False))
    if correlated:
        kw.update(geometry=default_geometry(cfg, 2.1e9),
                  rician=RicianParams(kappa=1.0, sigma_si=1.0))
    with pytest.MonkeyPatch.context() as mp:
        _chunks_of(mp, chunk)
        together = monte_carlo_curves(configs, curves, **kw)
    for curve, reports in zip(curves, together):
        # one-curve calls at the default chunk size, one chunk here
        assert reports == monte_carlo_sweep(configs, curve.mode,
                                            si_snrs=curve.si_snrs, **kw)


def test_chunk_size_follows_the_array_sizes():
    assert metrics._chunk_trials(64, 20, 10) >= 4
    assert (metrics._chunk_trials(128, 40, 20)
            < metrics._chunk_trials(64, 20, 10))
    assert metrics._chunk_trials(4096, 2048, 1024) == 1


def test_ci_shrinks_like_sqrt_n():
    a = monte_carlo(CFG_SMALL, SicMode.NO_SIC, trials=400, master_seed=2)
    b = monte_carlo(CFG_SMALL, SicMode.NO_SIC, trials=1600, master_seed=2)
    assert 1.6 < a.ul_ci95 / b.ul_ci95 < 2.4


def test_monte_carlo_tracks_closed_form():
    cfg = SystemConfig()  # full size so the Wishart approximations bite
    rep = monte_carlo(cfg, SicMode.SUBTRACTION, trials=300, master_seed=5)
    cf = rate_perfect(SicMode.SUBTRACTION, cfg)
    assert rep.dl_sum_rate == pytest.approx(cf.dl_rate, rel=0.03)
    assert rep.ul_sum_rate == pytest.approx(cf.ul_rate, rel=0.03)


def test_correlated_model_smoke():
    cfg = SystemConfig(M=12, N=6, K=3)
    rep = monte_carlo(cfg, SicMode.SUBTRACTION, trials=20, master_seed=4,
                      geometry=default_geometry(cfg, 2.1e9),
                      rician=RicianParams(kappa=3.0, sigma_si=1.0))
    assert rep.failures == 0
    assert rep.dl_sum_rate > 0.0 and rep.ul_sum_rate > 0.0


# ------------------------------------------------------------ validation

def test_sweep_validation_errors():
    with pytest.raises(ConfigError, match="trials"):
        monte_carlo_sweep([CFG_SMALL], SicMode.NO_SIC, trials=0,
                          master_seed=0)
    with pytest.raises(ConfigError, match="at least one"):
        monte_carlo_sweep([], SicMode.NO_SIC, trials=5, master_seed=0)
    with pytest.raises(ConfigError, match="share M, N, K"):
        monte_carlo_sweep([CFG_SMALL, SystemConfig(M=10, N=5, K=3)],
                          SicMode.NO_SIC, trials=5, master_seed=0)
    with pytest.raises(ConfigError, match="together"):
        monte_carlo_sweep([CFG_SMALL], SicMode.NO_SIC, trials=5,
                          master_seed=0, geometry=default_geometry(CFG_SMALL, 2.1e9))
    with pytest.raises(ConfigError, match="si_snrs"):
        monte_carlo_sweep([CFG_SMALL], SicMode.NO_SIC, trials=5,
                          master_seed=0, si_snrs=[1.0, 2.0])


# ----------------------------------------------------------- half duplex

def test_half_duplex_is_half_the_subtraction_rate():
    cfg = dataclasses.replace(SystemConfig(), rho_t_db=80.0)
    got = half_duplex_rate(cfg)
    assert got == 0.5 * rate_perfect(SicMode.SUBTRACTION, cfg).total
    assert got == pytest.approx(47.47427792245599, rel=1e-14)


def test_half_duplex_rho_dl_override():
    cfg = SystemConfig()
    got = half_duplex_rate(cfg, rho_dl_linear=1.0)
    want = 0.5 * rate_perfect(SicMode.SUBTRACTION, cfg, rho_dl=1.0).total
    assert got == want
