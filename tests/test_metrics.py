import dataclasses
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fdmimo
import fdmimo.metrics as metrics
import fdmimo.numerics as numerics
import fdmimo.transceiver as transceiver
from fdmimo.channel import (ConfigError, CorrelatedSampler, SystemConfig,
                            _channel_stack, generate_iid)
from fdmimo.closedform import rate_half_duplex, rate_perfect
from fdmimo.estimation import EstimationModel, estimate, model_from_config
from fdmimo.metrics import (Curve, dl_sinr, monte_carlo, monte_carlo_sweep,
                            residual_si, sum_rate, ul_sinr)
from fdmimo.numerics import RngStream
from fdmimo.transceiver import SicMode, build

CFG_SMALL = SystemConfig(M=9, N=5, K=3)


def _trial(seed=0, model=None, t=0, cfg=CFG_SMALL, sampler=None):
    """Trial t's true channels (h_dl, h_ul, h_si) and estimates
    (h_dl_hat, h_ul_hat, h_si_hat), drawn as a stack of one trial from
    substreams 2t and 2t+1 of seed, as the engine draws it."""
    truth = _channel_stack(cfg, 1)
    fill = generate_iid if sampler is None else sampler.sample
    fill([RngStream(seed, 2 * t)], *truth)
    hats = tuple(np.empty_like(h) for h in truth)
    estimate(model or EstimationModel(), [RngStream(seed, 2 * t + 1)], truth,
             hats, None if sampler is None else sampler.si_amp)
    return tuple(h[0] for h in truth), tuple(h[0] for h in hats)


def _build(mode, hats):
    """One draw's precoder, combiner and failure flag for mode, built as a
    stack of one draw."""
    dl, ul, si = hats
    w, built = build((mode,), np.vstack([dl, si])[None], ul[None])
    g, failed = built[mode]
    return g[0], w[0], bool(failed[0])


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
    (h_dl, _, _), hats = _trial(3)
    g, _, _ = _build(SicMode.SUBTRACTION, hats)
    got = dl_sinr(h_dl, g, 2.5)
    assert np.allclose(got, _naive_dl(h_dl, g, 2.5), rtol=1e-12)


def test_ul_sinr_matches_naive_loops():
    model = EstimationModel(0.05, 0.05, 0.1)
    (_, h_ul, h_si), hats = _trial(4, model)
    g, w, _ = _build(SicMode.NO_SIC, hats)
    omega = residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)
    got = ul_sinr(h_ul, w, omega, CFG_SMALL.rho_ul,
                  CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    want = _naive_ul(h_ul, w, omega, CFG_SMALL.rho_ul,
                     CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.allclose(_naive_omega(w, h_si, g), omega, rtol=1e-12)


def test_residual_si_subtraction_uses_error_only():
    model = EstimationModel(0.0, 0.0, 0.1)
    (_, _, h_si), hats = _trial(5, model)
    g, w, _ = _build(SicMode.SUBTRACTION, hats)
    got = residual_si(SicMode.SUBTRACTION, w, h_si, hats[2], g)
    want = _naive_omega(w, h_si - hats[2], g)
    assert np.allclose(got, want, rtol=1e-12)


def test_residual_si_perfect_estimates():
    (_, _, h_si), hats = _trial(6)
    g, w, _ = _build(SicMode.SUBTRACTION, hats)
    assert np.all(residual_si(SicMode.SUBTRACTION, w, h_si, hats[2],
                              g) == 0.0)
    g_sps, w_sps, _ = _build(SicMode.SPATIAL_SUPPRESSION, hats)
    assert np.max(residual_si(SicMode.SPATIAL_SUPPRESSION, w_sps, h_si,
                              hats[2], g_sps)) < 1e-20
    assert np.min(residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)) > 0.0


def test_ul_sinr_si_snr_override():
    (_, h_ul, h_si), hats = _trial(7)
    g, w, _ = _build(SicMode.NO_SIC, hats)
    omega = residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)
    off = ul_sinr(h_ul, w, omega, CFG_SMALL.rho_ul, 0.0)
    want = _naive_ul(h_ul, w, omega, CFG_SMALL.rho_ul, 0.0)
    assert np.allclose(off, want, rtol=1e-12)


def test_sinrs_broadcast_over_trials_and_points():
    model = EstimationModel(0.05, 0.05, 0.1)
    draws = [_trial(seed, model) for seed in range(3)]
    sets = [_build(SicMode.SUBTRACTION, hats) for _, hats in draws]
    h_dl, h_ul, h_si, h_si_hat, g, w = (np.stack(a) for a in zip(*[
        (*truth, hats[2], g, w) for (truth, hats), (g, w, _)
        in zip(draws, sets)]))
    rho = np.array([0.5, 2.0])
    omega = residual_si(SicMode.SUBTRACTION, w, h_si, h_si_hat, g)
    dl = dl_sinr(h_dl[:, None], g[:, None], rho)
    ul = ul_sinr(h_ul[:, None], w[:, None], omega[:, None], rho, 3.0)
    assert dl.shape == ul.shape == (3, 2, 3)
    assert sum_rate(dl).shape == (3, 2)
    for t in range(3):
        om = residual_si(SicMode.SUBTRACTION, w[t], h_si[t], h_si_hat[t],
                         g[t])
        assert np.array_equal(omega[t], om)
        for j, r in enumerate(rho):
            assert np.array_equal(dl[t, j], dl_sinr(h_dl[t], g[t], r))
            assert np.array_equal(ul[t, j],
                                  ul_sinr(h_ul[t], w[t], om, r, 3.0))


def test_sum_rate_frozen():
    assert sum_rate(np.array([1.0, 3.0])) == 3.0
    assert sum_rate(np.array([0.0])) == 0.0


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
    swept, = monte_carlo_sweep(cfgs, [Curve(SicMode.NO_SIC)], trials=40,
                               master_seed=3)
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
    """Make the right pseudo-inverse guard reject the downlink precoders
    of the trials in doomed (counting precoder inputs in call order), only
    for inputs with the given row count when rows is set."""
    real = transceiver.right_pseudo_inverse
    seen = {"n": 0}

    def flaky(a, workspace=None):
        x, failed = real(a, workspace)
        if rows in (None, a.shape[-2]):
            index = seen["n"] + np.arange(failed.size)
            seen["n"] += failed.size
            failed = failed | np.isin(index, doomed)
        return x, failed

    monkeypatch.setattr(transceiver, "right_pseudo_inverse", flaky)


def test_failures_are_counted(monkeypatch):
    _chunks_of(monkeypatch, 4)
    _failing_precoders(monkeypatch, [4, 9, 14, 19, 24])
    rep = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=25, master_seed=1)
    assert rep.failures == 5
    assert rep.trials == 25


def test_failed_suppression_trial_still_counts_for_other_modes(monkeypatch):
    cfg, trials, seed = CFG_SMALL, 10, 3
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION),
              Curve(SicMode.SUBTRACTION, si_free=True)]
    with pytest.MonkeyPatch.context() as mp:
        _chunks_of(mp, 4)
        _failing_precoders(mp, [0, 5, 9], rows=cfg.K + cfg.N)
        got = monte_carlo_sweep([cfg], curves, trials=trials,
                                master_seed=seed)
    assert [reports[0].failures for reports in got] == [0, 0, 3, 0]
    for curve, reports in zip(curves, got):
        if curve.mode is not SicMode.SPATIAL_SUPPRESSION:
            assert reports == monte_carlo_sweep(
                [cfg], [curve], trials=trials, master_seed=seed)[0]
    # the suppression curve averages exactly the trials that survived
    dl = []
    for t in sorted(set(range(trials)) - {0, 5, 9}):
        (h_dl, _, _), hats = _trial(seed, t=t, cfg=cfg)
        g, _, _ = _build(SicMode.SPATIAL_SUPPRESSION, hats)
        dl.append(sum_rate(dl_sinr(h_dl, g, cfg.rho_dl)))
    assert got[2][0].dl_sum_rate == pytest.approx(np.mean(dl), rel=1e-12)


def test_every_trial_failing_reports_nan(monkeypatch):
    monkeypatch.setattr(numerics, "GRAM_CONDITION_LIMIT", 1.0)
    rep = monte_carlo(CFG_SMALL, SicMode.NO_SIC, trials=6, master_seed=1)
    assert rep.failures == rep.trials == 6
    assert math.isnan(rep.dl_sum_rate) and math.isnan(rep.ul_sum_rate)
    assert math.isnan(rep.dl_ci95) and math.isnan(rep.ul_ci95)


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
              Curve(SicMode.SUBTRACTION, si_free=True)]
    kw = dict(trials=trials, master_seed=seed,
              estimation=model_from_config(cfg, perfect=False))
    if correlated:
        kw.update(sampler=CorrelatedSampler(cfg))
    with pytest.MonkeyPatch.context() as mp:
        _chunks_of(mp, chunk)
        together = monte_carlo_sweep(configs, curves, **kw)
    for curve, reports in zip(curves, together):
        # one-curve calls at the default chunk size, one chunk here
        assert reports == monte_carlo_sweep(configs, [curve], **kw)[0]


def _complex_gaussian(gen, rows, cols, variance):
    """One complex draw as the per-trial draw made it: zeros without
    drawing at zero variance, else two standard normal draws, a scale and
    a complex build."""
    if variance == 0.0:
        return np.zeros((rows, cols), dtype=complex)
    scale = np.sqrt(variance / 2.0)
    real = gen.standard_normal((rows, cols))
    imag = gen.standard_normal((rows, cols))
    return scale * (real + 1j * imag)


def _rician(sampler, kappa, sigma_si):
    """The sampler with the LOS matrix and NLOS amplitude of Rician
    factor kappa and LOS amplitude sigma_si, set after construction."""
    cfg = sampler.config
    sampler._los = (np.sqrt(kappa / (kappa + 1.0)) * sigma_si
                    * np.ones((cfg.N, cfg.M)))
    sampler._nlos_amp = np.sqrt(1.0 / (kappa + 1.0))
    return sampler


def _reference_trial(cfg, model, seed, t, rician, sampler):
    """Trial t drawn one trial at a time with six separate complex draws:
    the channels from stream 2t, then the errors from stream 2t+1; rician
    is the sampler's (kappa, sigma_si), or None for i.i.d. channels."""
    m, n, k = cfg.M, cfg.N, cfg.K
    gen = RngStream(seed, 2 * t).generator()
    h_dl = _complex_gaussian(gen, k, m, 1.0)
    h_ul = _complex_gaussian(gen, n, k, 1.0)
    h_si = _complex_gaussian(gen, n, m, 1.0)
    if rician is not None:
        kappa, sigma_si = rician
        los = (np.sqrt(kappa / (kappa + 1.0)) * sigma_si
               * np.ones((n, m)))
        nlos = np.sqrt(1.0 / (kappa + 1.0))
        r_tx, r_rx = sampler.r_tx_sqrt, sampler.r_rx_sqrt
        h_dl = h_dl @ r_tx
        h_ul = r_rx @ h_ul
        h_si = r_rx @ (los + nlos * h_si) @ r_tx
        h_si = sampler.si_amp * h_si
    gen = RngStream(seed, 2 * t + 1).generator()
    e_dl = _complex_gaussian(gen, k, m, model.eps2_dl)
    e_ul = _complex_gaussian(gen, n, k, model.eps2_ul)
    e_si = _complex_gaussian(gen, n, m, model.eps2_si)
    if rician is not None:
        e_si = sampler.si_amp * e_si
    return (h_dl, h_ul, h_si, np.vstack([h_dl + e_dl, h_si + e_si]),
            h_ul + e_ul)


@pytest.mark.parametrize("dims", [(7, 4, 3), (10, 4, 2)])   # M = N + K
@pytest.mark.parametrize("correlated", [False, True])
@pytest.mark.parametrize("drawn", [
    (dl, ul, si) for dl in (False, True) for ul in (False, True)
    for si in (False, True)])
def test_trial_chunks_equal_the_per_trial_draw_bit_for_bit(
        monkeypatch, dims, correlated, drawn):
    m, n, k = dims
    cfg = SystemConfig(M=m, N=n, K=k)
    model = EstimationModel(*(v if d else 0.0
                              for v, d in zip((0.1, 0.2, 0.3), drawn)))
    rician = sampler = None
    if correlated:
        rician = (2.0, 0.7)
        sampler = _rician(CorrelatedSampler(cfg), *rician)
    _chunks_of(monkeypatch, 3)
    seed, trials = 17, range(2, 9)
    want = {t: _reference_trial(cfg, model, seed, t, rician, sampler)
            for t in trials}
    opened = []
    generator = RngStream.generator

    def counted(stream):
        opened.append(stream.stream_index)
        return generator(stream)
    monkeypatch.setattr(RngStream, "generator", counted)
    chunks = []
    for chunk, *arrays in metrics._trial_chunks(cfg, model, seed, trials,
                                                sampler):
        for i, t in enumerate(chunk):
            for got, ref in zip(arrays, want[t]):
                assert got[i].shape == ref.shape
                assert np.array_equal(got[i], ref), t
        chunks.append(list(chunk))
    assert chunks == [[2, 3, 4], [5, 6, 7], [8]]    # a partial last chunk
    # one generator per stream; a perfect model opens no error stream
    errors = [] if model.perfect else [2 * t + 1 for t in trials]
    assert sorted(opened) == sorted([2 * t for t in trials] + errors)


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 3), extra_n=st.integers(1, 2), extra_m=st.just(0),
       nmse=st.sampled_from([0.0, 0.2, 1.0, 7.5]),
       rho_t_db=st.sampled_from([-math.inf, 20.0, 60.0]),
       perfect=st.booleans(), correlated=st.booleans(),
       trials=st.integers(2, 7), seed=st.integers(0, 1000))
# the correlated model under perfect CSI at the default N and K, and at
# the smallest N + K where suppression fails in every trial
@example(k=10, extra_n=10, extra_m=0, nmse=0.2, rho_t_db=60.0, perfect=True,
         correlated=True, trials=3, seed=1)
@example(k=4, extra_n=4, extra_m=0, nmse=0.2, rho_t_db=20.0, perfect=True,
         correlated=True, trials=4, seed=7)
# arrays longer than the default, M = 128 and M = 256, the second with an
# exact SI estimate under imperfect user-link CSI
@example(k=10, extra_n=30, extra_m=78, nmse=0.2, rho_t_db=50.0,
         perfect=False, correlated=True, trials=10, seed=1)
@example(k=10, extra_n=50, extra_m=186, nmse=0.0, rho_t_db=50.0,
         perfect=False, correlated=True, trials=10, seed=1)
def test_edge_configs_give_finite_rates_and_count_failures(
        k, extra_n, extra_m, nmse, rho_t_db, perfect, correlated, trials,
        seed):
    # M = N + K (extra_m = 0) leaves the suppression precoder exactly K
    # dimensions
    n = k + extra_n
    cfg = SystemConfig(M=n + k + extra_m, N=n, K=k, rho_t_db=rho_t_db,
                       nmse=nmse)
    model = model_from_config(cfg, perfect=perfect)
    sampler = CorrelatedSampler(cfg) if correlated else None
    curves = [Curve(mode) for mode in SicMode]
    got = monte_carlo_sweep([cfg], curves, trials=trials, master_seed=seed,
                            estimation=model, sampler=sampler)
    for curve, (rep,) in zip(curves, got):
        failed = sum(_build(curve.mode, _trial(seed, model, t, cfg,
                                               sampler)[1])[2]
                     for t in range(trials))
        assert rep.failures == failed
        assert rep.trials == trials
        if correlated and model.eps2_si == 0.0 and n + k >= 10:
            # A lambda/6 Jakes correlation leaves the suppression input
            # [h_dl; h_si] numerically rank-deficient once N + K reaches
            # 10, and only an SI estimation error would lift it; the
            # zero-forcing modes are untouched.
            spatial = curve.mode is SicMode.SPATIAL_SUPPRESSION
            assert rep.failures == (trials if spatial else 0)
        rates = (rep.dl_sum_rate, rep.ul_sum_rate)
        if rep.failures == trials:
            assert all(math.isnan(rate) for rate in rates)
        else:
            assert all(math.isfinite(rate) and rate >= 0.0 for rate in rates)


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
    sampler = _rician(CorrelatedSampler(cfg), 3.0, 1.0)
    rep = monte_carlo(cfg, SicMode.SUBTRACTION, trials=20, master_seed=4,
                      sampler=sampler)
    assert rep.failures == 0
    assert rep.dl_sum_rate > 0.0 and rep.ul_sum_rate > 0.0


# ------------------------------------------------------------ validation

def test_sweep_validation_errors():
    curves = [Curve(SicMode.NO_SIC)]
    with pytest.raises(ConfigError, match="trials"):
        monte_carlo_sweep([CFG_SMALL], curves, trials=0, master_seed=0)
    with pytest.raises(ConfigError, match="at least one"):
        monte_carlo_sweep([], curves, trials=5, master_seed=0)
    with pytest.raises(ConfigError, match="share M, N, K"):
        monte_carlo_sweep([CFG_SMALL, SystemConfig(M=10, N=5, K=3)],
                          curves, trials=5, master_seed=0)
    with pytest.raises(ConfigError, match="share M, N, K"):
        monte_carlo_sweep([CFG_SMALL], curves, trials=5, master_seed=0,
                          sampler=CorrelatedSampler(
                              SystemConfig(M=10, N=5, K=3)))


def test_curves_are_required_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before the curves were checked")

    monkeypatch.setattr(metrics, "_trial_chunks", no_draws)
    with pytest.raises(ConfigError, match="at least one curve"):
        monte_carlo_sweep([CFG_SMALL], [], trials=5, master_seed=0)


def test_a_correlated_si_level_above_the_ceiling_is_named_before_any_draw(
        monkeypatch):
    # the correlated model scales the SI by rho_t and the path gains, not
    # by beta_si: 400 - 40 dB plus the strongest path gain is far above
    # 250 dB, though every received SNR of the config itself is below it
    cfg = dataclasses.replace(CFG_SMALL, rho_t_db=400.0, beta_ue_db=-380.0,
                              beta_si_db=-300.0)
    sampler = CorrelatedSampler(cfg)

    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before the SI level was checked")

    monkeypatch.setattr(metrics, "_trial_chunks", no_draws)
    with pytest.raises(ConfigError, match="^rho_t_db = 400.0 with "
                       "alpha_anc_db = 40.0 puts the SI SNR of the strongest "
                       "correlated SI path at 3[0-9][0-9].[0-9] dB, above "
                       "the 250 dB ceiling"):
        monte_carlo_sweep([cfg], [Curve(SicMode.SUBTRACTION)], trials=3,
                          master_seed=0, sampler=sampler)


def test_a_correlated_si_level_after_subtraction_above_the_ceiling_is_named(
        monkeypatch):
    # beta_si_db = -300 keeps the config's own SI SNR after subtraction at
    # -40 dB, but the strongest correlated path puts it at 253.6 dB
    cfg = dataclasses.replace(CFG_SMALL, beta_si_db=-300.0, nmse=1e25)
    sampler = CorrelatedSampler(cfg)
    monte_carlo_sweep([dataclasses.replace(cfg, nmse=1e24)],   # 243.6 dB
                      [Curve(SicMode.SUBTRACTION)], trials=3, master_seed=0,
                      sampler=sampler)

    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before the SI level was checked")

    monkeypatch.setattr(metrics, "_trial_chunks", no_draws)
    with pytest.raises(ConfigError, match=(
            r"^rho_t_db = 50.0 with alpha_anc_db = 40.0 and nmse = 1e\+25 "
            r"puts the SI SNR left after subtraction on the strongest "
            r"correlated SI path at 253.6 dB, above the 250 dB ceiling")):
        monte_carlo_sweep([cfg], [Curve(SicMode.SUBTRACTION)], trials=3,
                          master_seed=0, sampler=sampler)


# ----------------------------------------------------------- half duplex

def test_half_duplex_is_half_the_subtraction_rate():
    cfg = dataclasses.replace(SystemConfig(), rho_t_db=80.0)
    got = rate_half_duplex(cfg)
    full = rate_perfect(SicMode.SUBTRACTION, cfg)
    assert (got.dl_rate, got.ul_rate) == (0.5 * full.dl_rate,
                                          0.5 * full.ul_rate)
    assert got.dl_rate + got.ul_rate == 0.5 * (full.dl_rate + full.ul_rate)
    assert got.dl_rate + got.ul_rate == pytest.approx(47.47427792245599,
                                                      rel=1e-14)


def test_half_duplex_rho_dl_override():
    # rho_dl is exactly 1.0 at 0 dB transmit SNR and user-link gain
    cfg = dataclasses.replace(SystemConfig(), rho_t_db=0.0, beta_ue_db=0.0)
    assert cfg.rho_dl == 1.0
    got = rate_half_duplex(cfg)
    full = rate_perfect(SicMode.SUBTRACTION, cfg)
    assert got.dl_rate + got.ul_rate == 0.5 * (full.dl_rate + full.ul_rate)


# ------------------------------------------------------------- workspace

def test_concurrent_sweeps_equal_sequential_ones(monkeypatch):
    # every sweep owns its workspace, so four at once on threads (more
    # than the cores), switching as often as the interpreter allows,
    # return what they return one after another
    _chunks_of(monkeypatch, 2)
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION)]
    configs = [CFG_SMALL, dataclasses.replace(CFG_SMALL, rho_t_db=60.0)]
    model = model_from_config(CFG_SMALL, perfect=False)
    seeds = range(4)

    def sweep(seed):
        return monte_carlo_sweep(configs, curves, trials=30,
                                 master_seed=seed, estimation=model)

    want = [sweep(seed) for seed in seeds]
    got = [None] * len(seeds)

    def work(i):
        got[i] = sweep(seeds[i])

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(seeds))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


#: Minor page faults of the second of two 600-trial sweeps at the default
#: sizes (sps, one point), printed by a fresh interpreter.
_WARMED_SWEEP_FAULTS = """
import resource
from fdmimo.channel import SystemConfig
from fdmimo.estimation import model_from_config
from fdmimo.metrics import Curve, monte_carlo_sweep
from fdmimo.transceiver import SicMode

cfg = SystemConfig()
model = model_from_config(cfg, perfect=False)
curves = [Curve(SicMode.SPATIAL_SUPPRESSION)]
monte_carlo_sweep([cfg], curves, trials=600, master_seed=1, estimation=model)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
monte_carlo_sweep([cfg], curves, trials=600, master_seed=1, estimation=model)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
def test_a_warmed_sweep_does_not_fault_its_pages_in_again():
    # A chunk's pseudo-inverse temporaries are large enough that glibc
    # hands them back to the system when they are freed, and every chunk
    # faulted them in again: about 17 400 minor faults for these 600
    # trials.  In one reused workspace they fault once.  The sweep runs in
    # a fresh interpreter, as under the CLI, because the allocator's
    # thresholds adapt to what the process freed before.
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _WARMED_SWEEP_FAULTS],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 1000
