import dataclasses
import gc
import math
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fdmimo
import fdmimo.metrics as metrics
import fdmimo.transceiver as transceiver
from fdmimo.channel import ConfigError, CorrelatedSampler, SystemConfig
from fdmimo.closedform import rate_half_duplex, rate_perfect
from fdmimo.estimation import error_variances
from fdmimo.experiments import default_scenario, run_scenario
from fdmimo.metrics import (Curve, dl_sinr, monte_carlo, monte_carlo_sweep,
                            residual_si, sum_rate, ul_sinr)
from fdmimo.numerics import RngStream, Streams, Workspace
from fdmimo.transceiver import SicMode

from conftest import chunks_of, drawn_trial, one_draw_build, with_rician

CFG_SMALL = SystemConfig(M=9, N=5, K=3)


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
    (h_dl, _, _), hats = drawn_trial(CFG_SMALL, 3)
    g, _, _ = one_draw_build(SicMode.SUBTRACTION, hats)
    got = dl_sinr(h_dl, g, 2.5)
    assert np.allclose(got, _naive_dl(h_dl, g, 2.5), rtol=1e-12)


def test_ul_sinr_matches_naive_loops():
    (_, h_ul, h_si), hats = drawn_trial(CFG_SMALL, 4, (0.05, 0.05, 0.1))
    g, w, _ = one_draw_build(SicMode.NO_SIC, hats)
    omega = residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)
    got = ul_sinr(h_ul, w, omega, CFG_SMALL.rho_ul,
                  CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    want = _naive_ul(h_ul, w, omega, CFG_SMALL.rho_ul,
                     CFG_SMALL.rho_si / CFG_SMALL.alpha_anc)
    assert np.allclose(got, want, rtol=1e-12)
    assert np.allclose(_naive_omega(w, h_si, g), omega, rtol=1e-12)


def test_residual_si_subtraction_uses_error_only():
    (_, _, h_si), hats = drawn_trial(CFG_SMALL, 5, (0.0, 0.0, 0.1))
    g, w, _ = one_draw_build(SicMode.SUBTRACTION, hats)
    got = residual_si(SicMode.SUBTRACTION, w, h_si, hats[2], g)
    want = _naive_omega(w, h_si - hats[2], g)
    assert np.allclose(got, want, rtol=1e-12)


def test_residual_si_perfect_estimates():
    (_, _, h_si), hats = drawn_trial(CFG_SMALL, 6)
    g, w, _ = one_draw_build(SicMode.SUBTRACTION, hats)
    assert np.all(residual_si(SicMode.SUBTRACTION, w, h_si, hats[2],
                              g) == 0.0)
    g_sps, w_sps, _ = one_draw_build(SicMode.SPATIAL_SUPPRESSION, hats)
    assert np.max(residual_si(SicMode.SPATIAL_SUPPRESSION, w_sps, h_si,
                              hats[2], g_sps)) < 1e-20
    assert np.min(residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)) > 0.0


def test_ul_sinr_si_snr_override():
    (_, h_ul, h_si), hats = drawn_trial(CFG_SMALL, 7)
    g, w, _ = one_draw_build(SicMode.NO_SIC, hats)
    omega = residual_si(SicMode.NO_SIC, w, h_si, hats[2], g)
    off = ul_sinr(h_ul, w, omega, CFG_SMALL.rho_ul, 0.0)
    want = _naive_ul(h_ul, w, omega, CFG_SMALL.rho_ul, 0.0)
    assert np.allclose(off, want, rtol=1e-12)


def test_sinrs_broadcast_over_trials_and_points():
    draws = [drawn_trial(CFG_SMALL, seed, (0.05, 0.05, 0.1))
             for seed in range(3)]
    sets = [one_draw_build(SicMode.SUBTRACTION, hats) for _, hats in draws]
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


def _failing_precoders(monkeypatch, doomed, rows=None):
    """Make the right pseudo-inverse guard reject the downlink precoders
    of the trials in doomed (counting precoder inputs in call order), only
    for inputs with the given row count when rows is set."""
    real = transceiver.right_pseudo_inverse
    seen = {"n": 0}

    def flaky(a, *args, **kwargs):
        x, failed = real(a, *args, **kwargs)
        if rows in (None, a.shape[-2]):
            index = seen["n"] + np.arange(failed.size)
            seen["n"] += failed.size
            failed = failed | np.isin(index, doomed)
        return x, failed

    monkeypatch.setattr(transceiver, "right_pseudo_inverse", flaky)


def test_failures_are_counted(monkeypatch):
    chunks_of(monkeypatch, 4)
    _failing_precoders(monkeypatch, [4, 9, 14, 19, 24])
    rep = monte_carlo(CFG_SMALL, SicMode.SUBTRACTION, trials=25, master_seed=1)
    assert rep.failures == 5
    assert rep.trials == 25


def test_failed_suppression_trial_still_counts_for_other_modes():
    cfg, trials, seed = CFG_SMALL, 10, 3
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION),
              Curve(SicMode.SUBTRACTION, si_free=True)]
    with pytest.MonkeyPatch.context() as mp:
        chunks_of(mp, 4)
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
        (h_dl, _, _), hats = drawn_trial(cfg, seed, t=t)
        g, _, _ = one_draw_build(SicMode.SPATIAL_SUPPRESSION, hats)
        dl.append(sum_rate(dl_sinr(h_dl, g, cfg.rho_dl)))
    assert got[2][0].dl_sum_rate == pytest.approx(np.mean(dl), rel=1e-12)


def test_every_trial_failing_reports_nan(every_inverse_fails):
    rep = monte_carlo(CFG_SMALL, SicMode.NO_SIC, trials=6, master_seed=1)
    assert rep.failures == rep.trials == 6
    assert math.isnan(rep.dl_sum_rate) and math.isnan(rep.ul_sum_rate)
    assert math.isnan(rep.dl_ci95) and math.isnan(rep.ul_ci95)


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 3), extra_n=st.integers(1, 3),
       extra_m=st.integers(0, 3), chunk=st.integers(2, 5),
       trials=st.integers(2, 13), correlated=st.booleans(),
       perfect=st.booleans(), seed=st.integers(0, 1000))
def test_multi_curve_call_equals_one_curve_calls(k, extra_n, extra_m, chunk,
                                                 trials, correlated, perfect,
                                                 seed):
    assume(trials % chunk != 0)    # a partial last chunk; two trials give CIs
    n = k + extra_n
    cfg = SystemConfig(M=n + k + extra_m, N=n, K=k)
    # only perfect CSI lets the points differ in the uplink SNR, which
    # sets the user-link estimation errors
    third = dict(alpha_anc_db=30.0, rho_ul_db=0.0 if perfect else 10.0)
    configs = [cfg, dataclasses.replace(cfg, rho_t_db=70.0),
               dataclasses.replace(cfg, **third)]
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SUBTRACTION, si_free=True)]
    if not (correlated and perfect):
        # the correlated model takes no suppression without an SI
        # estimation error
        curves.insert(2, Curve(SicMode.SPATIAL_SUPPRESSION))
    kw = dict(trials=trials, master_seed=seed, perfect=perfect)
    if correlated:
        kw.update(sampler=CorrelatedSampler(cfg))
    with pytest.MonkeyPatch.context() as mp:
        chunks_of(mp, chunk)
        together = monte_carlo_sweep(configs, curves, **kw)
    for curve, reports in zip(curves, together):
        # one-curve calls at the default chunk size, one chunk here; a CI
        # is NaN where a curve kept fewer than two trials
        alone = monte_carlo_sweep(configs, [curve], **kw)[0]
        assert np.array_equal([dataclasses.astuple(r) for r in reports],
                              [dataclasses.astuple(r) for r in alone],
                              equal_nan=True)


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


def _reference_trial(cfg, variances, seed, t, rician, sampler):
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
    eps2_dl, eps2_ul, eps2_si = variances
    e_dl = _complex_gaussian(gen, k, m, eps2_dl)
    e_ul = _complex_gaussian(gen, n, k, eps2_ul)
    e_si = _complex_gaussian(gen, n, m, eps2_si)
    if rician is not None:
        e_si = sampler.si_amp * e_si
    return (h_dl, h_ul, h_si, np.vstack([h_dl + e_dl, h_si + e_si]),
            h_ul + e_ul)


@pytest.mark.parametrize("dims", [(7, 4, 3), (10, 4, 2)])   # M = N + K
@pytest.mark.parametrize("correlated", [False, True])
# drawn: the CSI, perfect or not, and the rho_ul_db and nmse that set
# the errors drawn; -inf dB makes the user-link variance exactly 1, and
# nmse = 0 draws no SI error
@pytest.mark.parametrize("drawn", [
    (True, 10.0, 0.0), (True, 10.0, 0.3), (False, 10.0, 0.0),
    (False, 10.0, 0.3), (False, 10.0, 7.5), (False, -math.inf, 0.0),
    (False, -math.inf, 0.3), (False, 30.0, 1.0)])
def test_trial_chunks_equal_the_per_trial_draw_bit_for_bit(
        monkeypatch, dims, correlated, drawn):
    m, n, k = dims
    perfect, rho_ul_db, nmse = drawn
    cfg = SystemConfig(M=m, N=n, K=k, rho_ul_db=rho_ul_db, nmse=nmse)
    variances = error_variances(cfg, perfect)
    rician = sampler = None
    if correlated:
        rician = (2.0, 0.7)
        sampler = with_rician(CorrelatedSampler(cfg), *rician)
    chunks_of(monkeypatch, 3)
    seed, trials = 17, range(2, 9)
    want = {t: _reference_trial(cfg, variances, seed, t, rician, sampler)
            for t in trials}
    opened = []
    normals = Streams.normals

    def counted(streams, indices, outs):
        opened.extend(indices)
        return normals(streams, indices, outs)
    monkeypatch.setattr(Streams, "normals", counted)
    chunks = []
    for chunk, *arrays in metrics._trial_chunks(cfg, perfect, seed, trials,
                                                (), sampler):
        for i, t in enumerate(chunk):
            for got, ref in zip(arrays, want[t]):
                assert got[i].shape == ref.shape
                assert np.array_equal(got[i], ref), t
        chunks.append(list(chunk))
    assert chunks == [[2, 3, 4], [5, 6, 7], [8]]    # a partial last chunk
    # each stream drawn once; perfect CSI draws from no error stream
    errors = [] if perfect else [2 * t + 1 for t in trials]
    assert sorted(opened) == sorted([2 * t for t in trials] + errors)


def test_stream_set_up_does_not_grow_with_the_trial_count():
    # a sweep mixes its master seed and builds its one Philox once, and
    # derives each chunk's keys from them, so 4x the trials (2 and 7
    # chunks at the default sizes) build no more SeedSequence or Philox
    counts = []
    for trials in (10, 40):
        made = dict.fromkeys(("SeedSequence", "Philox"), 0)
        with pytest.MonkeyPatch.context() as mp:
            for name in made:
                def counted(*args, _name=name, _real=getattr(np.random, name),
                            **kwargs):
                    made[_name] += 1
                    return _real(*args, **kwargs)
                mp.setattr(np.random, name, counted)
            run_scenario(SystemConfig(), dataclasses.replace(
                default_scenario("custom"), trials=trials))
        counts.append(made)
    assert counts[0]["Philox"] > 0     # the counters see the sweep's Philox
    assert counts[0] == counts[1]


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 3), extra_n=st.integers(1, 2), extra_m=st.just(0),
       nmse=st.sampled_from([0.0, 0.2, 1.0, 7.5]),
       rho_t_db=st.sampled_from([-math.inf, 20.0, 60.0]),
       perfect=st.booleans(), correlated=st.booleans(),
       trials=st.integers(2, 7), seed=st.integers(0, 1000))
# the correlated model under perfect CSI, which suppression does not
# take, at the default N and K and at 12/8/4
@example(k=10, extra_n=10, extra_m=0, nmse=0.2, rho_t_db=60.0, perfect=True,
         correlated=True, trials=3, seed=1)
@example(k=4, extra_n=4, extra_m=0, nmse=0.2, rho_t_db=20.0, perfect=True,
         correlated=True, trials=4, seed=7)
# arrays longer than the default, M = 128 and M = 256, the second with an
# exact SI estimate under imperfect user-link CSI, which suppression does
# not take either
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
    variances = error_variances(cfg, perfect)
    sampler = CorrelatedSampler(cfg) if correlated else None
    curves = [Curve(mode) for mode in SicMode]
    exact_si = variances[2] < metrics._SPS_MIN_NMSE
    if correlated and exact_si:
        # Without an SI estimation error the suppression precoder hangs on
        # Jakes eigenvalues below J0's accuracy, so it is a named error;
        # the zero-forcing modes are untouched.
        with pytest.raises(ConfigError, match="correlated model needs"):
            monte_carlo_sweep([cfg], curves, trials=trials,
                              master_seed=seed, perfect=perfect,
                              sampler=sampler)
        curves = [c for c in curves
                  if c.mode is not SicMode.SPATIAL_SUPPRESSION]
    got = monte_carlo_sweep([cfg], curves, trials=trials, master_seed=seed,
                            perfect=perfect, sampler=sampler)
    for curve, (rep,) in zip(curves, got):
        failed = sum(one_draw_build(curve.mode, drawn_trial(
                         cfg, seed, variances, t, sampler)[1])[2]
                     for t in range(trials))
        assert rep.failures == failed
        assert rep.trials == trials
        if correlated and exact_si:
            assert rep.failures == 0
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
    sampler = with_rician(CorrelatedSampler(cfg), 3.0, 1.0)
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


def test_a_correlated_suppression_sweep_needs_an_si_estimation_error():
    # below nmse = 1e-12, or under perfect CSI, the correlated model does
    # not determine the suppression rate; the other modes and the i.i.d.
    # model run
    sps, stt = Curve(SicMode.SPATIAL_SUPPRESSION), Curve(SicMode.SUBTRACTION)
    for nmse, perfect in ((0.0, False), (9e-13, False), (0.2, True)):
        cfg = dataclasses.replace(CFG_SMALL, nmse=nmse)
        kw = dict(trials=2, master_seed=0, perfect=perfect)
        with pytest.raises(ConfigError, match="^sps under the correlated "
                           "model needs imperfect CSI with nmse >= 1e-12"):
            monte_carlo_sweep([cfg], [stt, sps],
                              sampler=CorrelatedSampler(cfg), **kw)
        monte_carlo_sweep([cfg], [stt], sampler=CorrelatedSampler(cfg), **kw)
        monte_carlo_sweep([cfg], [sps], **kw)
    cfg = dataclasses.replace(CFG_SMALL, nmse=1e-12)
    monte_carlo_sweep([cfg], [sps], trials=2, master_seed=0, perfect=False,
                      sampler=CorrelatedSampler(cfg))


def test_an_imperfect_csi_sweep_needs_one_set_of_estimation_errors():
    # imperfect CSI draws each trial's errors once for every point, so the
    # points must agree on the uplink SNR and the NMSE that set them
    curves = [Curve(SicMode.SUBTRACTION)]
    for other in (dataclasses.replace(CFG_SMALL, rho_ul_db=0.0),
                  dataclasses.replace(CFG_SMALL, nmse=0.1)):
        with pytest.raises(ConfigError, match="^imperfect-CSI sweep configs "
                           "must share rho_ul_db and nmse"):
            monte_carlo_sweep([CFG_SMALL, other], curves, trials=3,
                              master_seed=0, perfect=False)
    # perfect CSI draws no errors, so the uplink SNR may vary
    other = dataclasses.replace(CFG_SMALL, rho_ul_db=0.0)
    swept, = monte_carlo_sweep([CFG_SMALL, other], curves, trials=3,
                               master_seed=0)
    assert swept[1] == monte_carlo(other, SicMode.SUBTRACTION, trials=3,
                                   master_seed=0)


def test_curves_are_required_before_any_draw(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before the curves were checked")

    monkeypatch.setattr(metrics, "_trial_chunks", no_draws)
    with pytest.raises(ConfigError, match="at least one curve"):
        monte_carlo_sweep([CFG_SMALL], [], trials=5, master_seed=0)


def test_a_correlated_si_level_above_the_ceiling_is_named_before_any_draw(
        monkeypatch):
    # the correlated model scales the SI by rho_t and the path gains, not
    # by beta_si: 400 dB plus the strongest path gain is far above 250 dB,
    # though every received SNR of the config itself is below it
    cfg = dataclasses.replace(CFG_SMALL, rho_t_db=400.0, beta_ue_db=-380.0,
                              beta_si_db=-300.0)
    sampler = CorrelatedSampler(cfg)

    def no_draws(*args, **kwargs):
        raise AssertionError("trials drawn before the SI level was checked")

    monkeypatch.setattr(metrics, "_trial_chunks", no_draws)
    with pytest.raises(ConfigError, match=(
            r"^rho_t_db \+ strongest_si_gain_db = 393.57882772723093 dB is "
            r"above the 250 dB ceiling for a received SNR$")):
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
            r"^rho_t_db \+ strongest_si_gain_db - alpha_anc_db \+ 10 "
            r"log10\(nmse\) = 253.57882772723093 dB is above the 250 dB "
            r"ceiling for a received SNR$")):
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
    chunks_of(monkeypatch, 2)
    curves = [Curve(SicMode.NO_SIC), Curve(SicMode.SUBTRACTION),
              Curve(SicMode.SPATIAL_SUPPRESSION)]
    configs = [CFG_SMALL, dataclasses.replace(CFG_SMALL, rho_t_db=60.0)]
    seeds = range(4)

    def sweep(seed):
        return monte_carlo_sweep(configs, curves, trials=30,
                                 master_seed=seed, perfect=False)

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


# ----------------------------------------------------------- draw thread

def _paired_sweep(perfect=False):
    return monte_carlo_sweep(
        [CFG_SMALL, dataclasses.replace(CFG_SMALL, rho_t_db=60.0)],
        [Curve(SicMode.SUBTRACTION), Curve(SicMode.SPATIAL_SUPPRESSION)],
        trials=30, master_seed=3, perfect=perfect)


def test_a_sweep_leaves_no_draw_thread_behind(monkeypatch):
    chunks_of(monkeypatch, 4)
    before = threading.active_count()
    _paired_sweep()
    assert threading.active_count() == before


def test_closing_the_trial_chunks_early_joins_the_draw_thread(monkeypatch):
    # criteria 4 and 5 return mid-loop, which closes the generator; no
    # thread may then be left for run_all's next fork
    chunks_of(monkeypatch, 4)
    before = threading.active_count()
    chunks = metrics._trial_chunks(CFG_SMALL, False, 3, range(30), ())
    next(chunks)
    assert threading.active_count() == before + 1
    chunks.close()
    assert threading.active_count() == before


@pytest.mark.parametrize("owner, name, failing", [
    (Streams, "normals", 1), (Streams, "normals", 2), (metrics, "build", 2)],
    ids=["first-draw", "second-draw", "second-build"])
def test_a_draw_error_reaches_the_caller_and_ends_the_thread(
        monkeypatch, owner, name, failing):
    # the first draw is made before the caller's first chunk, the second
    # while the caller works on the first; a build runs on the calling
    # thread, the second while the thread draws the third chunk.  A hang
    # here would fail on the timeout
    chunks_of(monkeypatch, 4)
    real = getattr(owner, name)
    calls = []

    def fails(*args):
        calls.append(args)
        if len(calls) == failing:
            raise RuntimeError(f"call {failing} failed")
        return real(*args)
    monkeypatch.setattr(owner, name, fails)
    before = threading.active_count()
    raised = []

    def sweep():
        try:
            _paired_sweep(perfect=True)
        except RuntimeError as exc:
            raised.append(str(exc))
    runner = threading.Thread(target=sweep, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert raised == [f"call {failing} failed"]
    assert threading.active_count() == before


@pytest.mark.parametrize("slowed", ["draws", "builds"])
def test_sweep_reports_do_not_depend_on_the_draw_timing(monkeypatch,
                                                        slowed):
    # slow draws keep the caller waiting for every chunk; slow builds let
    # the thread finish each chunk's draw long before the caller asks
    chunks_of(monkeypatch, 4)
    want = _paired_sweep()
    owner, name = ((Streams, "normals") if slowed == "draws"
                   else (metrics, "build"))
    real = getattr(owner, name)

    def slow(*args, **kwargs):
        time.sleep(0.002)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, slow)
    assert _paired_sweep() == want


def test_the_engine_peak_memory_is_bounded(monkeypatch):
    # fig-correlated at the default 64/20/10 holds the engine's largest
    # working set: two modes, 16 points, two chunks of trials.  Its peak
    # is 2.84 MiB in chunks of 11 trials, the row buffer of drawn normals
    # included; the correlated sampler writes its i.i.d. matrices into
    # the estimates' buffers (with temporaries of its own it was 3.02 MiB).
    # With the cyclic garbage collector off, whatever the sweep leaves in
    # a reference cycle stays allocated after it returns.  The
    # workspace's buffers, about 1 MiB, must not be among it; what is left
    # is about 2 KiB of the interpreter's free lists and caches.
    cfg = SystemConfig()
    scenario = default_scenario("fig-correlated")
    configs = [dataclasses.replace(cfg, rho_t_db=x - cfg.beta_ue_db)
               for x in scenario.sweep_values()]
    sampler = CorrelatedSampler(cfg)
    curves = [Curve(SicMode(token)) for token in scenario.modes]

    def traced():
        """Peak and what is left allocated, in MiB, of a two-chunk sweep."""
        trials = 2 * metrics._chunk_trials(cfg.M, cfg.N, cfg.K)
        gc.disable()
        tracemalloc.start()
        try:
            monte_carlo_sweep(configs, curves, trials=trials, master_seed=1,
                              perfect=False, sampler=sampler)
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        return peak / 2**20, left / 2**20

    # NumPy's first-call allocations are not the engine's
    monte_carlo_sweep(configs, curves, trials=1, master_seed=1,
                      perfect=False, sampler=sampler)
    peak, left = traced()
    assert peak < 3.0
    assert left < 0.1

    # the mutant twins: chunks of 12 trials (a larger chunk budget) peak
    # at 3.10 MiB, and a workspace kept in a reference cycle leaves
    # 0.93 MiB behind
    class CyclicWorkspace(Workspace):
        def __init__(self):
            super().__init__()
            self.cycle = self

    with monkeypatch.context() as mp:
        chunks_of(mp, 12)
        assert traced()[0] >= 3.0
    with monkeypatch.context() as mp:
        mp.setattr(metrics, "Workspace", CyclicWorkspace)
        assert traced()[1] >= 0.1


#: Minor page faults of the second of two 600-trial sweeps at the default
#: sizes (the given modes, one point, i.i.d. or correlated channels),
#: printed by a fresh interpreter; in the mutant, Workspace.array
#: allocates a fresh array on every request.
_WARMED_SWEEP_FAULTS = """
import resource
import numpy as np
from fdmimo.channel import CorrelatedSampler, SystemConfig
from fdmimo.metrics import Curve, monte_carlo_sweep
from fdmimo.numerics import Workspace
from fdmimo.transceiver import SicMode

if {mutant!r}:
    Workspace.array = lambda self, name, shape, dtype: np.empty(shape, dtype)
cfg = SystemConfig()
curves = [Curve(SicMode(token)) for token in {modes!r}]
sampler = CorrelatedSampler(cfg) if {correlated!r} else None


def sweep():
    monte_carlo_sweep([cfg], curves, trials=600, master_seed=1,
                      perfect=False, sampler=sampler)


sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sweep()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="counts the page faults of glibc's allocator")
@pytest.mark.parametrize("modes, correlated, mmap_threshold, bound", [
    # with the thresholds pinned, every freed buffer of 256 KiB or more
    # goes back to the system, so each one allocated again faults again:
    # 8 373-8 504 faults, the mutant 17 794-25 818 from run to run, in
    # modes that MALLOC_ARENA_MAX=1 does not settle (11 997 and 25 302
    # while the correlated sampler allocated temporaries of its own per
    # chunk).  Unpinned, the freed chunk buffers of the first
    # sweep raise glibc's thresholds so far that the mutant faults less
    # (587 against 570); pinned at 128 KiB the gap is too narrow (27 145
    # against 28 616)
    (("stt", "sps"), True, 256 << 10, 13_000),
    # 15 085 faults, the mutant 21 224; 24 847 with a fresh buffer of
    # drawn normals per chunk.  Unpinned, the count follows the heap's
    # history, down to the length of the child's PYTHONPATH: 266-405
    # faults, the mutant 445-581.  Pinned at 256 KiB the gap is too
    # narrow (5 528 against 6 262)
    (("sps",), False, 128 << 10, 18_000),
], ids=["correlated-stt-sps", "iid-sps-pinned-threshold"])
def test_a_warmed_sweep_does_not_fault_its_pages_in_again(
        modes, correlated, mmap_threshold, bound):
    # A chunk's pseudo-inverse temporaries are large enough that glibc
    # hands them back to the system when they are freed, and every chunk
    # faulted them in again: about 17 400 minor faults for 600 i.i.d.
    # suppression trials.  In one reused workspace they fault once.  The
    # sweep runs in a fresh interpreter, as under the CLI, with glibc's
    # mmap threshold pinned, because unpinned the allocator's thresholds
    # adapt to what the process freed before.
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_=str(mmap_threshold),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))

    def faults(mutant):
        script = _WARMED_SWEEP_FAULTS.format(modes=modes,
                                             correlated=correlated,
                                             mutant=mutant)
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        return int(proc.stdout)

    assert faults(False) < bound
    # the mutant twin breaks the bound, so the bound still tells a reused
    # workspace from none
    assert faults(True) >= bound
