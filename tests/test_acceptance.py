"""Release acceptance gate.

Runs the full criterion suite once at the published trial counts and then
asserts each criterion separately, so a failure pinpoints the broken
guarantee.  Each test prints the criterion's PASS/FAIL line regardless of
capture settings; expect roughly a minute for the module.  The tests at
the end check criterion internals on small configs.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fdmimo import acceptance, experiments, numerics
from fdmimo.acceptance import (_Z99, criterion_paired_residual_si,
                               criterion_zero_forcing_residuals, run_all)
from fdmimo.channel import (CorrelatedSampler, RicianParams, SystemConfig,
                            default_geometry, generate_iid)
from fdmimo.estimation import (EstimatedChannels, _add_errors, estimate,
                               model_from_config)
from fdmimo.metrics import residual_si
from fdmimo.numerics import RngStream
from fdmimo.transceiver import SicMode, build, build_stack

BASE_TRIALS = 10_000
SEED = 1


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(base_trials=BASE_TRIALS, seed=SEED)}


def _require(results, number, capsys):
    r = results[number]
    with capsys.disabled():
        print(r.line())
    assert r.passed, r.line()


def test_criterion_1_perfect_csi_within_3pct(results, capsys):
    _require(results, 1, capsys)


def test_criterion_2_imperfect_ul_within_band(results, capsys):
    _require(results, 2, capsys)


def test_criterion_3_expected_inverse_norms(results, capsys):
    _require(results, 3, capsys)


def test_criterion_4_zero_forcing_residuals(results, capsys):
    _require(results, 4, capsys)


def test_criterion_5_paired_residual_si(results, capsys):
    _require(results, 5, capsys)


def test_criterion_6_rate_orderings(results, capsys):
    _require(results, 6, capsys)


def test_criterion_7_half_duplex_identity(results, capsys):
    _require(results, 7, capsys)


def test_criterion_8_correlated_orderings(results, capsys):
    _require(results, 8, capsys)


def test_criterion_9_csv_determinism(results, capsys):
    _require(results, 9, capsys)


# ------------------------------------------------- criterion internals

SMALL = SystemConfig(M=12, N=4, K=2)


def test_criterion_4_matches_a_per_trial_build_loop(monkeypatch):
    # chunks of 3: both the 50 i.i.d. and the 20 correlated trials end in
    # a partial chunk; the loop is the reference
    monkeypatch.setattr("fdmimo.metrics._chunk_trials", lambda m, n, k: 3)
    built = []

    def recording_build_stack(modes, h_ext_hat, h_ul_hat):
        built.extend(zip(h_ext_hat.copy(), h_ul_hat.copy()))
        return build_stack(modes, h_ext_hat, h_ul_hat)

    monkeypatch.setattr(acceptance, "build_stack", recording_build_stack)
    base_trials, seed = 100, 3001
    model = model_from_config(SMALL, perfect=False)
    sampler = CorrelatedSampler(
        SMALL, default_geometry(SMALL, experiments.CORRELATED_CARRIER_HZ),
        RicianParams(1.0, 1.0))
    iid_trials, corr_trials = 50, 20
    worst_null = 0.0
    worst_comb = 0.0
    ests = []
    for i in range(iid_trials + corr_trials):
        error_stream = RngStream(seed, 2 * i + 1)
        if i >= iid_trials:
            # the correlated engine scales the SI error by the path gains
            ch = sampler.sample(RngStream(seed, 2 * i))
            truth = tuple(h[None] for h in (ch.h_dl, ch.h_ul, ch.h_si))
            hats = tuple(np.empty_like(h) for h in truth)
            _add_errors(model, [error_stream], truth, hats, sampler._si_amp)
            est = EstimatedChannels(*(hat[0] for hat in hats))
        else:
            ch = generate_iid(SMALL, RngStream(seed, 2 * i))
            est = estimate(ch, model, error_stream)
        ests.append(est)
        ts = build(SicMode.SPATIAL_SUPPRESSION, est)
        null = np.linalg.norm(est.h_si_hat @ ts.g)
        null_rel = null / (np.linalg.norm(est.h_si_hat)
                           * np.linalg.norm(ts.g))
        comb = np.linalg.norm(ts.w @ est.h_ul_hat - np.eye(SMALL.K))
        worst_null = max(worst_null, null_rel)
        worst_comb = max(worst_comb, comb)
    got = criterion_zero_forcing_residuals(SMALL, base_trials, seed)
    assert got.detail == (
        f"max null-space residual {worst_null:.2e}, max combiner residual "
        f"{worst_comb:.2e} over {iid_trials} i.i.d. + {corr_trials} "
        f"correlated trials, tolerance 1e-9")
    assert got.passed
    # every trial was built from its own draw, in trial order
    assert len(built) == len(ests)
    for (h_ext_hat, h_ul_hat), est in zip(built, ests):
        assert np.array_equal(h_ext_hat,
                              np.vstack([est.h_dl_hat, est.h_si_hat]))
        assert np.array_equal(h_ul_hat, est.h_ul_hat)


def test_criterion_4_fails_on_a_failed_transceiver(monkeypatch):
    monkeypatch.setattr(numerics, "GRAM_CONDITION_LIMIT", 1.0)
    got = criterion_zero_forcing_residuals(SMALL, 100, 1)
    assert not got.passed
    assert got.detail == "sps transceiver failed at trial 0"


def test_criterion_5_matches_a_per_trial_build_loop(monkeypatch):
    # chunks of 3 with a partial last one; the loop is the reference
    monkeypatch.setattr("fdmimo.metrics._chunk_trials", lambda m, n, k: 3)
    trials, seed = 23, 1
    model = model_from_config(SMALL, perfect=False)
    diffs = np.empty(trials)
    for t in range(trials):
        ch = generate_iid(SMALL, RngStream(seed, 2 * t))
        est = estimate(ch, model, RngStream(seed, 2 * t + 1))
        om = {}
        for mode in (SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION):
            ts = build(mode, est)
            om[mode] = residual_si(mode, ts.w, ch.h_si, est.h_si_hat, ts.g)
        diffs[t] = float(np.mean(om[SicMode.SPATIAL_SUPPRESSION])
                         - np.mean(om[SicMode.SUBTRACTION]))
    mean = float(np.mean(diffs))
    t_stat = mean / (float(np.std(diffs, ddof=1)) / math.sqrt(trials))
    got = criterion_paired_residual_si(SMALL, trials, seed)
    assert got.detail == (f"mean difference {mean:.3e}, t = {t_stat:.1f}, "
                          f"threshold {-_Z99:.3f}")
    assert got.passed == (t_stat <= -_Z99)


def test_criterion_5_fails_on_a_failed_transceiver(monkeypatch):
    monkeypatch.setattr(numerics, "GRAM_CONDITION_LIMIT", 1.0)
    got = criterion_paired_residual_si(SMALL, 4, 1)
    assert not got.passed
    assert got.detail == "stt transceiver failed at trial 0"


def test_criterion_5_needs_two_base_trials():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = criterion_paired_residual_si(SMALL, 1, 1)
    assert not got.passed
    assert got.detail == "needs at least 2 base trials"


def _mean_inv_gram_diag_reference(gen, rows, cols, draws, keep, right):
    # complex matrices, a complex Gram and its full inverse, per batch of
    # 2000 draws: real parts, then imaginary parts
    total = 0.0
    count = 0
    chunk = max(1, min(2000, draws))
    left = draws
    while left > 0:
        b = min(chunk, left)
        left -= b
        re = gen.standard_normal((b, rows, cols))
        im = gen.standard_normal((b, rows, cols))
        a = (re + 1j * im) / np.sqrt(2.0)
        if right:
            gram = a @ a.conj().transpose(0, 2, 1)
        else:
            gram = a.conj().transpose(0, 2, 1) @ a
        inv = np.linalg.inv(gram)
        diag = np.real(np.diagonal(inv, axis1=1, axis2=2))[:, :keep]
        total += float(np.sum(1.0 / diag))
        count += b * keep
    return total / count


@pytest.mark.parametrize("draws", [1, 7, 2000, 2003, 4500])
@pytest.mark.parametrize("right", [True, False])
@pytest.mark.parametrize("keep", [2, 5])
def test_criterion_3_kernel_matches_the_complex_inverse(monkeypatch, draws,
                                                        right, keep):
    rows, cols = (5, 9) if right else (9, 5)
    # slices of 300 draws: a batch of 2000 ends in a partial slice
    monkeypatch.setattr(acceptance, "_SLICE_BYTES", 300 * 8 * rows * cols)
    want_gen = RngStream(7, 3).generator()
    got_gen = RngStream(7, 3).generator()
    want = _mean_inv_gram_diag_reference(want_gen, rows, cols, draws, keep,
                                         right)
    got = acceptance._mean_inv_gram_diag(got_gen, rows, cols, draws, keep,
                                         right)
    assert got == pytest.approx(want, rel=1e-12)
    # both drew the same normals
    assert got_gen.standard_normal() == want_gen.standard_normal()


def test_criterion_3_kernel_peak_memory():
    # one batch of the SPS target at the default sizes; complex copies and
    # full inverses of a whole 2000-draw batch would peak near 200 MiB
    gen = RngStream(1, 1).generator()
    tracemalloc.start()
    try:
        acceptance._mean_inv_gram_diag(gen, 30, 64, 2000, 10, right=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
