"""Release acceptance gate.

Runs the full criterion suite once at the published trial counts and then
asserts each criterion separately, so a failure pinpoints the broken
guarantee.  Each test prints the criterion's PASS/FAIL line regardless of
capture settings; expect roughly a minute for the module.  The tests at
the end check criterion internals on small configs.
"""

import math

import numpy as np
import pytest

from fdmimo import numerics
from fdmimo.acceptance import (_Z99, criterion_paired_residual_si,
                               run_all)
from fdmimo.channel import SystemConfig, generate_iid
from fdmimo.estimation import estimate, model_from_config
from fdmimo.metrics import residual_si
from fdmimo.numerics import RngStream
from fdmimo.transceiver import SicMode, build

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
