import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fdmimo.channel import (CorrelatedSampler, SystemConfig, _channel_stack,
                            generate_iid)
from fdmimo.estimation import error_variances, estimate
from fdmimo.metrics import _trial_chunks
from fdmimo.numerics import RngStream

from conftest import drawn_rows


def _draw(seed=0, trials=1, cfg=SystemConfig(M=16, N=6, K=3)):
    """Stacks (h_dl, h_ul, h_si) of i.i.d. channels, trial i from
    substream i of seed."""
    truth = _channel_stack(cfg, trials)
    shapes = [h.shape[1:] for h in truth]
    generate_iid(drawn_rows(seed, range(trials), shapes), *truth)
    return truth


def _estimate(truth, variances, seed, indices):
    """Estimates of the channel stacks truth, trial i's errors from the
    substream of seed with index indices[i]."""
    hats = tuple(np.empty_like(h) for h in truth)
    drawn = [h.shape[1:] for h, v in zip(truth, variances) if v]
    estimate(variances, drawn_rows(seed, indices, drawn), truth, hats)
    return hats


# ------------------------------------------------------------- variances

def test_error_variance_matches_pilot_model():
    # the MMSE pilot model 1 / (K rho_ul + 1): 1/101 at K = 10, rho_ul = 10
    eps2_dl, _, _ = error_variances(SystemConfig(), perfect=False)
    assert eps2_dl == pytest.approx(0.009900990099009901, rel=1e-15)
    assert error_variances(SystemConfig(), perfect=True)[0] == 0.0


def test_error_variance_decreases_with_pilot_snr_and_users():
    # more pilot SNR or more users (pilot symbols) estimate better
    cfg = SystemConfig()
    base = error_variances(cfg, perfect=False)[0]
    for better in (dataclasses.replace(cfg, rho_ul_db=13.0),
                   SystemConfig(M=80, N=30, K=20)):
        assert error_variances(better, perfect=False)[0] < base


def test_model_from_config():
    cfg = SystemConfig()
    assert error_variances(cfg, perfect=True) == (0.0, 0.0, 0.0)
    eps2_dl, eps2_ul, eps2_si = error_variances(cfg, perfect=False)
    assert eps2_dl == pytest.approx(1.0 / 101.0, rel=1e-15)
    assert eps2_ul == eps2_dl
    assert eps2_si == 0.2


# -------------------------------------------------------------- estimate

def test_estimate_is_truth_plus_error_bitwise():
    # the error stream holds each error of nonzero variance in the order
    # dl, ul, si, its real parts then its imaginary parts, row-major; a
    # zero-variance error takes no draws and leaves the truth exact
    truth = _draw()
    for variances in ((0.1, 0.2, 0.3), (0.1, 0.0, 0.3), (0.0, 0.0, 0.3)):
        hats = _estimate(truth, variances, 1, [1])
        gen = RngStream(1, 1).generator()
        for h, hat, v in zip(truth, hats, variances):
            if v:
                re = gen.standard_normal(h.shape[1:])
                im = gen.standard_normal(h.shape[1:])
                assert np.array_equal(
                    hat[0], h[0] + np.sqrt(v / 2.0) * (re + 1j * im))
            else:
                assert np.array_equal(hat, h)


def test_perfect_estimation_is_exact():
    # perfect CSI takes no normals: its error rows are empty
    truth = _draw()
    hats = tuple(np.empty_like(h) for h in truth)
    estimate((0.0, 0.0, 0.0), np.empty((1, 0)), truth, hats)
    for h, hat in zip(truth, hats):
        assert np.array_equal(hat, h)


def test_estimate_deterministic_per_stream():
    truth = _draw()
    variances = (0.1, 0.1, 0.1)
    a = _estimate(truth, variances, 4, [9])
    b = _estimate(truth, variances, 4, [9])
    assert np.array_equal(a[2], b[2])
    c = _estimate(truth, variances, 4, [11])
    assert not np.array_equal(a[2], c[2])
    # a trial's errors depend on its own stream alone, not on the stack
    both = _estimate(tuple(np.concatenate([h, h]) for h in truth), variances,
                     4, [11, 9])
    for x, y, z in zip(both, c, a):
        assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], z[0])


def test_error_statistics_match_variances():
    # one channel draw, each trial's errors from its own stream
    trials = 300
    truth = tuple(np.repeat(h, trials, axis=0)
                  for h in _draw(2, cfg=SystemConfig()))
    hats = _estimate(truth, (0.05, 0.3, 0.2), 2, range(trials))
    for h, hat, v in zip(truth, hats, (0.05, 0.3, 0.2)):
        assert np.mean(np.abs(hat - h) ** 2) == pytest.approx(v, rel=0.05)


def test_correlated_si_error_variance_follows_the_path_gains():
    # the correlated model's SI error keeps the NMSE per element: its
    # variance is eps2_si = nmse times that element's free-space path gain
    cfg = SystemConfig(M=16, N=6, K=3, nmse=0.2)
    sampler = CorrelatedSampler(cfg)
    gains = sampler.si_amp ** 2
    acc = np.zeros_like(gains)
    trials = 2000
    for _, _, _, h_si, h_ext_hat, _, _, _ in _trial_chunks(
            cfg, False, 6, range(trials), (), sampler):
        acc += np.sum(np.abs(h_ext_hat[:, cfg.K:] - h_si) ** 2, axis=0)
    ratio = acc / trials / (0.2 * gains)
    assert abs(np.mean(ratio) - 1.0) < 0.05
    assert np.max(np.abs(ratio - 1.0)) < 0.15


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_errors_uncorrelated_with_channel(seed):
    truth = _draw(seed)
    hats = _estimate(truth, (1.0, 1.0, 1.0), seed, [1])
    # independence by stream separation; a single draw's correlation is
    # noisy, so only rule out gross coupling
    h_si = truth[2]
    e_si = hats[2] - h_si
    corr = abs(np.vdot(h_si, e_si)) / (
        np.linalg.norm(h_si) * np.linalg.norm(e_si))
    assert corr < 0.5
