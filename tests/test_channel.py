import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdmimo.channel import (STRONGEST_SI_GAIN_DB, ConfigError,
                            CorrelatedSampler, SystemConfig, _channel_stack,
                            db_to_linear, generate_iid)

from conftest import drawn_rows


def small_config(**kw):
    defaults = dict(M=16, N=6, K=3)
    defaults.update(kw)
    return SystemConfig(**defaults)


def _draw(fill, cfg, seed, indices):
    """Stacks (h_dl, h_ul, h_si) that fill (generate_iid or a sampler's
    sample) makes from the normals drawn from the substreams of seed with
    the given indices."""
    h = _channel_stack(cfg, len(indices))
    fill(drawn_rows(seed, indices, [x.shape[1:] for x in h]), *h)
    return h


# ------------------------------------------------------------- dB helpers

@pytest.mark.parametrize("db,linear", [(0.0, 1.0), (10.0, 10.0),
                                       (-30.0, 1e-3), (-math.inf, 0.0)])
def test_db_to_linear(db, linear):
    assert db_to_linear(db) == pytest.approx(linear, rel=1e-12)


# ------------------------------------------------------------ SystemConfig

def test_default_config_matches_published_setup():
    cfg = SystemConfig()
    assert (cfg.M, cfg.N, cfg.K) == (64, 20, 10)
    assert cfg.rho_ul_db == 10.0
    assert cfg.beta_si_db == -40.0
    assert cfg.beta_ue_db == -80.0
    assert cfg.alpha_anc_db == 40.0
    assert cfg.nmse == 0.2


def test_received_si_snr_is_transmit_snr_times_si_gain():
    # rho_t = 50 dB and beta_si = -40 dB put the received SI SNR at 10 dB
    cfg = SystemConfig()
    assert cfg.rho_si == pytest.approx(10.0, rel=1e-12)
    assert cfg.rho_dl == pytest.approx(1e-3, rel=1e-12)
    assert cfg.alpha_anc == pytest.approx(1e4, rel=1e-12)


@pytest.mark.parametrize("kw,fragment", [
    (dict(M=29), r"M must be at least N \+ K"),
    (dict(N=10, K=10), "N must exceed K"),
    (dict(N=9, K=10), "N must exceed K"),
    (dict(K=0), "K must be at least 1"),
    (dict(nmse=-0.1), "nmse"),
    (dict(nmse=math.inf), "nmse"),
])
def test_config_invariants_named_in_error(kw, fragment):
    with pytest.raises(ConfigError, match=fragment):
        SystemConfig(**kw)


def test_config_db_fields_reject_nan_and_plus_inf():
    for field in ("rho_t_db", "beta_ue_db", "beta_si_db", "rho_ul_db",
                  "alpha_anc_db"):
        with pytest.raises(ConfigError):
            SystemConfig(**{field: math.nan})
        with pytest.raises(ConfigError):
            SystemConfig(**{field: math.inf})


def test_config_db_fields_that_overflow_are_named():
    # 10 ** (db / 10) leaves the float range just above 3082 dB
    for field in ("rho_t_db", "beta_ue_db", "beta_si_db", "rho_ul_db",
                  "alpha_anc_db"):
        with pytest.raises(ConfigError,
                           match=f"^{field} = 4000.0 dB overflows"):
            SystemConfig(**{field: 4000.0})
    # 3000 dB does not overflow; beta_ue_db and beta_si_db offset
    # rho_t_db, so that no received SNR is above the ceiling
    for cfg in (SystemConfig(rho_t_db=3000.0, beta_ue_db=-3000.0,
                             beta_si_db=-3000.0, alpha_anc_db=3000.0),
                SystemConfig(rho_t_db=-3000.0, beta_ue_db=3000.0,
                             beta_si_db=3000.0)):
        for field in ("rho_t_db", "beta_ue_db", "beta_si_db"):
            assert abs(getattr(cfg, field)) == 3000.0
    assert SystemConfig(beta_ue_db=-4000.0).rho_dl == 0.0


def test_an_attenuation_that_underflows_to_zero_is_named():
    # the closed forms divide by alpha_anc, which may not be zero
    with pytest.raises(ConfigError, match="^alpha_anc_db = -3237.0 dB "
                       "underflows a float to a zero linear power ratio$"):
        SystemConfig(alpha_anc_db=-3237.0)
    assert SystemConfig(alpha_anc_db=-3000.0, rho_t_db=-3000.0).alpha_anc > 0


@pytest.mark.parametrize("kw, msg", [
    (dict(rho_ul_db=250.5), "rho_ul_db = 250.5"),
    (dict(rho_t_db=200.0, beta_ue_db=60.0), "rho_t_db + beta_ue_db = 260.0"),
    (dict(rho_t_db=300.0), "rho_t_db + beta_si_db = 260.0"),
    (dict(rho_t_db=-40.0, beta_si_db=3000.0),
     "rho_t_db + beta_si_db = 2960.0"),
    # nmse scales the SI that subtraction leaves
    (dict(nmse=1e300),
     "rho_t_db + beta_si_db - alpha_anc_db + 10 log10(nmse) = 2970.0"),
])
def test_received_snrs_above_the_ceiling_are_named(kw, msg):
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)} dB is above "
                       f"the 250 dB ceiling for a received SNR$"):
        SystemConfig(**kw)


@pytest.mark.parametrize("field", ["rho_t_db", "beta_ue_db", "beta_si_db",
                                   "rho_ul_db", "alpha_anc_db"])
def test_config_db_fields_that_are_subnormal_are_named(field):
    # below about -3076.5 dB the linear ratio is a subnormal float, with
    # fewer significant bits the further down it goes
    with pytest.raises(ConfigError, match=(
            f"^{field} = -3100.0 dB is a subnormal float as a linear power "
            f"ratio, which has lost precision$")):
        SystemConfig(**{field: -3100.0})
    # the smallest normal ratio is valid
    assert getattr(SystemConfig(**{field: -3076.0, "rho_t_db": -3076.0}),
                   field) == -3076.0


def test_received_snrs_at_the_ceiling_are_valid():
    cfg = SystemConfig(rho_ul_db=250.0, rho_t_db=290.0, beta_ue_db=-40.0,
                       beta_si_db=-40.0)
    assert cfg.rho_ul == 1e25
    assert cfg.rho_dl == cfg.rho_si == pytest.approx(1e25, rel=1e-15)
    assert SystemConfig(rho_t_db=-math.inf, beta_ue_db=3000.0).rho_dl == 0.0
    # -30 + 280 dB
    assert SystemConfig(rho_t_db=80.0, nmse=1e25).nmse == 1e25
    # nmse = 0 adds no term: subtraction then leaves no SI
    assert SystemConfig(rho_t_db=290.0, alpha_anc_db=0.0, nmse=0.0).nmse == 0.0


#: A config whose transmit SNR keeps every received SNR below the ceiling
#: however large nmse is.
_FAINT_SI = dict(M=9, N=5, K=3, rho_t_db=-2900.0, beta_ue_db=2900.0,
                 beta_si_db=0.0, alpha_anc_db=0.0)


def test_an_nmse_above_the_ceiling_is_named():
    # the SI estimate's entries scale with sqrt(nmse) alone, and at 1e308
    # the suppression Gram matrix overflowed
    with pytest.raises(ConfigError, match=r"^nmse = 1e\+308 is above "
                       r"1e\+25, the 250 dB ceiling as a power ratio$"):
        SystemConfig(**_FAINT_SI, nmse=1e308)
    assert SystemConfig(**_FAINT_SI, nmse=1e25).nmse == 1e25


def test_config_allows_minus_inf_power_but_not_attenuation():
    cfg = SystemConfig(rho_t_db=-math.inf)
    assert cfg.rho_t == 0.0
    assert cfg.rho_si == 0.0
    with pytest.raises(ConfigError):
        SystemConfig(alpha_anc_db=-math.inf)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SystemConfig().M = 3


# ------------------------------------------------------------ generate_iid

def test_generate_iid_shapes_and_determinism():
    cfg = small_config()
    a = _draw(generate_iid, cfg, 42, [0])
    b = _draw(generate_iid, cfg, 42, [0])
    assert [h.shape for h in a] == [(1, 3, 16), (1, 6, 3), (1, 6, 16)]
    for x, y in zip(a, b):
        assert np.array_equal(x, y)
    c = _draw(generate_iid, cfg, 42, [1])
    assert not np.array_equal(a[0], c[0])
    # a trial's draw depends on its own stream alone, not on the stack
    both = _draw(generate_iid, cfg, 42, [1, 0])
    for x, y, z in zip(both, c, a):
        assert np.array_equal(x[0], y[0]) and np.array_equal(x[1], z[0])


def test_generate_iid_unit_variance():
    cfg = SystemConfig()
    h_si = _draw(generate_iid, cfg, 5, range(40))[2]
    assert abs(np.mean(np.abs(h_si) ** 2) - 1.0) < 0.02


# -------------------------------------------------------- Jakes correlation

def test_jakes_diagonal_symmetry_and_values():
    # elements at lambda/6 spacing: r_ij = J0(pi/3 |i - j|) on both arrays
    cfg = small_config()
    sampler = CorrelatedSampler(cfg)
    for root, size in ((sampler.r_tx_sqrt, cfg.M), (sampler.r_rx_sqrt, cfg.N)):
        assert np.max(np.abs(root - root.T)) < 1e-14
        r = root @ root
        steps = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
        want = scipy.special.j0(math.pi / 3.0 * steps)
        assert np.max(np.abs(r - want)) < 1e-10
        assert np.max(np.abs(np.diag(r) - 1.0)) < 1e-10
        assert r[0, 1] == pytest.approx(scipy.special.j0(math.pi / 3),
                                        abs=1e-10)
        assert r[0, 2] == pytest.approx(scipy.special.j0(2 * math.pi / 3),
                                        abs=1e-10)


def test_jakes_correlation_is_psd_for_linear_array():
    sampler = CorrelatedSampler(small_config(M=30))
    assert np.linalg.eigvalsh(sampler.r_tx_sqrt).min() > -1e-10
    r = sampler.r_tx_sqrt @ sampler.r_tx_sqrt
    assert np.linalg.eigvalsh(r).min() > -1e-10


# ------------------------------------------------------------- geometry

def test_default_geometry_layout():
    # colinear arrays, lambda/6 spacing and a lambda/6 gap: transmit
    # element j and receive element i are M + i - j spacings apart, and
    # the amplitude lambda / (4 pi d) at d = lambda/6 is 3 / (2 pi)
    cfg = SystemConfig()
    amp = CorrelatedSampler(cfg).si_amp
    spacings = cfg.M + np.subtract.outer(np.arange(cfg.N), np.arange(cfg.M))
    np.testing.assert_allclose(amp * spacings, 3.0 / (2.0 * math.pi),
                               rtol=1e-12)


# --------------------------------------------------------- path-loss gains

def test_free_space_inverse_square():
    cfg = small_config()
    gains = CorrelatedSampler(cfg).si_amp[0] ** 2
    # the first receive element is 1, 2 and 4 spacings from these
    g = gains[[cfg.M - 1, cfg.M - 2, cfg.M - 4]]
    assert g[1] == pytest.approx(g[0] / 4.0, rel=1e-12)
    assert g[2] == pytest.approx(g[0] / 16.0, rel=1e-12)


def test_si_pathloss_gains_shape_and_range():
    cfg = small_config()
    gains = CorrelatedSampler(cfg).si_amp ** 2
    assert gains.shape == (cfg.N, cfg.M)
    assert np.all(gains > 0.0) and np.all(gains <= 1.0)
    # the closest pair is the last transmit and first receive element
    assert gains.max() == gains[0, -1]
    assert gains.min() == gains[-1, 0]


@pytest.mark.parametrize("m, n", [(7, 4), (16, 6), (64, 20), (256, 60)])
def test_the_strongest_si_amplitude_is_three_over_two_pi(m, n):
    # lambda/6 is more than lambda / (4 pi), where the free-space gain
    # would reach 1, so the gains need no clamp: the strongest is
    # (3 / (2 pi))^2, -6.4 dB
    amp = CorrelatedSampler(SystemConfig(M=m, N=n, K=3)).si_amp
    assert np.unravel_index(np.argmax(amp), amp.shape) == (0, m - 1)
    assert amp[0, -1] == pytest.approx(3.0 / (2.0 * math.pi), rel=1e-12)
    assert 10.0 * math.log10(amp[0, -1] ** 2) == pytest.approx(-6.4, abs=0.05)
    assert 10.0 * math.log10(np.max(amp) ** 2) == pytest.approx(
        STRONGEST_SI_GAIN_DB, rel=1e-12)


# --------------------------------------------------- correlated generation

def test_generate_correlated_shapes_and_determinism():
    cfg = small_config()
    a = _draw(CorrelatedSampler(cfg).sample, cfg, 7, [3])
    b = _draw(CorrelatedSampler(cfg).sample, cfg, 7, [3])
    assert [h.shape for h in a] == [(1, 3, 16), (1, 6, 3), (1, 6, 16)]
    assert np.array_equal(a[2], b[2])


def _uncorrelated(sampler, si_amp=None):
    """The sampler with identity correlation roots and, if given, the SI
    amplitude si_amp, set after construction."""
    cfg = sampler.config
    sampler.r_tx_sqrt, sampler.r_rx_sqrt = np.eye(cfg.M), np.eye(cfg.N)
    if si_amp is not None:
        sampler.si_amp = si_amp
    return sampler


def _rician(sampler, kappa, sigma_si):
    """The sampler with the LOS matrix and NLOS amplitude of Rician
    factor kappa and LOS amplitude sigma_si, set after construction."""
    cfg = sampler.config
    sampler._los = (np.sqrt(kappa / (kappa + 1.0)) * sigma_si
                    * np.ones((cfg.N, cfg.M)))
    sampler._nlos_amp = np.sqrt(1.0 / (kappa + 1.0))
    return sampler


def test_identity_overrides_reduce_to_iid_draw():
    """With identity correlation, unit gains and kappa = 0 the correlated
    sampler must reproduce the i.i.d. generator bit for bit (same stream)."""
    cfg = small_config()
    sampler = _uncorrelated(_rician(CorrelatedSampler(cfg), 0.0, 1.0),
                            np.ones((cfg.N, cfg.M)))
    a = _draw(sampler.sample, cfg, 99, [2, 5])
    b = _draw(generate_iid, cfg, 99, [2, 5])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_pure_los_limit():
    cfg = small_config()
    sampler = _uncorrelated(_rician(CorrelatedSampler(cfg), 1e12, 2.0),
                            np.ones((cfg.N, cfg.M)))
    h_si = _draw(sampler.sample, cfg, 0, [0])[2]
    assert np.max(np.abs(h_si - 2.0)) < 1e-4


def test_si_channel_power_tracks_path_gains():
    # with sigma_si = 1 the LOS/NLOS split leaves per-element power equal
    # to the free-space gain, whatever kappa is
    cfg = small_config()
    sampler = _uncorrelated(_rician(CorrelatedSampler(cfg), 3.0, 1.0))
    h_si = _draw(sampler.sample, cfg, 3, range(4000))[2]
    ratio = np.mean(np.abs(h_si) ** 2, axis=0) / sampler.si_amp ** 2
    assert abs(np.mean(ratio) - 1.0) < 0.05


def test_uplink_rows_follow_receive_correlation():
    cfg = small_config()
    sampler = CorrelatedSampler(cfg)
    r_rx = sampler.r_rx_sqrt @ sampler.r_rx_sqrt
    trials = 3000
    h = _draw(sampler.sample, cfg, 17, range(trials))[1]
    emp = np.sum(h @ h.conj().transpose(0, 2, 1), axis=0) / (trials * cfg.K)
    rel = np.linalg.norm(emp - r_rx) / np.linalg.norm(r_rx)
    assert rel < 0.1


def test_correlated_marginals_stay_standard_normal():
    # unit-diagonal correlation preserves each element's CN(0,1) marginal
    cfg = small_config()
    sampler = CorrelatedSampler(cfg)
    vals = _draw(sampler.sample, cfg, 23, range(3000))[0][:, 1, 4]
    stat = scipy.stats.kstest(vals.real * math.sqrt(2.0), "norm")
    assert stat.pvalue > 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_iid_streams_never_collide_with_error_streams(seed):
    # channel draws use even indices, estimation errors odd ones; adjacent
    # streams must be distinct
    h_dl = _draw(generate_iid, small_config(), seed, [0, 1])[0]
    assert not np.array_equal(h_dl[0], h_dl[1])
