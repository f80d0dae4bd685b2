import dataclasses
import math
import re

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st

from fdmimo.channel import (ArrayGeometry, ConfigError, CorrelatedSampler,
                            RicianParams, SPEED_OF_LIGHT, SystemConfig,
                            _channel_stack, db_to_linear, default_geometry,
                            free_space_gains, generate_iid,
                            jakes_correlation, si_pathloss_gains)
from fdmimo.numerics import RngStream

CARRIER_HZ = 2.1e9
WAVELENGTH = 0.14275831333333333  # c / 2.1 GHz


def small_config(**kw):
    defaults = dict(M=16, N=6, K=3)
    defaults.update(kw)
    return SystemConfig(**defaults)


def _draw(fill, cfg, seed, indices):
    """Stacks (h_dl, h_ul, h_si) that fill (generate_iid or a sampler's
    sample) draws from the substreams of seed with the given indices."""
    h = _channel_stack(cfg, len(indices))
    fill([RngStream(seed, i) for i in indices], *h)
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
])
def test_received_snrs_above_the_ceiling_are_named(kw, msg):
    with pytest.raises(ConfigError, match=f"^{re.escape(msg)} dB is above "
                       f"the 250 dB ceiling for a received SNR$"):
        SystemConfig(**kw)


def test_received_snrs_at_the_ceiling_are_valid():
    cfg = SystemConfig(rho_ul_db=250.0, rho_t_db=290.0, beta_ue_db=-40.0,
                       beta_si_db=-40.0)
    assert cfg.rho_ul == 1e25
    assert cfg.rho_dl == cfg.rho_si == pytest.approx(1e25, rel=1e-15)
    assert SystemConfig(rho_t_db=-math.inf, beta_ue_db=3000.0).rho_dl == 0.0


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
    pos = np.zeros((4, 3))
    pos[:, 0] = WAVELENGTH / 6.0 * np.arange(4)
    r = jakes_correlation(pos, WAVELENGTH)
    assert np.array_equal(np.diag(r), np.ones(4))
    assert np.array_equal(r, r.T)
    # adjacent elements at lambda/6: J0(pi/3)
    assert r[0, 1] == pytest.approx(scipy.special.j0(math.pi / 3), abs=1e-10)
    assert r[0, 2] == pytest.approx(scipy.special.j0(2 * math.pi / 3), abs=1e-10)


def test_jakes_warns_on_duplicate_positions():
    pos = np.zeros((2, 3))
    with pytest.warns(RuntimeWarning):
        r = jakes_correlation(pos, 1.0)
    assert np.array_equal(r, np.ones((2, 2)))


def test_jakes_input_validation():
    with pytest.raises(ConfigError):
        jakes_correlation(np.zeros((3, 2)), 1.0)
    with pytest.raises(ConfigError):
        jakes_correlation(np.zeros((3, 3)), 0.0)


def test_jakes_correlation_is_psd_for_linear_array():
    pos = np.zeros((30, 3))
    pos[:, 0] = WAVELENGTH / 6.0 * np.arange(30)
    r = jakes_correlation(pos, WAVELENGTH)
    assert np.linalg.eigvalsh(r).min() > -1e-10


# ------------------------------------------------------------- geometry

def test_default_geometry_layout():
    cfg = SystemConfig()
    geo = default_geometry(cfg, CARRIER_HZ)
    assert geo.wavelength == pytest.approx(WAVELENGTH, rel=1e-12)
    assert geo.tx_positions.shape == (64, 3)
    assert geo.rx_positions.shape == (20, 3)
    spacing = geo.tx_positions[1, 0] - geo.tx_positions[0, 0]
    assert spacing == pytest.approx(0.023793052222222222, rel=1e-12)
    # colinear on x, arrays gapped by one spacing
    assert np.all(geo.tx_positions[:, 1:] == 0.0)
    assert np.all(geo.rx_positions[:, 1:] == 0.0)
    gap = geo.rx_positions[0, 0] - geo.tx_positions[-1, 0]
    assert gap == pytest.approx(spacing, rel=1e-12)
    assert geo.cross_distances().min() >= geo.wavelength / 6.0 * (1 - 1e-12)


def test_default_geometry_rejects_bad_carrier():
    with pytest.raises(ConfigError):
        default_geometry(SystemConfig(), 0.0)


def test_geometry_rejects_duplicates_and_close_pairs():
    tx = np.zeros((2, 3))
    tx[1, 0] = 1.0
    rx = np.zeros((1, 3))
    rx[0, 0] = 2.0
    ArrayGeometry(tx, rx, wavelength=1.0)  # spacing 1.0 >= 1/6, fine
    with pytest.raises(ConfigError, match="duplicate"):
        ArrayGeometry(np.zeros((2, 3)), rx, wavelength=1.0)
    near = np.zeros((1, 3))
    near[0, 0] = 1.0 + 0.1  # 0.1 < 1/6
    with pytest.raises(ConfigError, match="separation"):
        ArrayGeometry(tx, near, wavelength=1.0)
    with pytest.raises(ConfigError, match="coincide"):
        ArrayGeometry(tx, tx[:1].copy(), wavelength=1.0)


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ConfigError):
        ArrayGeometry(np.zeros((2, 2)), np.zeros((1, 3)), wavelength=1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_positions_are_rejected(bad):
    # NaN compares False with every distance floor, so without the check
    # these pass the geometry and give a NaN correlation matrix
    tx = np.zeros((3, 3))
    tx[:, 0] = [0.0, 1.0, 2.0]
    rx = np.array([[10.0, 0.0, 0.0], [11.0, 0.0, 0.0]])
    for pos in (tx, rx):
        saved = pos[1, 1]
        pos[1, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            ArrayGeometry(tx, rx, wavelength=1.0)
        with pytest.raises(ConfigError, match="finite"):
            jakes_correlation(pos, 1.0)
        pos[1, 1] = saved
    ArrayGeometry(tx, rx, wavelength=1.0)


# --------------------------------------------------------- path-loss gains

def test_free_space_unit_gain_at_reference_distance():
    # gain hits 1 exactly at d = wavelength / (4 pi)
    d = WAVELENGTH / (4.0 * math.pi)
    assert free_space_gains(np.array([d]), WAVELENGTH)[0] == pytest.approx(1.0, rel=1e-12)
    # and saturates (not exceeds) closer in
    assert free_space_gains(np.array([d / 3]), WAVELENGTH)[0] == 1.0


def test_free_space_inverse_square():
    d = np.array([1.0, 2.0, 4.0])
    g = free_space_gains(d, WAVELENGTH)
    assert g[1] == pytest.approx(g[0] / 4.0, rel=1e-12)
    assert g[2] == pytest.approx(g[0] / 16.0, rel=1e-12)


def test_free_space_rejects_nonpositive_distance():
    with pytest.raises(ConfigError):
        free_space_gains(np.array([1.0, 0.0]), WAVELENGTH)


def test_si_pathloss_gains_shape_and_range():
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    gains = si_pathloss_gains(geo)
    assert gains.shape == (cfg.N, cfg.M)
    assert np.all(gains > 0.0) and np.all(gains <= 1.0)
    # the closest pair is the last transmit and first receive element
    assert gains.max() == gains[0, -1]
    assert gains.min() == gains[-1, 0]


# --------------------------------------------------- correlated generation

def test_generate_correlated_shapes_and_determinism():
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    ric = RicianParams(kappa=1.0, sigma_si=1.0)
    a = _draw(CorrelatedSampler(cfg, geo, ric).sample, cfg, 7, [3])
    b = _draw(CorrelatedSampler(cfg, geo, ric).sample, cfg, 7, [3])
    assert [h.shape for h in a] == [(1, 3, 16), (1, 6, 3), (1, 6, 16)]
    assert np.array_equal(a[2], b[2])


def _uncorrelated(sampler, si_amp=None):
    """The sampler with identity correlation roots and, if given, the SI
    amplitude si_amp, set after construction."""
    cfg = sampler.config
    sampler.r_tx_sqrt, sampler.r_rx_sqrt = np.eye(cfg.M), np.eye(cfg.N)
    if si_amp is not None:
        sampler._si_amp = si_amp
    return sampler


def test_identity_overrides_reduce_to_iid_draw():
    """With identity correlation, unit gains and kappa = 0 the correlated
    sampler must reproduce the i.i.d. generator bit for bit (same stream)."""
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    sampler = _uncorrelated(
        CorrelatedSampler(cfg, geo, RicianParams(kappa=0.0, sigma_si=1.0)),
        np.ones((cfg.N, cfg.M)))
    a = _draw(sampler.sample, cfg, 99, [2, 5])
    b = _draw(generate_iid, cfg, 99, [2, 5])
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_pure_los_limit():
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    sampler = _uncorrelated(
        CorrelatedSampler(cfg, geo, RicianParams(kappa=1e12, sigma_si=2.0)),
        np.ones((cfg.N, cfg.M)))
    h_si = _draw(sampler.sample, cfg, 0, [0])[2]
    assert np.max(np.abs(h_si - 2.0)) < 1e-4


def test_si_channel_power_tracks_path_gains():
    # with sigma_si = 1 the LOS/NLOS split leaves per-element power equal
    # to the free-space gain, whatever kappa is
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    sampler = _uncorrelated(
        CorrelatedSampler(cfg, geo, RicianParams(kappa=3.0, sigma_si=1.0)))
    h_si = _draw(sampler.sample, cfg, 3, range(4000))[2]
    ratio = np.mean(np.abs(h_si) ** 2, axis=0) / si_pathloss_gains(geo)
    assert abs(np.mean(ratio) - 1.0) < 0.05


def test_uplink_rows_follow_receive_correlation():
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    sampler = CorrelatedSampler(cfg, geo, RicianParams())
    r_rx = sampler.r_rx_sqrt @ sampler.r_rx_sqrt
    trials = 3000
    h = _draw(sampler.sample, cfg, 17, range(trials))[1]
    emp = np.sum(h @ h.conj().transpose(0, 2, 1), axis=0) / (trials * cfg.K)
    rel = np.linalg.norm(emp - r_rx) / np.linalg.norm(r_rx)
    assert rel < 0.1


def test_correlated_marginals_stay_standard_normal():
    # unit-diagonal correlation preserves each element's CN(0,1) marginal
    cfg = small_config()
    geo = default_geometry(cfg, CARRIER_HZ)
    sampler = CorrelatedSampler(cfg, geo, RicianParams())
    vals = _draw(sampler.sample, cfg, 23, range(3000))[0][:, 1, 4]
    stat = scipy.stats.kstest(vals.real * math.sqrt(2.0), "norm")
    assert stat.pvalue > 1e-4


def test_sampler_rejects_a_geometry_of_other_size(monkeypatch):
    def no_j0(x):
        raise AssertionError("J0 evaluated before the sizes were checked")

    monkeypatch.setattr("fdmimo.channel.bessel_j0", no_j0)
    cfg = small_config()
    for other in (small_config(M=17), small_config(N=7)):
        geo = default_geometry(other, CARRIER_HZ)
        with pytest.raises(ConfigError, match=(
                f"{other.M} transmit and {other.N} receive elements; the "
                f"config has M={cfg.M}, N={cfg.N}")):
            CorrelatedSampler(cfg, geo, RicianParams())


def test_rician_params_validation():
    with pytest.raises(ConfigError):
        RicianParams(kappa=-1.0)
    with pytest.raises(ConfigError):
        RicianParams(sigma_si=math.nan)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_iid_streams_never_collide_with_error_streams(seed):
    # channel draws use even indices, estimation errors odd ones; adjacent
    # streams must be distinct
    h_dl = _draw(generate_iid, small_config(), seed, [0, 1])[0]
    assert not np.array_equal(h_dl[0], h_dl[1])
