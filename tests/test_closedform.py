import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from fdmimo.channel import SystemConfig
from fdmimo.closedform import (rate_perfect, ul_rate_imperfect,
                               ul_sinr_imperfect)
from fdmimo.transceiver import SicMode

CFG = SystemConfig()  # M=64, N=20, K=10, defaults throughout
#: The defaults at a received downlink SNR rho_dl of exactly 1.0.
RHO_DL_1 = dataclasses.replace(CFG, rho_t_db=0.0, beta_ue_db=0.0)


# ----------------------------------------------------- perfect CSI rates

def test_perfect_subtraction_rates_frozen():
    # 10 log2(1 + 55/10) and 10 log2(1 + 10*11) at rho_dl = 1, rho_ul = 10
    assert RHO_DL_1.rho_dl == 1.0
    p = rate_perfect(SicMode.SUBTRACTION, RHO_DL_1)
    assert p.dl_rate == pytest.approx(27.004397181410923, rel=1e-14)
    assert p.ul_rate == pytest.approx(67.94415866350106, rel=1e-14)


def test_perfect_sps_loses_null_space_antennas():
    p = rate_perfect(SicMode.SPATIAL_SUPPRESSION, RHO_DL_1)
    # gain 35 instead of 55
    assert p.dl_rate == pytest.approx(21.69925001442312, rel=1e-14)
    assert p.ul_rate == pytest.approx(67.94415866350106, rel=1e-14)


def test_perfect_nosic_divides_by_attenuated_si():
    # rho_t = 80 dB, beta_si = -40 dB, alpha = 40 dB -> rho_si/alpha = 1
    cfg = dataclasses.replace(CFG, rho_t_db=80.0)
    p = rate_perfect(SicMode.NO_SIC, cfg)
    # per-user SINR 10 * 11 / (1 + 1) = 55
    assert p.ul_rate == pytest.approx(cfg.K * math.log2(1.0 + 55.0),
                                      rel=1e-14)
    assert p.ul_rate == pytest.approx(58.07354922057604, rel=1e-14)


def test_perfect_rate_overrides():
    # rho_dl is set through the config: rho_t_db + beta_ue_db in dB
    p = rate_perfect(SicMode.SUBTRACTION,
                     dataclasses.replace(CFG, rho_t_db=-math.inf))
    assert p.dl_rate == 0.0
    assert p.ul_rate == rate_perfect(SicMode.SUBTRACTION, CFG).ul_rate
    q = rate_perfect(SicMode.SUBTRACTION,
                     dataclasses.replace(RHO_DL_1, rho_ul_db=0.0))
    assert q.dl_rate == CFG.K * math.log2(1.0 + 55.0 / 10.0)
    assert q.ul_rate == CFG.K * math.log2(1.0 + 11.0)


def test_perfect_si_free_limit():
    # with the transmit chain off there is no self-interference, so all
    # three modes collapse to the same uplink rate
    cfg = dataclasses.replace(CFG, rho_t_db=-math.inf)
    rates = {m: rate_perfect(m, cfg).ul_rate for m in SicMode}
    assert len(set(rates.values())) == 1
    assert rate_perfect(SicMode.NO_SIC, cfg).ul_rate \
        == cfg.K * math.log2(1.0 + 110.0)


# ------------------------------------------------- imperfect CSI uplink

def test_imperfect_sinr_frozen_defaults():
    # num = 10*100*10 = 10000; den = 201 + 0.001*chi*101
    want = {
        SicMode.NO_SIC: 10000.0 / (201.0 + 0.101),
        SicMode.SUBTRACTION: 10000.0 / (201.0 + 0.101 * 0.2),
        SicMode.SPATIAL_SUPPRESSION: 10000.0 / (201.0 + 0.101 / 6.0),
    }
    for mode, w in want.items():
        assert ul_sinr_imperfect(mode, CFG) == pytest.approx(w, rel=1e-12)


def test_imperfect_sinr_ordering_strict():
    cfg = dataclasses.replace(CFG, rho_t_db=60.0)  # rho_si/alpha = 0.01
    nosic = ul_sinr_imperfect(SicMode.NO_SIC, cfg)
    stt = ul_sinr_imperfect(SicMode.SUBTRACTION, cfg)
    sps = ul_sinr_imperfect(SicMode.SPATIAL_SUPPRESSION, cfg)
    assert sps > stt > nosic


def test_imperfect_rate_frozen():
    assert ul_rate_imperfect(SicMode.SUBTRACTION, CFG) == pytest.approx(
        10.0 * math.log2(1.0 + 10000.0 / (201.0 + 0.101 * 0.2)), rel=1e-14)


def test_imperfect_sps_saturates_at_nosic():
    # chi, the share of the SI power that survives, read back from the
    # SINR's denominator: subtraction scales it by the NMSE, and
    # suppression saturates at no SIC as the estimate becomes useless
    cfg = dataclasses.replace(CFG, nmse=1e9)
    k, rho = cfg.K, cfg.rho_ul

    def si_term(mode):
        return (k * rho * rho * (cfg.N - k) / ul_sinr_imperfect(mode, cfg)
                - 2.0 * k * rho - 1.0)

    top = si_term(SicMode.NO_SIC)
    assert si_term(SicMode.SUBTRACTION) / top == pytest.approx(1e9,
                                                                rel=1e-12)
    assert si_term(SicMode.SPATIAL_SUPPRESSION) == pytest.approx(top,
                                                                 rel=1e-6)


def test_imperfect_perfect_si_estimate_removes_chi():
    cfg = dataclasses.replace(CFG, nmse=0.0)
    stt = ul_sinr_imperfect(SicMode.SUBTRACTION, cfg)
    sps = ul_sinr_imperfect(SicMode.SPATIAL_SUPPRESSION, cfg)
    assert stt == sps == pytest.approx(10000.0 / 201.0, rel=1e-14)
    # no-SIC keeps the full SI term
    assert ul_sinr_imperfect(SicMode.NO_SIC, cfg) < stt


# ------------------------------------------------------------ hypothesis

_cfg_st = st.builds(
    lambda n, extra_k, extra_m, rho_t, nmse: SystemConfig(
        M=n + (n - extra_k) + extra_m, N=n, K=n - extra_k,
        rho_t_db=rho_t, nmse=nmse),
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=40),
    st.floats(min_value=-20.0, max_value=90.0),
    st.floats(min_value=1e-6, max_value=5.0),
).filter(lambda c: c.K >= 1)


@settings(max_examples=60, deadline=None)
@given(_cfg_st)
def test_modes_order_by_residual_si(cfg):
    nosic = ul_sinr_imperfect(SicMode.NO_SIC, cfg)
    stt = ul_sinr_imperfect(SicMode.SUBTRACTION, cfg)
    sps = ul_sinr_imperfect(SicMode.SPATIAL_SUPPRESSION, cfg)
    # suppression always helps (chi = eps2/(1+eps2) < min(1, eps2));
    # subtraction only helps while the estimate is better than nothing
    assert sps >= stt and sps >= nosic
    if cfg.nmse <= 1.0:
        assert stt >= nosic
    if cfg.rho_si > 0.0:
        assert sps > nosic


@settings(max_examples=60, deadline=None)
@given(_cfg_st)
def test_subtraction_beats_sps_with_perfect_csi(cfg):
    # the null space costs downlink array gain and buys nothing once the
    # SI channel is known exactly
    a = rate_perfect(SicMode.SUBTRACTION, cfg)
    b = rate_perfect(SicMode.SPATIAL_SUPPRESSION, cfg)
    assert a.dl_rate + a.ul_rate >= b.dl_rate + b.ul_rate


@settings(max_examples=40, deadline=None)
@given(_cfg_st, st.floats(min_value=0.1, max_value=10.0))
def test_imperfect_sinr_monotone_in_rho_ul(cfg, factor):
    cfg2 = dataclasses.replace(cfg, rho_ul_db=cfg.rho_ul_db
                               + 10.0 * math.log10(factor))
    for mode in SicMode:
        lo = ul_sinr_imperfect(mode, cfg)
        hi = ul_sinr_imperfect(mode, cfg2)
        if factor >= 1.0:
            assert hi >= lo * (1.0 - 1e-12)
        else:
            assert hi <= lo * (1.0 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(_cfg_st)
def test_imperfect_sinr_nonincreasing_in_si(cfg):
    louder = dataclasses.replace(cfg, beta_si_db=cfg.beta_si_db + 10.0)
    for mode in SicMode:
        assert ul_sinr_imperfect(mode, louder) \
            <= ul_sinr_imperfect(mode, cfg) * (1.0 + 1e-12)
