"""Closed-form ergodic sum-rate approximations.

The perfect-CSI rates follow from zero-forcing plus the expected inverse
column norms of the precoder and combiner (the Wishart identities of
inverse_norm_gains).  The imperfect-CSI uplink rates use a high-SNR
ratio-of-means approximation in which the three SIC modes differ only by
the factor chi multiplying the residual self-interference power:

    no SIC                chi = 1
    SI subtraction        chi = eps2_si
    spatial suppression   chi = eps2_si / (1 + eps2_si)

The spatial-suppression factor is the harmonic-mean blend of the channel
and error powers: nulling the estimated SI channel leaves only the
component of the true channel aligned with the estimation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .channel import SystemConfig
from .transceiver import SicMode


@dataclass(frozen=True)
class ClosedFormPoint:
    """One closed-form evaluation of the downlink and uplink sum rates."""

    dl_rate: float
    ul_rate: float


def _chi(mode: SicMode, eps2_si: float) -> float:
    if mode is SicMode.NO_SIC:
        return 1.0
    if mode is SicMode.SUBTRACTION:
        return eps2_si
    if eps2_si == 0.0:
        return 0.0
    return 1.0 / (1.0 / eps2_si + 1.0)


def inverse_norm_gains(config: SystemConfig) -> tuple[int, int, int]:
    """Wishart degrees of freedom M-K+1, M-N-K+1 and N-K+1: the mean of
    1 / ||f_k||^2 over the columns of the unnormalized zero-forcing and
    suppression precoders and of the combiner, in that order."""
    m, n, k = config.M, config.N, config.K
    return m - k + 1, m - n - k + 1, n - k + 1


def rate_perfect(mode: SicMode, config: SystemConfig) -> ClosedFormPoint:
    """Perfect-CSI downlink and uplink sum rates for one mode.

    Downlink: K log2(1 + rho_dl (M-K+1)/K), with M-N-K+1 replacing M-K+1
    under spatial suppression (the null-space constraint costs N antennas).
    Uplink: K log2(1 + rho_ul (N-K+1)); without SIC the SNR is divided by
    rho_si / alpha_anc + 1, the residual SI power after analog attenuation.
    """
    k = config.K
    zf_gain, sps_gain, ul_gain = inverse_norm_gains(config)
    dl_gain = sps_gain if mode is SicMode.SPATIAL_SUPPRESSION else zf_gain
    dl_rate = k * math.log2(1.0 + config.rho_dl * dl_gain / k)
    ul_sinr = config.rho_ul * ul_gain
    if mode is SicMode.NO_SIC:
        ul_sinr = ul_sinr / (config.rho_si / config.alpha_anc + 1.0)
    ul_rate = k * math.log2(1.0 + ul_sinr)
    return ClosedFormPoint(dl_rate=dl_rate, ul_rate=ul_rate)


def rate_half_duplex(config: SystemConfig) -> ClosedFormPoint:
    """Half-duplex baseline: half of each perfect-CSI subtraction rate.

    A half-duplex BS splits the resources between the two directions, and
    each direction then runs the same zero-forcing link with no SI at all.
    """
    point = rate_perfect(SicMode.SUBTRACTION, config)
    return ClosedFormPoint(dl_rate=0.5 * point.dl_rate,
                           ul_rate=0.5 * point.ul_rate)


def ul_sinr_imperfect(mode: SicMode, config: SystemConfig) -> float:
    """Imperfect-CSI per-user uplink SINR approximation.

        K rho_ul^2 (N - K)
        ------------------------------------------------------------
        2 K rho_ul + (rho_si/alpha_anc) chi (K rho_ul + 1) + 1

    assuming the user-link estimation variance 1/(K rho_ul + 1) and the
    SI estimation NMSE from the config.
    """
    k, n, rho = config.K, config.N, config.rho_ul
    chi = _chi(mode, config.nmse)
    num = k * rho * rho * (n - k)
    den = (2.0 * k * rho + (config.rho_si / config.alpha_anc) * chi
           * (k * rho + 1.0) + 1.0)
    return num / den


def ul_rate_imperfect(mode: SicMode, config: SystemConfig) -> float:
    """Imperfect-CSI uplink sum rate K log2(1 + sinr)."""
    return config.K * math.log2(1.0 + ul_sinr_imperfect(mode, config))
