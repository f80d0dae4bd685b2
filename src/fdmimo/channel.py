"""System configuration and channel generation.

A base station with M transmit and N receive antennas serves K single-antenna
uplink users and K single-antenna downlink users at the same time on the same
band.  Three matrices describe one coherence block:

    h_dl : (K, M)  downlink channel, row k is user k's channel transposed
    h_ul : (N, K)  uplink channel, column k belongs to user k
    h_si : (N, M)  self-interference channel between the BS arrays

The i.i.d. generator draws all entries CN(0, 1).  The correlated model,
CorrelatedSampler, places both arrays on one line, applies Jakes (J0)
spatial correlation at both, gives the self-interference channel a Rician
line-of-sight component, and scales each of its entries by the free-space
path amplitude of the corresponding transmit/receive element pair.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _complex_gaussians, bessel_j0, hermitian_sqrt

SPEED_OF_LIGHT = 299792458.0

#: The correlated model's carrier frequency, and the Rician factor and
#: line-of-sight amplitude of its SI channel.
CARRIER_HZ = 2.1e9
KAPPA = 1.0
SIGMA_SI = 1.0

#: Highest received SNR in dB that a config may set, as rho_ul_db, as
#: rho_t_db + beta_ue_db or rho_t_db + beta_si_db, or as the SI SNR left
#: after analog cancellation, rho_t_db + beta_si_db - alpha_anc_db, and
#: after subtraction, that plus 10 log10(nmse) for a nonzero nmse.  From
#: about 300 dB the zero-forcing residual sits at machine precision, so
#: simulated rates leave their closed forms, and far above it an SINR
#: overflows.
MAX_RECEIVED_SNR_DB = 250.0


class ConfigError(ValueError):
    """A configuration value violates one of the documented constraints."""


def db_to_linear(db: float) -> float:
    """Power ratio from decibels; -inf maps to exactly 0."""
    return 10.0 ** (db / 10.0)


def _check_db_field(name: str, value: float, allow_neg_inf: bool = True) -> None:
    if np.isnan(value):
        raise ConfigError(f"{name} must not be NaN")
    if value == np.inf:
        raise ConfigError(f"{name} must be finite")
    if value == -np.inf and not allow_neg_inf:
        raise ConfigError(f"{name} must be finite")
    try:
        linear = db_to_linear(value)
    except OverflowError:
        raise ConfigError(f"{name} = {value!r} dB overflows a float as a "
                          f"linear power ratio") from None
    if linear == 0.0 and not allow_neg_inf:
        raise ConfigError(f"{name} = {value!r} dB underflows a float to a "
                          f"zero linear power ratio")
    if 0.0 < linear < sys.float_info.min:
        raise ConfigError(f"{name} = {value!r} dB is a subnormal float as a "
                          f"linear power ratio, which has lost precision")


@dataclass(frozen=True)
class SystemConfig:
    """Static system parameters.

    All *_db fields are power ratios in dB (converted as 10**(x/10)); -inf is
    accepted where a zero linear value makes sense.  rho_t_db is the BS
    transmit SNR before path loss, so the received downlink SNR is
    rho_t * beta_ue and the received self-interference SNR is rho_t * beta_si.
    """

    M: int = 64                  # BS transmit antennas
    N: int = 20                  # BS receive antennas
    K: int = 10                  # users per direction
    rho_t_db: float = 50.0       # BS transmit SNR
    beta_ue_db: float = -80.0    # BS-to-user path loss
    beta_si_db: float = -40.0    # transmit-to-receive array path loss
    rho_ul_db: float = 10.0      # received uplink SNR per user
    alpha_anc_db: float = 40.0   # analog cancellation attenuation
    nmse: float = 0.2            # self-interference estimation NMSE

    def __post_init__(self) -> None:
        if self.K < 1:
            raise ConfigError("K must be at least 1")
        if self.N <= self.K:
            raise ConfigError(
                f"N must exceed K for the uplink combiner (N={self.N}, K={self.K})")
        if self.M < self.N + self.K:
            raise ConfigError(
                f"M must be at least N + K for the spatial-suppression "
                f"precoder (M={self.M}, N={self.N}, K={self.K})")
        for name in ("rho_t_db", "beta_ue_db", "beta_si_db", "rho_ul_db"):
            _check_db_field(name, getattr(self, name))
        _check_db_field("alpha_anc_db", self.alpha_anc_db, allow_neg_inf=False)
        if not np.isfinite(self.nmse) or self.nmse < 0.0:
            raise ConfigError("nmse must be finite and nonnegative")
        si_db = self.rho_t_db + self.beta_si_db - self.alpha_anc_db
        snrs = [("rho_ul_db", self.rho_ul_db),
                ("rho_t_db + beta_ue_db", self.rho_t_db + self.beta_ue_db),
                ("rho_t_db + beta_si_db", self.rho_t_db + self.beta_si_db),
                ("rho_t_db + beta_si_db - alpha_anc_db", si_db)]
        if self.nmse > 0.0:
            snrs.append(("rho_t_db + beta_si_db - alpha_anc_db + 10 "
                         "log10(nmse)", si_db + 10.0 * math.log10(self.nmse)))
        for name, snr_db in snrs:
            if snr_db > MAX_RECEIVED_SNR_DB:
                raise ConfigError(
                    f"{name} = {snr_db!r} dB is above the "
                    f"{MAX_RECEIVED_SNR_DB:g} dB ceiling for a received SNR")

    @property
    def rho_t(self) -> float:
        return db_to_linear(self.rho_t_db)

    @property
    def rho_dl(self) -> float:
        """Received downlink SNR rho_t * beta_ue (linear)."""
        return self.rho_t * db_to_linear(self.beta_ue_db)

    @property
    def rho_ul(self) -> float:
        return db_to_linear(self.rho_ul_db)

    @property
    def rho_si(self) -> float:
        """Received self-interference SNR rho_t * beta_si (linear)."""
        return self.rho_t * db_to_linear(self.beta_si_db)

    @property
    def alpha_anc(self) -> float:
        return db_to_linear(self.alpha_anc_db)


def _channel_stack(config: SystemConfig,
                   trials: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Uninitialised stacks (h_dl, h_ul, h_si) for the given trial count."""
    m, n, k = config.M, config.N, config.K
    return (np.empty((trials, k, m), dtype=complex),
            np.empty((trials, n, k), dtype=complex),
            np.empty((trials, n, m), dtype=complex))


def generate_iid(streams: list[RngStream], h_dl: np.ndarray,
                 h_ul: np.ndarray, h_si: np.ndarray) -> None:
    """Fill stacks of i.i.d. CN(0, 1) channels, trial i from streams[i].

    h_dl, h_ul and h_si are (trials, K, M), (trials, N, K) and (trials,
    N, M) complex stacks.  A trial's stream holds h_dl, h_ul and h_si in
    that order, in the layout of numerics._complex_gaussians, so a given
    stream always yields the same realization, whatever else the stack
    holds.
    """
    _complex_gaussians(streams, [h_dl, h_ul, h_si], [1.0, 1.0, 1.0])


class CorrelatedSampler:
    """fig-correlated's channel model: correlated Rician channels between
    two fixed arrays.

    The M transmit elements sit on a line at wavelength/6 spacing, then,
    after a gap of wavelength/6, the N receive elements at the same
    spacing, with the wavelength of CARRIER_HZ.  Each array has the Jakes
    correlation r_ij = J0(2 pi d_ij / wavelength) of its element
    distances d_ij.  The SI channel has a Rician line-of-sight component
    of factor KAPPA and amplitude SIGMA_SI, and each of its entries is
    scaled by si_amp, the free-space amplitude wavelength / (4 pi d) of
    its transmit/receive pair, which replaces the flat beta_si of the
    i.i.d. model.  The closest pair, si_amp[0, -1], is wavelength/6 apart,
    so no amplitude exceeds 3 / (2 pi), a power gain of -6.4 dB.  All of
    this depends on M and N alone, so it is computed once here and reused
    across trials.
    """

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        wavelength = SPEED_OF_LIGHT / CARRIER_HZ
        spacing = wavelength / 6.0
        x_tx = spacing * np.arange(config.M)
        x_rx = spacing * (config.M + np.arange(config.N))
        roots = []
        for x in (x_tx, x_rx):
            r = bessel_j0(2.0 * np.pi * np.abs(x[:, None] - x) / wavelength)
            np.fill_diagonal(r, 1.0)
            roots.append(hermitian_sqrt(r))
        self.r_tx_sqrt, self.r_rx_sqrt = roots
        self.si_amp = wavelength / (4.0 * np.pi * (x_rx[:, None] - x_tx))
        self._los = (np.sqrt(KAPPA / (KAPPA + 1.0)) * SIGMA_SI
                     * np.ones((config.N, config.M)))
        self._nlos_amp = np.sqrt(1.0 / (KAPPA + 1.0))

    def check_si_snr(self, config: SystemConfig) -> None:
        """Raise ConfigError if config puts the SI SNR of the strongest SI
        path above the ceiling, after analog cancellation or after
        subtraction.

        These are the SI SNRs that SystemConfig checks, with the path gain
        in place of beta_si_db, since the SI term scales with the raw
        transmit SNR.
        """
        gain_db = 10.0 * math.log10(float(np.max(self.si_amp)) ** 2)
        snr_db = config.rho_t_db + gain_db - config.alpha_anc_db
        if snr_db > MAX_RECEIVED_SNR_DB:
            raise ConfigError(
                f"rho_t_db = {config.rho_t_db!r} with alpha_anc_db = "
                f"{config.alpha_anc_db!r} puts the SI SNR of the strongest "
                f"correlated SI path at {snr_db:.1f} dB, above the "
                f"{MAX_RECEIVED_SNR_DB:g} dB ceiling for a received SNR")
        if config.nmse > 0.0:
            snr_db += 10.0 * math.log10(config.nmse)
            if snr_db > MAX_RECEIVED_SNR_DB:
                raise ConfigError(
                    f"rho_t_db = {config.rho_t_db!r} with alpha_anc_db = "
                    f"{config.alpha_anc_db!r} and nmse = {config.nmse!r} "
                    f"puts the SI SNR left after subtraction on the "
                    f"strongest correlated SI path at {snr_db:.1f} dB, above "
                    f"the {MAX_RECEIVED_SNR_DB:g} dB ceiling for a received "
                    f"SNR")

    def sample(self, streams: list[RngStream], h_dl: np.ndarray,
               h_ul: np.ndarray, h_si: np.ndarray) -> None:
        """Fill stacks of correlated Rician realizations, trial i from
        streams[i], which holds the three i.i.d. matrices of generate_iid.

        h_dl = H_iid R_tx^(1/2); h_ul = R_rx^(1/2) H_iid; the
        self-interference channel is R_rx^(1/2) (LOS + NLOS) R_tx^(1/2)
        scaled entrywise by si_amp.  Each product
        is stacked over the trials against one 2-D factor, which equals
        the per-trial product bit for bit; the SI expression keeps its
        grouping, since distributing it changes the last bits.
        """
        x_dl, x_ul, x_si = (np.empty_like(h) for h in (h_dl, h_ul, h_si))
        generate_iid(streams, x_dl, x_ul, x_si)
        np.matmul(x_dl, self.r_tx_sqrt, out=h_dl)
        np.matmul(self.r_rx_sqrt, x_ul, out=h_ul)
        x_si *= self._nlos_amp
        x_si += self._los
        np.matmul(self.r_rx_sqrt @ x_si, self.r_tx_sqrt, out=h_si)
        h_si *= self.si_amp
