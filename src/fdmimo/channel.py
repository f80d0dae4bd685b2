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

from .numerics import _complex_gaussians, bessel_j0, hermitian_sqrt

SPEED_OF_LIGHT = 299792458.0

#: The correlated model's carrier frequency, and the Rician factor and
#: line-of-sight amplitude of its SI channel.
CARRIER_HZ = 2.1e9
KAPPA = 1.0
SIGMA_SI = 1.0
#: The correlated model's strongest SI path gain in dB, which stands in
#: for beta_si_db: the closest transmit/receive pair is wavelength/6
#: apart, a free-space amplitude of 3 / (2 pi).
STRONGEST_SI_GAIN_DB = 20.0 * math.log10(3.0 / (2.0 * math.pi))

#: Highest received SNR in dB that a config may set, as rho_ul_db, as
#: rho_t_db + beta_ue_db or as an SI SNR of _si_snrs, which nmse may not
#: exceed as a power ratio either.  From about 300 dB the zero-forcing
#: residual sits at machine precision, so simulated rates leave their
#: closed forms, and far above it an SINR overflows.
MAX_RECEIVED_SNR_DB = 250.0


class ConfigError(ValueError):
    """A configuration value violates one of the documented constraints."""


def db_to_linear(db: float) -> float:
    """Power ratio from decibels; -inf maps to exactly 0."""
    return 10.0 ** (db / 10.0)


def _si_snrs(config: SystemConfig, gain: str, gain_db: float):
    """Yield (sum, dB) rows of the SI SNR at SI gain gain_db, named gain:
    at the receive array, after analog cancellation, and for a nonzero
    nmse after subtraction."""
    snr_db = config.rho_t_db + gain_db
    yield f"rho_t_db + {gain}", snr_db
    snr_db -= config.alpha_anc_db
    yield f"rho_t_db + {gain} - alpha_anc_db", snr_db
    if config.nmse > 0.0:
        yield (f"rho_t_db + {gain} - alpha_anc_db + 10 log10(nmse)",
               snr_db + 10.0 * math.log10(config.nmse))


def _check_received_snrs(rows) -> None:
    """Raise ConfigError naming the first (sum, dB) row above the
    ceiling."""
    for name, snr_db in rows:
        if snr_db > MAX_RECEIVED_SNR_DB:
            raise ConfigError(
                f"{name} = {snr_db!r} dB is above the "
                f"{MAX_RECEIVED_SNR_DB:g} dB ceiling for a received SNR")


def check_correlated_snrs(config: SystemConfig) -> None:
    """Raise ConfigError if an SI SNR of the correlated model's strongest
    SI path is above the ceiling."""
    _check_received_snrs(
        _si_snrs(config, "strongest_si_gain_db", STRONGEST_SI_GAIN_DB))


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
        _check_received_snrs([
            ("rho_ul_db", self.rho_ul_db),
            ("rho_t_db + beta_ue_db", self.rho_t_db + self.beta_ue_db),
            *_si_snrs(self, "beta_si_db", self.beta_si_db)])
        # The SI estimate's entries grow with sqrt(nmse) at any SI level.
        if self.nmse > db_to_linear(MAX_RECEIVED_SNR_DB):
            raise ConfigError(
                f"nmse = {self.nmse!r} is above "
                f"{db_to_linear(MAX_RECEIVED_SNR_DB):g}, the "
                f"{MAX_RECEIVED_SNR_DB:g} dB ceiling as a power ratio")

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


def generate_iid(normals: np.ndarray, h_dl: np.ndarray,
                 h_ul: np.ndarray, h_si: np.ndarray) -> None:
    """Fill stacks of i.i.d. CN(0, 1) channels, trial i from row i of
    normals, its stream's drawn standard normals.

    h_dl, h_ul and h_si are (trials, K, M), (trials, N, K) and (trials,
    N, M) complex stacks, and normals a (trials, width) float array.  A
    trial's stream holds h_dl, h_ul and h_si in that order, in the layout
    of numerics._complex_gaussians, so a given stream always yields the
    same realization, whatever else the stack holds.
    """
    _complex_gaussians(normals, [h_dl, h_ul, h_si], [1.0, 1.0, 1.0])


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
    i.i.d. model.  The closest pair, si_amp[0, -1], has the strongest
    gain, STRONGEST_SI_GAIN_DB.  All of this depends on M and N alone, so
    it is computed once here and reused across trials.
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

    def sample(self, normals: np.ndarray, h_dl: np.ndarray,
               h_ul: np.ndarray, h_si: np.ndarray,
               scratch: tuple | None = None) -> None:
        """Fill stacks of correlated Rician realizations, trial i from
        row i of normals, its stream's drawn standard normals, which hold
        the three i.i.d. matrices of generate_iid.

        h_dl = H_iid R_tx^(1/2); h_ul = R_rx^(1/2) H_iid; the
        self-interference channel is R_rx^(1/2) (LOS + NLOS) R_tx^(1/2)
        scaled entrywise by si_amp.  Each product
        is stacked over the trials against one 2-D factor, which equals
        the per-trial product bit for bit; the SI expression keeps its
        grouping, since distributing it changes the last bits.  The
        i.i.d. matrices go into scratch, stacks shaped as h_dl, h_ul and
        h_si that are overwritten (fresh ones when None), and the left SI
        product into h_si, so with scratch no stack is allocated here.
        """
        x_dl, x_ul, x_si = scratch or (np.empty_like(h)
                                       for h in (h_dl, h_ul, h_si))
        generate_iid(normals, x_dl, x_ul, x_si)
        np.matmul(x_dl, self.r_tx_sqrt, out=h_dl)
        np.matmul(self.r_rx_sqrt, x_ul, out=h_ul)
        x_si *= self._nlos_amp
        x_si += self._los
        np.matmul(self.r_rx_sqrt, x_si, out=h_si)
        np.matmul(h_si, self.r_tx_sqrt, out=x_si)
        np.multiply(x_si, self.si_amp, out=h_si)
