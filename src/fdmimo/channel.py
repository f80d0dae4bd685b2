"""System configuration and channel generation.

A base station with M transmit and N receive antennas serves K single-antenna
uplink users and K single-antenna downlink users at the same time on the same
band.  Three matrices describe one coherence block:

    h_dl : (K, M)  downlink channel, row k is user k's channel transposed
    h_ul : (N, K)  uplink channel, column k belongs to user k
    h_si : (N, M)  self-interference channel between the BS arrays

The i.i.d. generator draws all entries CN(0, 1).  The correlated generator
applies Jakes (J0) spatial correlation at both BS arrays, gives the
self-interference channel a Rician line-of-sight component, and scales each
of its entries by the free-space path gain of the corresponding
transmit/receive element pair.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import RngStream, _complex_gaussians, bessel_j0, hermitian_sqrt

SPEED_OF_LIGHT = 299792458.0

#: Highest received SNR in dB that a config may set, as rho_ul_db, as
#: rho_t_db + beta_ue_db or rho_t_db + beta_si_db, or as the SI SNR left
#: after analog cancellation, rho_t_db + beta_si_db - alpha_anc_db.  From
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
        for name, snr_db in (
                ("rho_ul_db", self.rho_ul_db),
                ("rho_t_db + beta_ue_db", self.rho_t_db + self.beta_ue_db),
                ("rho_t_db + beta_si_db", self.rho_t_db + self.beta_si_db),
                ("rho_t_db + beta_si_db - alpha_anc_db",
                 self.rho_t_db + self.beta_si_db - self.alpha_anc_db)):
            if snr_db > MAX_RECEIVED_SNR_DB:
                raise ConfigError(
                    f"{name} = {snr_db!r} dB is above the "
                    f"{MAX_RECEIVED_SNR_DB:g} dB ceiling for a received SNR")
        if not np.isfinite(self.nmse) or self.nmse < 0.0:
            raise ConfigError("nmse must be finite and nonnegative")

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


@dataclass(frozen=True)
class RicianParams:
    """Rician factor and line-of-sight amplitude of the SI channel."""

    kappa: float = 1.0
    sigma_si: float = 1.0

    def __post_init__(self) -> None:
        if not np.isfinite(self.kappa) or self.kappa < 0.0:
            raise ConfigError("kappa must be finite and nonnegative")
        if not np.isfinite(self.sigma_si) or self.sigma_si < 0.0:
            raise ConfigError("sigma_si must be finite and nonnegative")


@dataclass(frozen=True)
class ArrayGeometry:
    """Element positions (meters, 3-vectors) of both BS arrays.

    Transmit/receive element pairs must be at least wavelength/6 apart and
    no two elements may coincide.
    """

    tx_positions: np.ndarray   # (M, 3)
    rx_positions: np.ndarray   # (N, 3)
    wavelength: float

    def __post_init__(self) -> None:
        tx = _positions(self.tx_positions)
        rx = _positions(self.rx_positions)
        object.__setattr__(self, "tx_positions", tx)
        object.__setattr__(self, "rx_positions", rx)
        if not np.isfinite(self.wavelength) or self.wavelength <= 0.0:
            raise ConfigError("wavelength must be positive")
        for name, pos in (("tx", tx), ("rx", rx)):
            d = _pairwise_distances(pos, pos)
            off = d[~np.eye(len(pos), dtype=bool)]
            if off.size and off.min() <= 0.0:
                raise ConfigError(f"duplicate {name} element positions")
        cross = _pairwise_distances(rx, tx)
        if cross.size:
            if cross.min() <= 0.0:
                raise ConfigError("transmit and receive elements coincide")
            floor = self.wavelength / 6.0
            if cross.min() < floor * (1.0 - 1e-12):
                raise ConfigError(
                    f"minimum tx/rx element separation {cross.min():.6g} m is "
                    f"below wavelength/6 = {floor:.6g} m")

    def cross_distances(self) -> np.ndarray:
        """(N, M) matrix of tx/rx element distances."""
        return _pairwise_distances(self.rx_positions, self.tx_positions)


def _positions(positions) -> np.ndarray:
    """Element positions as a float array of finite 3-vectors (a NaN
    would pass every distance check and give NaN correlations)."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ConfigError("positions must be arrays of 3-vectors")
    if not np.isfinite(pos).all():
        raise ConfigError("positions must be finite")
    return pos


def _pairwise_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def default_geometry(config: SystemConfig, carrier_hz: float) -> ArrayGeometry:
    """Colinear uniform linear arrays in the default layout.

    M transmit elements at wavelength/6 spacing, then a wavelength/6 gap,
    then N receive elements at the same spacing, all on the x axis.
    """
    if not np.isfinite(carrier_hz) or carrier_hz <= 0.0:
        raise ConfigError("carrier frequency must be positive")
    lam = SPEED_OF_LIGHT / carrier_hz
    s = lam / 6.0
    tx = np.zeros((config.M, 3))
    tx[:, 0] = s * np.arange(config.M)
    rx = np.zeros((config.N, 3))
    rx[:, 0] = s * (config.M + np.arange(config.N))
    return ArrayGeometry(tx_positions=tx, rx_positions=rx, wavelength=lam)


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


def jakes_correlation(positions: np.ndarray, wavelength: float) -> np.ndarray:
    """Jakes spatial correlation matrix r_ij = J0(2 pi d_ij / wavelength).

    Returns a real symmetric matrix with a unit diagonal.  Duplicate
    positions are mathematically permitted but usually a mistake, so they
    trigger a warning.
    """
    pos = _positions(positions)
    if not np.isfinite(wavelength) or wavelength <= 0.0:
        raise ConfigError("wavelength must be positive")
    d = _pairwise_distances(pos, pos)
    off = d[~np.eye(len(pos), dtype=bool)]
    if off.size and off.min() <= 0.0:
        warnings.warn("duplicate antenna positions give a singular "
                      "correlation matrix", RuntimeWarning, stacklevel=2)
    r = bessel_j0(2.0 * np.pi * d / wavelength)
    np.fill_diagonal(r, 1.0)
    return (r + r.T) / 2.0


def free_space_gains(distances: np.ndarray, wavelength: float) -> np.ndarray:
    """Free-space power gain min(1, (wavelength / (4 pi d))^2) per entry."""
    d = np.asarray(distances, dtype=float)
    if np.any(d <= 0.0):
        raise ConfigError("distances must be strictly positive")
    g = (wavelength / (4.0 * np.pi * d)) ** 2
    return np.minimum(g, 1.0)


def si_pathloss_gains(geometry: ArrayGeometry) -> np.ndarray:
    """(N, M) free-space power gains between receive and transmit elements."""
    return free_space_gains(geometry.cross_distances(), geometry.wavelength)


class CorrelatedSampler:
    """Draws correlated Rician realizations for a fixed geometry.

    The correlation square roots, the SI amplitude and the LOS matrix only
    depend on the geometry, so they are computed once here and reused
    across trials.
    """

    def __init__(self, config: SystemConfig, geometry: ArrayGeometry,
                 rician: RicianParams) -> None:
        m, n = len(geometry.tx_positions), len(geometry.rx_positions)
        if (m, n) != (config.M, config.N):
            raise ConfigError(
                f"geometry has {m} transmit and {n} receive elements; the "
                f"config has M={config.M}, N={config.N}")
        self.config = config
        self.r_tx_sqrt, self.r_rx_sqrt = (
            hermitian_sqrt(jakes_correlation(pos, geometry.wavelength))
            for pos in (geometry.tx_positions, geometry.rx_positions))
        # Path gains replace the flat beta_si of the i.i.d. model.
        self._si_amp = np.sqrt(si_pathloss_gains(geometry))
        k = rician.kappa
        self._los = (np.sqrt(k / (k + 1.0)) * rician.sigma_si
                     * np.ones((config.N, config.M)))
        self._nlos_amp = np.sqrt(1.0 / (k + 1.0))

    def sample(self, streams: list[RngStream], h_dl: np.ndarray,
               h_ul: np.ndarray, h_si: np.ndarray) -> None:
        """Fill stacks of correlated Rician realizations, trial i from
        streams[i], which holds the three i.i.d. matrices of generate_iid.

        h_dl = H_iid R_tx^(1/2); h_ul = R_rx^(1/2) H_iid; the
        self-interference channel is R_rx^(1/2) (LOS + NLOS) R_tx^(1/2)
        scaled entrywise by the square root of the free-space path gains,
        which replace the flat beta_si of the i.i.d. model.  Each product
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
        h_si *= self._si_amp
