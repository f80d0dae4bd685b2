"""Additive channel estimation error model.

Estimates are the true channels plus independent complex Gaussian errors:
h_hat = h + e.  The user-link error variance follows the MMSE pilot model
beta / (K * rho_u * beta + 1); the self-interference error variance is an
NMSE figure set by the cancellation hardware rather than by pilot SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization, ConfigError, SystemConfig
from .numerics import RngStream, _complex_gaussian


@dataclass(frozen=True)
class EstimationModel:
    """Per-matrix error variances; all zero means perfect CSI."""

    eps2_dl: float = 0.0
    eps2_ul: float = 0.0
    eps2_si: float = 0.0

    def __post_init__(self) -> None:
        for name in ("eps2_dl", "eps2_ul", "eps2_si"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0.0:
                raise ConfigError(f"{name} must be finite and nonnegative")

    @property
    def perfect(self) -> bool:
        return self.eps2_dl == 0.0 and self.eps2_ul == 0.0 and self.eps2_si == 0.0


@dataclass(frozen=True)
class EstimatedChannels:
    """Estimates h_hat = h + e together with the error draws themselves."""

    h_dl_hat: np.ndarray
    h_ul_hat: np.ndarray
    h_si_hat: np.ndarray
    e_dl: np.ndarray
    e_ul: np.ndarray
    e_si: np.ndarray


def uldl_error_variance(beta_ue: float, rho_u: float, k: int) -> float:
    """MMSE error variance beta / (K * rho_u * beta + 1) for a user link.

    beta_ue and rho_u are linear (not dB).  Decreasing in both the pilot
    SNR rho_u and the user count K (more pilot symbols).
    """
    if beta_ue < 0.0 or rho_u < 0.0 or k < 1:
        raise ConfigError("beta_ue, rho_u must be nonnegative and k >= 1")
    return beta_ue / (k * rho_u * beta_ue + 1.0)


def model_from_config(config: SystemConfig, perfect: bool) -> EstimationModel:
    """Estimation model used by the experiments.

    With imperfect CSI the user links use the MMSE variance evaluated at
    the uplink SNR, which reduces to 1 / (K * rho_ul + 1) for a
    unit-variance channel, and the self-interference NMSE comes straight
    from the config.
    """
    if perfect:
        return EstimationModel()
    eps2 = uldl_error_variance(1.0, config.rho_ul, config.K)
    return EstimationModel(eps2_dl=eps2, eps2_ul=eps2, eps2_si=config.nmse)


def estimate(channels: ChannelRealization, model: EstimationModel,
             rng: RngStream,
             si_error_scale: np.ndarray | None = None) -> EstimatedChannels:
    """Apply additive estimation errors to one channel realization.

    Errors are drawn i.i.d. CN(0, eps2) per matrix, sequentially
    (e_dl, e_ul, e_si) from the given stream, independent of the channel
    draws by stream separation.  si_error_scale optionally multiplies the
    self-interference error variance entrywise; it is used when the SI
    channel itself carries per-element path gains, so that the error keeps
    a fixed NMSE relative to the local channel power.
    """
    gen = rng.generator()
    e_dl = _complex_gaussian(gen, *channels.h_dl.shape, model.eps2_dl)
    e_ul = _complex_gaussian(gen, *channels.h_ul.shape, model.eps2_ul)
    e_si = _complex_gaussian(gen, *channels.h_si.shape, model.eps2_si)
    if si_error_scale is not None:
        if si_error_scale.shape != channels.h_si.shape:
            raise ConfigError("si_error_scale shape must match h_si")
        e_si = np.sqrt(si_error_scale) * e_si
    return EstimatedChannels(
        h_dl_hat=channels.h_dl + e_dl,
        h_ul_hat=channels.h_ul + e_ul,
        h_si_hat=channels.h_si + e_si,
        e_dl=e_dl, e_ul=e_ul, e_si=e_si)
