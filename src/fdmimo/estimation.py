"""Additive channel estimation error model.

Estimates are the true channels plus independent complex Gaussian errors:
h_hat = h + e.  The user-link error variance follows the MMSE pilot model
1 / (K * rho_ul + 1) of a unit-variance channel; the self-interference
error variance is an NMSE figure set by the cancellation hardware rather
than by pilot SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ConfigError, SystemConfig
from .numerics import RngStream, _complex_gaussians


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


def model_from_config(config: SystemConfig, perfect: bool) -> EstimationModel:
    """Estimation model used by the experiments.

    With imperfect CSI the user links use the MMSE variance
    1 / (K * rho_ul + 1) of a unit-variance channel at the uplink SNR
    (more users send more pilot symbols), and the self-interference NMSE
    comes straight from the config.
    """
    if perfect:
        return EstimationModel()
    eps2 = 1.0 / (config.K * config.rho_ul + 1.0)
    return EstimationModel(eps2_dl=eps2, eps2_ul=eps2, eps2_si=config.nmse)


def estimate(model: EstimationModel, streams: list[RngStream],
             channels: tuple, hats: tuple,
             si_amp: np.ndarray | None = None) -> None:
    """Write estimates hats = channels + errors for a stack of trials.

    channels and hats are (h_dl, h_ul, h_si) stacks.  The errors are
    i.i.d. CN(0, eps2) per matrix, trial i's from streams[i], which holds
    the errors of nonzero variance in the order dl, ul, si, in the layout
    of numerics._complex_gaussians; a zero-variance error is exactly zero
    and takes no draws, and a perfect model opens no stream at all.
    si_amp optionally multiplies the SI error entrywise.
    """
    variances = (model.eps2_dl, model.eps2_ul, model.eps2_si)
    if not model.perfect:
        _complex_gaussians(streams,
                           [hat for hat, v in zip(hats, variances) if v],
                           [v for v in variances if v])
    if si_amp is not None and model.eps2_si:
        for part in (hats[2].real, hats[2].imag):
            np.multiply(part, si_amp, out=part)
    for h, hat, v in zip(channels, hats, variances):
        if v:
            hat += h
        else:
            hat[...] = h
