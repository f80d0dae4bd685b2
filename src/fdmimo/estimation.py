"""Additive channel estimation error model.

Estimates are the true channels plus independent complex Gaussian errors:
h_hat = h + e.  Perfect CSI has no errors.  With imperfect CSI the
user-link error variance follows the MMSE pilot model 1 / (K * rho_ul + 1)
of a unit-variance channel (more users send more pilot symbols); the
self-interference error variance is an NMSE figure set by the
cancellation hardware rather than by pilot SNR.
"""

from __future__ import annotations

import numpy as np

from .channel import SystemConfig
from .numerics import _complex_gaussians


def error_variances(config: SystemConfig,
                    perfect: bool) -> tuple[float, float, float]:
    """Error variances (eps2_dl, eps2_ul, eps2_si) of the model above."""
    if perfect:
        return 0.0, 0.0, 0.0
    eps2 = 1.0 / (config.K * config.rho_ul + 1.0)
    return eps2, eps2, config.nmse


def estimate(variances: tuple[float, float, float], normals: np.ndarray,
             channels: tuple, hats: tuple,
             si_amp: np.ndarray | None = None) -> None:
    """Write estimates hats = channels + errors for a stack of trials.

    channels and hats are (h_dl, h_ul, h_si) stacks, and variances the
    error variances of error_variances.  The errors are i.i.d. CN(0, eps2)
    per matrix, trial i's from row i of normals, a (trials, width) float
    array of its error stream's drawn standard normals.  That stream
    holds the errors of nonzero variance in the order dl, ul, si, in the
    layout of numerics._complex_gaussians; a zero-variance error is
    exactly zero and takes no normals, so under perfect CSI the rows are
    empty and nothing is drawn for them.  si_amp optionally multiplies
    the SI error entrywise.
    """
    if any(variances):
        _complex_gaussians(normals,
                           [hat for hat, v in zip(hats, variances) if v],
                           [v for v in variances if v])
    if si_amp is not None and variances[2]:
        for part in (hats[2].real, hats[2].imag):
            np.multiply(part, si_amp, out=part)
    for h, hat, v in zip(channels, hats, variances):
        if v:
            hat += h
        else:
            hat[...] = h
