"""Precoders, receive combiner, and the SIC operating modes.

Three self-interference-cancellation modes are modeled:

    NO_SIC                no digital cancellation (analog attenuation only)
    SUBTRACTION           digital subtraction of the estimated SI signal
    SPATIAL_SUPPRESSION   precoding into the null space of the estimated
                          SI channel

The downlink precoder is zero-forcing: the right inverse of the estimated
downlink rows h_dl_hat.  Spatial suppression takes the right inverse of
[h_dl_hat; h_si_hat] and keeps its first K columns F, so h_dl_hat F = I
and h_si_hat F = 0; the null-space constraint costs N degrees of freedom
and needs M >= N + K.  Both are normalized per user so the total transmit
power is one.  The uplink uses a zero-forcing combiner, the left inverse
of h_ul_hat.
"""

from __future__ import annotations

import enum

import numpy as np

from .numerics import Workspace, left_pseudo_inverse, right_pseudo_inverse


class SicMode(enum.Enum):
    NO_SIC = "nosic"
    SUBTRACTION = "stt"
    SPATIAL_SUPPRESSION = "sps"


def _normalize(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user normalization g_k = f_k / (sqrt(K) ||f_k||) over leading
    axes, in place, so that every precoder has unit total power, plus a
    mask of the matrices with a zero column (whose normalization is
    meaningless)."""
    norms = np.linalg.norm(f, axis=-2)
    degenerate = np.any(norms == 0.0, axis=-1)
    norms = np.where(degenerate[..., None], 1.0, norms)
    k = f.shape[-1]
    return np.divide(f, np.sqrt(k) * norms[..., None, :], out=f), degenerate


def build(modes, h_ext_hat: np.ndarray, h_ul_hat: np.ndarray,
          workspace: Workspace | None = None):
    """Transceivers for a stack of CSI draws, each distinct one built once.

    h_ext_hat is (T, K + N, M): every downlink estimate stacked over its SI
    estimate; h_ul_hat is (T, N, K).  Returns the combiners (T, K, N) and
    a dict giving each mode its normalized precoders (T, M, K) and a (T,)
    mask of the failed draws: the pseudo-inverse of the precoder or the
    combiner leaves a residual above 1e-9, or a precoder column is zero.
    NO_SIC and SUBTRACTION share one zero-forcing precoder.  Each draw's
    matrices depend on that draw alone.

    The combiners and precoders are views of the workspace's buffers
    "combiner", "zf" and "sps" (a fresh workspace when None), and the
    three pseudo-inverses share their temporaries' buffers: the next
    build with the same workspace overwrites them all, and a loop over
    chunks of one size allocates none after its first build.
    """
    ws = Workspace() if workspace is None else workspace
    k = h_ul_hat.shape[-1]
    w, w_failed = left_pseudo_inverse(h_ul_hat, ws, "combiner")

    def precoder(rows, name):
        f, failed = right_pseudo_inverse(rows, ws, k, name)
        g, degenerate = _normalize(f)
        return g, failed | degenerate | w_failed

    sps = SicMode.SPATIAL_SUPPRESSION
    zf_modes = set(modes) - {sps}
    out = {}
    if zf_modes:
        out.update(dict.fromkeys(zf_modes,
                                 precoder(h_ext_hat[..., :k, :], "zf")))
    if sps in modes:
        out[sps] = precoder(h_ext_hat, "sps")
    return w, out
