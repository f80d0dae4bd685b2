"""Precoders, receive combiner, and the SIC operating modes.

Three self-interference-cancellation modes are modeled:

    NO_SIC                no digital cancellation (analog attenuation only)
    SUBTRACTION           digital subtraction of the estimated SI signal
    SPATIAL_SUPPRESSION   precoding into the null space of the estimated
                          SI channel

The downlink precoder is zero-forcing against the estimated downlink
channel; spatial suppression extends the zero-forcing constraint with the
estimated SI rows, which costs N degrees of freedom.  Both are normalized
per user so the total transmit power is one.  The uplink uses a
zero-forcing combiner.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import numerics
from .estimation import EstimatedChannels
from .numerics import (SingularMatrixError, left_pseudo_inverse,
                       right_pseudo_inverse)


class SicMode(enum.Enum):
    NO_SIC = "nosic"
    SUBTRACTION = "stt"
    SPATIAL_SUPPRESSION = "sps"


class DegeneratePrecoderError(ValueError):
    """A precoder column collapsed to zero and cannot be normalized."""


@dataclass(frozen=True)
class TransceiverSet:
    """Normalized precoder g, combiner w, and mode."""

    g: np.ndarray        # (M, K) unit-total-power precoder
    w: np.ndarray        # (K, N) receive combiner, row k serves user k
    mode: SicMode


def _named(op, a: np.ndarray, context: str) -> np.ndarray:
    try:
        return op(a)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"{context}: {exc}") from exc


def zf_precoder(h_dl_hat: np.ndarray) -> np.ndarray:
    """Zero-forcing precoder F = H^H (H H^H)^{-1}, shape (M, K)."""
    return _named(right_pseudo_inverse, h_dl_hat, "downlink zero-forcing")


def sps_precoder(h_dl_hat: np.ndarray, h_si_hat: np.ndarray) -> np.ndarray:
    """Null-space precoder: right inverse of [h_dl_hat; h_si_hat], first K
    columns.

    The retained columns satisfy h_dl_hat @ F = I and h_si_hat @ F = 0, so
    transmissions are invisible to the estimated SI channel.  Requires
    M >= N + K.  With an empty h_si_hat (zero rows) this is exactly the
    plain zero-forcing precoder.
    """
    k = h_dl_hat.shape[0]
    stacked = np.vstack([h_dl_hat, h_si_hat])
    full = _named(right_pseudo_inverse, stacked, "extended zero-forcing")
    return full[:, :k]


def _normalize(f_raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user normalization over leading axes, plus a mask of the
    matrices with a zero column (whose normalization is meaningless)."""
    norms = np.linalg.norm(f_raw, axis=-2)
    degenerate = np.any(norms == 0.0, axis=-1)
    norms = np.where(degenerate[..., None], 1.0, norms)
    k = f_raw.shape[-1]
    return f_raw / (np.sqrt(k) * norms[..., None, :]), degenerate


def normalize_vector(f_raw: np.ndarray) -> np.ndarray:
    """Per-user normalization g_k = f_k / (sqrt(K) ||f_k||).

    Every column then has norm 1/sqrt(K) and the precoder's total power
    ||G||_F^2 is one.
    """
    g, degenerate = _normalize(f_raw)
    if degenerate:
        raise DegeneratePrecoderError("precoder has a zero column")
    return g


def zf_combiner(h_ul_hat: np.ndarray) -> np.ndarray:
    """Zero-forcing combiner W = (H^H H)^{-1} H^H, shape (K, N)."""
    return _named(left_pseudo_inverse, h_ul_hat, "uplink combining")


def build(mode: SicMode, est: EstimatedChannels) -> TransceiverSet:
    """Assemble the precoder/combiner pair for one mode and CSI draw."""
    if mode is SicMode.SPATIAL_SUPPRESSION:
        f_raw = sps_precoder(est.h_dl_hat, est.h_si_hat)
    else:
        f_raw = zf_precoder(est.h_dl_hat)
    g = normalize_vector(f_raw)
    w = zf_combiner(est.h_ul_hat)
    return TransceiverSet(g=g, w=w, mode=mode)


def build_stack(modes, h_ext_hat: np.ndarray, h_ul_hat: np.ndarray):
    """Transceivers for a stack of CSI draws, each distinct one built once.

    h_ext_hat is (T, K + N, M): every downlink estimate stacked over its SI
    estimate; h_ul_hat is (T, N, K).  Returns the combiners (T, K, N) and
    a dict giving each mode its normalized precoders (T, M, K) and a (T,)
    mask of the draws for which build(mode, ...) would raise.  NO_SIC and
    SUBTRACTION share one zero-forcing precoder.  Every matrix equals its
    build() counterpart bit for bit.
    """
    k = h_ul_hat.shape[-1]
    w, w_failed = numerics._pseudo_inverse(h_ul_hat, "Aᴴ·A")

    def precoder(rows):
        full, failed = numerics._pseudo_inverse(rows, "A·Aᴴ")
        g, degenerate = _normalize(full[..., :k])
        return g, failed | degenerate | w_failed

    sps = SicMode.SPATIAL_SUPPRESSION
    zf_modes = set(modes) - {sps}
    out = {}
    if zf_modes:
        out.update(dict.fromkeys(zf_modes, precoder(h_ext_hat[..., :k, :])))
    if sps in modes:
        out[sps] = precoder(h_ext_hat)
    return w, out
