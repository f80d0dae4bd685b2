"""Instantaneous SINRs, sum rates, and the Monte Carlo engine.

Symbols and noise are never sampled: conditioned on the channel matrices
and the transceiver, every SINR is a deterministic ratio of quadratic
forms, so averaging the resulting rates over channel draws estimates the
ergodic sum rate directly.

Per-user downlink SINR (user k, row h_k of the true downlink channel):

    rho_dl |h_k g_k|^2 / (rho_dl sum_{l != k} |h_k g_l|^2 + 1)

Per-user uplink SINR (row w_k of the combiner, column h_k of the true
uplink channel):

    rho_ul |w_k h_k|^2
    ---------------------------------------------------------------
    rho_ul sum_{l != k} |w_k h_l|^2 + (rho_si/alpha_anc) Omega_k + ||w_k||^2

where Omega_k = ||w_k X G||^2 is the residual self-interference power:
X is the true SI channel without digital cancellation, the estimation
error (true minus estimate) under SI subtraction, and again the true SI
channel under spatial suppression, whose precoder already nulls the
estimated SI rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import closedform
from .channel import (ChannelRealization, ConfigError, CorrelatedSampler,
                      ArrayGeometry, RicianParams, SystemConfig, generate_iid)
from .estimation import EstimatedChannels, EstimationModel, estimate
from .numerics import RngStream
# build is not called here, but stays importable as fdmimo.metrics.build,
# where tracing tools look up the pipeline's stages.
from .transceiver import (SicMode, TransceiverSet, build,  # noqa: F401
                          build_stack)


@dataclass(frozen=True)
class SinrSample:
    """Per-user SINRs and residual SI powers of a single trial."""

    dl: np.ndarray
    ul: np.ndarray
    omega: np.ndarray


@dataclass(frozen=True)
class RateReport:
    """Monte Carlo estimate of the ergodic sum rates for one operating point."""

    dl_sum_rate: float
    ul_sum_rate: float
    dl_ci95: float
    ul_ci95: float
    trials: int
    failures: int

    @property
    def valid(self) -> bool:
        """False when 0.1 percent of trials or more failed."""
        return self.trials > 0 and self.failures / self.trials < 1e-3


def _dl_terms(h_dl_true: np.ndarray, g: np.ndarray):
    p = np.abs(h_dl_true @ g) ** 2
    users = np.arange(p.shape[-1])
    sig = p[..., users, users]
    p[..., users, users] = 0.0
    return sig, p.sum(axis=-1)


def _ul_terms(h_ul_true: np.ndarray, w: np.ndarray):
    p = np.abs(w @ h_ul_true) ** 2
    users = np.arange(p.shape[-1])
    sig = p[..., users, users]
    p[..., users, users] = 0.0
    noise = np.sum(np.abs(w) ** 2, axis=-1)
    return sig, p.sum(axis=-1), noise


def dl_sinr(h_dl_true: np.ndarray, g: np.ndarray, rho_dl) -> np.ndarray:
    """Per-user downlink SINRs against the true channel.

    Leading axes of h_dl_true and g broadcast as in a matrix product, and
    rho_dl may be an array broadcasting against them; users stay last.
    """
    sig, intf = _dl_terms(h_dl_true, g)
    rho = np.expand_dims(rho_dl, -1)
    return rho * sig / (rho * intf + 1.0)


def residual_si(mode: SicMode, w: np.ndarray, h_si_true: np.ndarray,
                h_si_hat: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residual SI powers Omega_k = ||w_k X G||^2 for the given mode."""
    if mode is SicMode.SUBTRACTION:
        x = h_si_true - h_si_hat
    else:
        x = h_si_true
    rows = w @ x @ g
    return np.sum(np.abs(rows) ** 2, axis=-1)


def ul_sinr(h_ul_true: np.ndarray, w: np.ndarray, omega: np.ndarray,
            rho_ul, si_level) -> np.ndarray:
    """Per-user uplink SINRs against the true channel.

    si_level is the linear received SI SNR after analog cancellation, the
    factor of omega: config.rho_si / config.alpha_anc for a flat SI link,
    and the raw transmit SNR over alpha_anc when per-element path gains
    are already folded into the SI channel.  Leading axes broadcast as in
    dl_sinr, with omega carrying the users last.
    """
    sig, intf, noise = _ul_terms(h_ul_true, w)
    rho = np.expand_dims(rho_ul, -1)
    pref = np.expand_dims(si_level, -1)
    return rho * sig / (rho * intf + pref * omega + noise)


def sum_rate(sinrs: np.ndarray):
    """Sum of log2(1 + sinr) over users (the last axis), in bps/Hz."""
    return np.sum(np.log2(1.0 + np.asarray(sinrs)), axis=-1)


def trial_sample(config: SystemConfig, mode: SicMode,
                 channels: ChannelRealization, est: EstimatedChannels,
                 ts: TransceiverSet,
                 si_snr: float | None = None) -> SinrSample:
    """Evaluate all SINRs of one already-drawn trial."""
    omega = residual_si(mode, ts.w, channels.h_si, est.h_si_hat, ts.g)
    si = config.rho_si if si_snr is None else si_snr
    return SinrSample(
        dl=dl_sinr(channels.h_dl, ts.g, config.rho_dl),
        ul=ul_sinr(channels.h_ul, ts.w, omega, config.rho_ul,
                   si / config.alpha_anc),
        omega=omega)


class _Welford:
    """Streaming mean/variance accumulator (fixed accumulation order),
    elementwise over arrays of a fixed shape."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self, shape: tuple[int, ...] = ()) -> None:
        self.n = 0
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, x) -> None:
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    def ci95(self) -> np.ndarray:
        if self.n < 2:
            return np.full(self.mean.shape, math.nan)
        return 1.96 * np.sqrt(self.m2 / (self.n - 1) / self.n)


class Curve(NamedTuple):
    """One simulated curve of a sweep: a mode and its SI levels.

    si_snrs=None takes every point's default SI level (see
    monte_carlo_sweep); otherwise it holds one level per point, None for
    that point's default.  The half-duplex reference is SUBTRACTION at
    zero SI.
    """

    mode: SicMode
    si_snrs: Sequence[float | None] | None = None


#: Working-set budget of one chunk of trials.  A chunk's channels,
#: estimates and pseudo-inverse temporaries are alive together, so this
#: bounds what the engine adds to peak memory.
_CHUNK_BYTES = 1 << 20


def _chunk_trials(m: int, n: int, k: int) -> int:
    """Trials per chunk that keep the working set within _CHUNK_BYTES."""
    # Complex entries alive per trial at once: the true channels, the
    # estimates (downlink rows stacked over SI rows, uplink), the largest
    # pseudo-inverse's temporaries (for that (K + N) x M stack A: the Gram
    # G, G^-1 and the refinement residual, (K + N) x (K + N) each, and A^H
    # and the inverse, M x (K + N) each), and the SI estimation error of
    # subtraction.
    entries = (k * m + n * k + n * m) + ((k + n) * m + n * k) \
        + 3 * (k + n) * (k + n) + 2 * (k + n) * m + n * m
    return max(1, _CHUNK_BYTES // (16 * entries))


def _trial_chunks(draw, model: EstimationModel, si_scale, master_seed: int,
                  trials: int, m: int, n: int, k: int):
    """Draw and estimate trials 0 .. trials - 1 in chunks.

    Trial t draws its channels with draw(RngStream(master_seed, 2t)) and
    its estimation errors from substream 2t+1.  Yields, per chunk of at
    most _chunk_trials(m, n, k) trials, the stacked true channels h_dl,
    h_ul, h_si and estimates h_ext_hat (each downlink estimate over its SI
    estimate) and h_ul_hat.  They are views of buffers that the next
    chunk overwrites.
    """
    size = min(trials, _chunk_trials(m, n, k))
    h_dl = np.empty((size, k, m), dtype=complex)
    h_ul = np.empty((size, n, k), dtype=complex)
    h_si = np.empty((size, n, m), dtype=complex)
    h_ext_hat = np.empty((size, k + n, m), dtype=complex)
    h_ul_hat = np.empty((size, n, k), dtype=complex)
    for start in range(0, trials, size):
        c = min(size, trials - start)
        for i in range(c):
            t = start + i
            ch = draw(RngStream(master_seed, 2 * t))
            est = estimate(ch, model, RngStream(master_seed, 2 * t + 1),
                           si_error_scale=si_scale)
            h_dl[i], h_ul[i], h_si[i] = ch.h_dl, ch.h_ul, ch.h_si
            h_ext_hat[i, :k], h_ext_hat[i, k:] = est.h_dl_hat, est.h_si_hat
            h_ul_hat[i] = est.h_ul_hat
        yield h_dl[:c], h_ul[:c], h_si[:c], h_ext_hat[:c], h_ul_hat[:c]


def monte_carlo_curves(configs: Sequence[SystemConfig],
                       curves: Sequence[Curve], *, trials: int,
                       master_seed: int,
                       estimation: EstimationModel | None = None,
                       geometry: ArrayGeometry | None = None,
                       rician: RicianParams | None = None
                       ) -> list[list[RateReport]]:
    """Monte Carlo rates of several curves over shared operating points.

    The configs must agree on (M, N, K); they may differ in the SNR
    scalars.  Trial t draws its channels from substream 2t and its
    estimation errors from substream 2t+1 of master_seed, once for every
    curve and point (paired sampling / common random numbers).  Trials
    run in chunks: each chunk's transceivers are built once per distinct
    precoder, and its SINRs are evaluated for every curve and point in
    stacked arrays.  Returns one report per point for each curve; each is
    bit-identical to a one-curve call, to a one-point call, and for any
    chunk size.  A trial whose transceiver for a curve's mode cannot be
    built counts as a failure of that curve only; a curve with no
    successful trial reports NaN rates.
    """
    if trials < 1:
        raise ConfigError("trials must be positive")
    if not configs:
        raise ConfigError("at least one config is required")
    base = configs[0]
    for cfg in configs:
        if (cfg.M, cfg.N, cfg.K) != (base.M, base.N, base.K):
            raise ConfigError("sweep configs must share M, N, K")
    if (geometry is None) != (rician is None):
        raise ConfigError("geometry and rician must be given together")
    model = estimation if estimation is not None else EstimationModel()

    si_scale = None
    if geometry is not None:
        sampler = CorrelatedSampler(base, geometry, rician)
        draw = sampler.sample
        # Path gains replace the flat beta_si, so the SI term scales with
        # the raw transmit SNR; estimation error follows the local channel
        # power to keep the NMSE meaningful per element.
        si_scale = sampler.si_gains
        defaults = [cfg.rho_t for cfg in configs]
    else:
        def draw(stream: RngStream) -> ChannelRealization:
            return generate_iid(base, stream)
        defaults = [cfg.rho_si for cfg in configs]
    pref = []
    for curve in curves:
        if curve.si_snrs is None:
            levels = defaults
        elif len(curve.si_snrs) != len(configs):
            raise ConfigError("si_snrs must match configs")
        else:
            levels = [d if s is None else s
                      for s, d in zip(curve.si_snrs, defaults)]
        pref.append([s / cfg.alpha_anc for s, cfg in zip(levels, configs)])
    pref = np.array(pref)
    rho_dl = np.array([cfg.rho_dl for cfg in configs])
    rho_ul = np.array([cfg.rho_ul for cfg in configs])
    modes = {curve.mode for curve in curves}

    k = base.K
    acc = [_Welford((2, len(configs))) for _ in curves]
    failures = [0] * len(curves)
    for h_dl, h_ul, h_si, h_ext_hat, h_ul_hat in _trial_chunks(
            draw, model, si_scale, master_seed, trials, base.M, base.N, k):
        w, built = build_stack(modes, h_ext_hat, h_ul_hat)
        # Axes: trial, [curve,] point, user.  The downlink rates depend on
        # the precoder only, so each distinct one is evaluated once.
        dl_rates = {}
        omegas = {}
        for mode, (g, _) in built.items():
            if id(g) not in dl_rates:
                dl_rates[id(g)] = sum_rate(
                    dl_sinr(h_dl[:, None], g[:, None], rho_dl))
            omegas[mode] = residual_si(mode, w, h_si, h_ext_hat[:, k:], g)
        omega = np.stack([omegas[curve.mode] for curve in curves], axis=1)
        ul_rates = sum_rate(ul_sinr(h_ul[:, None, None], w[:, None, None],
                                    omega[:, :, None], rho_ul, pref))
        for q, curve in enumerate(curves):
            g, failed = built[curve.mode]
            rates = np.stack((dl_rates[id(g)], ul_rates[:, q]), axis=1)
            for i in range(len(rates)):
                if failed[i]:
                    failures[q] += 1
                else:
                    acc[q].add(rates[i])
    reports = []
    for a, failed in zip(acc, failures):
        # With no successful trial, Welford's initial zero is no rate.
        mean = a.mean if a.n else np.full_like(a.mean, math.nan)
        ci = a.ci95()
        reports.append([
            RateReport(dl_sum_rate=float(mean[0, j]),
                       ul_sum_rate=float(mean[1, j]),
                       dl_ci95=float(ci[0, j]), ul_ci95=float(ci[1, j]),
                       trials=trials, failures=failed)
            for j in range(len(configs))])
    return reports


def monte_carlo_sweep(configs: Sequence[SystemConfig], mode: SicMode, *,
                      trials: int, master_seed: int,
                      estimation: EstimationModel | None = None,
                      geometry: ArrayGeometry | None = None,
                      rician: RicianParams | None = None,
                      si_snrs: Sequence[float | None] | None = None
                      ) -> list[RateReport]:
    """Monte Carlo rates of one mode at several operating points.

    The one-curve case of monte_carlo_curves.  si_snrs overrides the
    linear received SI SNR per point (None entries keep the default): by
    default rho_si, or the raw transmit SNR rho_t under the correlated
    model, whose path gains are folded into the SI channel.  Each point's
    report is bit-identical to running monte_carlo on it alone with the
    same seed.
    """
    return monte_carlo_curves(
        configs, [Curve(mode, si_snrs)], trials=trials,
        master_seed=master_seed, estimation=estimation, geometry=geometry,
        rician=rician)[0]


def monte_carlo(config: SystemConfig, mode: SicMode, *, trials: int,
                master_seed: int,
                estimation: EstimationModel | None = None,
                geometry: ArrayGeometry | None = None,
                rician: RicianParams | None = None,
                si_snr: float | None = None) -> RateReport:
    """Monte Carlo ergodic sum rates for a single operating point.

    estimation=None means perfect CSI.  geometry together with rician
    switches on the correlated Rician channel model.
    """
    return monte_carlo_sweep(
        [config], mode, trials=trials, master_seed=master_seed,
        estimation=estimation, geometry=geometry, rician=rician,
        si_snrs=None if si_snr is None else [si_snr])[0]


def half_duplex_rate(config: SystemConfig,
                     rho_dl_linear: float | None = None) -> float:
    """Half-duplex baseline: half the perfect-CSI SI-subtraction rate.

    A half-duplex BS splits the resources between the two directions, and
    each direction then runs the same zero-forcing link with no SI at all.
    """
    point = closedform.rate_perfect(SicMode.SUBTRACTION, config,
                                    rho_dl=rho_dl_linear)
    return 0.5 * point.total
