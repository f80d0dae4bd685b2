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

from .channel import (ConfigError, CorrelatedSampler, SystemConfig,
                      _channel_stack, generate_iid)
from .estimation import EstimationModel, estimate
from .numerics import RngStream, Workspace
from .transceiver import SicMode, build


@dataclass(frozen=True)
class RateReport:
    """Monte Carlo estimate of the ergodic sum rates for one operating point."""

    dl_sum_rate: float
    ul_sum_rate: float
    dl_ci95: float
    ul_ci95: float
    trials: int
    failures: int


def _signal_and_interference(p: np.ndarray):
    """Per-user signal powers (the diagonal of the power matrices p) and
    interference powers (the off-diagonal row sums); p is overwritten."""
    users = np.arange(p.shape[-1])
    sig = p[..., users, users]
    p[..., users, users] = 0.0
    return sig, p.sum(axis=-1)


def dl_sinr(h_dl_true: np.ndarray, g: np.ndarray, rho_dl) -> np.ndarray:
    """Per-user downlink SINRs against the true channel.

    Leading axes of h_dl_true and g broadcast as in a matrix product, and
    rho_dl may be an array broadcasting against them; users stay last.
    """
    sig, intf = _signal_and_interference(np.abs(h_dl_true @ g) ** 2)
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
    sig, intf = _signal_and_interference(np.abs(w @ h_ul_true) ** 2)
    noise = np.sum(np.abs(w) ** 2, axis=-1)
    rho = np.expand_dims(rho_ul, -1)
    pref = np.expand_dims(si_level, -1)
    return rho * sig / (rho * intf + pref * omega + noise)


def sum_rate(sinrs: np.ndarray):
    """Sum of log2(1 + sinr) over users (the last axis), in bps/Hz."""
    return np.sum(np.log2(1.0 + np.asarray(sinrs)), axis=-1)


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
    """One simulated curve of a sweep: a mode and its SI level.

    The SI level is the linear received SI SNR of each point: rho_si, or
    under the correlated model, whose path gains are folded into the SI
    channel, the raw transmit SNR rho_t.  si_free=True sets it to zero at
    every point; the half-duplex reference is SUBTRACTION with si_free.
    """

    mode: SicMode
    si_free: bool = False


#: Working-set budget of one chunk of trials.  A chunk's channels and
#: estimates and the workspace that build writes into are allocated once
#: per run and reused by every chunk, so this bounds what the engine adds
#: to peak memory.
_CHUNK_BYTES = 1 << 20


def _chunk_trials(m: int, n: int, k: int) -> int:
    """Trials per chunk that keep the working set within _CHUNK_BYTES."""
    # Complex entries per trial: the true channels, the estimates
    # (downlink rows stacked over SI rows, uplink), the largest buffers
    # of the workspace, which are the suppression pseudo-inverse's (for
    # its (K + N) x M input A: conj(A) and the inverse X, M x (K + N)
    # each, and the Gram G and I - A X, (K + N) x (K + N) each), the G^-1
    # that np.linalg.inv returns, and the SI estimation error of
    # subtraction.  The workspace's other buffers are left out: the
    # correction product X (I - A X), the combiner's and the zero-forcing
    # precoder's buffers and the normalized precoders.  At 64/20/10 that
    # makes 5 trials, whose buffers hold 1.22 MiB, 0.90 MiB of it the
    # workspace.
    entries = (k * m + n * k + n * m) + ((k + n) * m + n * k) \
        + 3 * (k + n) * (k + n) + 2 * (k + n) * m + n * m
    return max(1, _CHUNK_BYTES // (16 * entries))


def _trial_chunks(config: SystemConfig, model: EstimationModel,
                  master_seed: int, trials: range,
                  sampler: CorrelatedSampler | None = None):
    """Draw and estimate the given trials in chunks.

    Trial t draws its channels from substream 2t of master_seed, i.i.d.
    or, with a sampler, correlated Rician, and its estimation errors from
    substream 2t+1, each stream in one call.  Yields, per chunk of at most
    _chunk_trials(M, N, K) trials, the chunk's trial indices, the stacked
    true channels h_dl, h_ul, h_si and estimates h_ext_hat (each downlink
    estimate over its SI estimate) and h_ul_hat.
    A chunk is one generate_iid or CorrelatedSampler.sample call and one
    estimate call, whose values depend on each trial's streams alone,
    where a sampler's SI error is scaled by its path-gain amplitude.
    Each chunk also carries the workspace that the caller passes to
    build, one per call of this generator.  The arrays, and build's
    combiners and precoders made in that workspace, are views of buffers
    that the next chunk overwrites.
    """
    m, n, k = config.M, config.N, config.K
    if sampler is None:
        fill, si_amp = generate_iid, None
    else:
        # The SI estimation error follows the local channel power, to keep
        # the NMSE meaningful per element.
        fill, si_amp = sampler.sample, sampler.si_amp
    size = max(1, min(len(trials), _chunk_trials(m, n, k)))
    h_dl, h_ul, h_si = _channel_stack(config, size)
    h_ext_hat = np.empty((size, k + n, m), dtype=complex)
    h_ul_hat = np.empty((size, n, k), dtype=complex)
    workspace = Workspace()
    for start in range(0, len(trials), size):
        chunk = trials[start:start + size]
        c = len(chunk)
        channels = (h_dl[:c], h_ul[:c], h_si[:c])
        fill([RngStream(master_seed, 2 * t) for t in chunk], *channels)
        estimate(model, [RngStream(master_seed, 2 * t + 1) for t in chunk],
                 channels, (h_ext_hat[:c, :k], h_ul_hat[:c],
                            h_ext_hat[:c, k:]), si_amp)
        yield (chunk, *channels, h_ext_hat[:c], h_ul_hat[:c], workspace)


def monte_carlo_sweep(configs: Sequence[SystemConfig],
                      curves: Sequence[Curve], *, trials: int,
                      master_seed: int,
                      estimation: EstimationModel | None = None,
                      sampler: CorrelatedSampler | None = None
                      ) -> list[list[RateReport]]:
    """Monte Carlo rates of several curves over shared operating points.

    The configs, and a correlated sampler's config, must agree on
    (M, N, K); they may differ in the SNR scalars.  Trial t draws its
    channels from substream 2t and its estimation errors from substream
    2t+1 of master_seed, once for every curve and point (paired sampling /
    common random numbers).  Trials run in chunks: each chunk's
    transceivers are built once per distinct precoder, and its SINRs are
    evaluated for every curve and point in stacked arrays.  Returns one
    report per point for each curve; each is bit-identical to a one-curve
    call, to a one-point call, and for any chunk size.  A trial whose
    transceiver for a curve's mode cannot be built counts as a failure of
    that curve only; a curve with no successful trial reports NaN rates.
    """
    if trials < 1:
        raise ConfigError("trials must be positive")
    if not configs:
        raise ConfigError("at least one config is required")
    if not curves:
        raise ConfigError("at least one curve is required")
    base = configs[0]
    for cfg in [*configs, *([] if sampler is None else [sampler.config])]:
        if (cfg.M, cfg.N, cfg.K) != (base.M, base.N, base.K):
            raise ConfigError("sweep configs must share M, N, K")
    model = estimation if estimation is not None else EstimationModel()

    if sampler is not None:
        # Path gains replace the flat beta_si, so the SI term scales with
        # the raw transmit SNR.
        levels = [cfg.rho_t for cfg in configs]
        for cfg in configs:
            sampler.check_si_snr(cfg)
    else:
        levels = [cfg.rho_si for cfg in configs]
    pref = np.array([[0.0 if curve.si_free else s / cfg.alpha_anc
                      for s, cfg in zip(levels, configs)]
                     for curve in curves])
    rho_dl = np.array([cfg.rho_dl for cfg in configs])
    rho_ul = np.array([cfg.rho_ul for cfg in configs])
    modes = {curve.mode for curve in curves}

    k = base.K
    acc = [_Welford((2, len(configs))) for _ in curves]
    failures = [0] * len(curves)
    for _, h_dl, h_ul, h_si, h_ext_hat, h_ul_hat, workspace in _trial_chunks(
            base, model, master_seed, range(trials), sampler):
        w, built = build(modes, h_ext_hat, h_ul_hat, workspace)
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


def monte_carlo(config: SystemConfig, mode: SicMode, *, trials: int,
                master_seed: int,
                estimation: EstimationModel | None = None,
                sampler: CorrelatedSampler | None = None) -> RateReport:
    """Monte Carlo ergodic sum rates for a single operating point.

    The one-point, one-curve call of monte_carlo_sweep, at the point's
    SI level.  estimation=None means perfect CSI; a sampler switches on
    its correlated Rician channel model.
    """
    return monte_carlo_sweep(
        [config], [Curve(mode)], trials=trials, master_seed=master_seed,
        estimation=estimation, sampler=sampler)[0][0]
