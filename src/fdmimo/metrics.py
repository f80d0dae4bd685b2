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
import queue
import threading
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import (ConfigError, CorrelatedSampler, SystemConfig,
                      _channel_stack, check_correlated_snrs, generate_iid)
from .estimation import error_variances, estimate
from .numerics import Streams, Workspace, _stream_width
from .transceiver import SicMode, build

#: Least SI NMSE at which the correlated model sets the SPS rate (README).
_SPS_MIN_NMSE = 1e-12


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
    elementwise over arrays of a fixed shape, with a count per element."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self, shape: tuple[int, ...] = ()) -> None:
        self.n = np.zeros(shape, dtype=np.int64)
        self.mean = np.zeros(shape)
        self.m2 = np.zeros(shape)

    def add(self, x, where=True) -> None:
        """Add the sample x to the elements that where selects.  The others
        take their own mean in place of x, so that, whatever x holds
        there, their update adds zeros and changes no bit."""
        self.n += where
        x = np.where(where, x, self.mean)
        delta = x - self.mean
        self.mean += delta / np.maximum(self.n, 1)
        self.m2 += delta * (x - self.mean)

    def ci95(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            half = 1.96 * np.sqrt(self.m2 / (self.n - 1) / self.n)
        return np.where(self.n < 2, math.nan, half)


class Curve(NamedTuple):
    """One simulated curve of a sweep: a mode and its SI level.

    The SI level is the linear received SI SNR of each point: rho_si, or
    under the correlated model, whose path gains are folded into the SI
    channel, the raw transmit SNR rho_t.  si_free=True sets it to zero at
    every point; the half-duplex reference is SUBTRACTION with si_free.
    """

    mode: SicMode
    si_free: bool = False


#: Working-set budget of one chunk of trials, 2.625 MiB.  A chunk's drawn
#: normals, channels and estimates and the workspace that build writes
#: into are allocated once per run and reused by every chunk, so this
#: bounds what the engine adds to peak memory.
_CHUNK_BYTES = 21 << 17


def _chunk_trials(m: int, n: int, k: int) -> int:
    """Trials per chunk that keep the working set within _CHUNK_BYTES."""
    # Complex entries per trial of the buffers a chunk holds, two drawn
    # normals counting as one: the row buffer of drawn normals (the
    # channel stream and an error stream at most as wide); the true
    # channels; the estimates (downlink rows stacked over SI rows,
    # uplink); each pseudo-inverse's kept columns X (the combiner's
    # N x K, the zero-forcing and the suppression precoder's M x K); and
    # the temporaries the three share, which the suppression pseudo-inverse
    # sizes (for its (K + N) x M input A: conj(A), (K + N) x M, the Gram G
    # and the G^-1 that np.linalg.inv returns, (K + N) x (K + N) each,
    # E_K - A X and G^-1 (E_K - A X), (K + N) x K each, and
    # A^H G^-1 (E_K - A X), M x K).  The SINR evaluation's temporaries,
    # such as subtraction's SI estimation error, are left out.  At
    # 64/20/10 that makes 11 trials, whose buffers hold 2.50 MiB: 0.71 MiB
    # of drawn normals and 1.08 MiB of workspace.
    entries = 2 * (k * m + n * k + n * m) \
        + (k * m + n * k + n * m) + ((k + n) * m + n * k) \
        + (n * k + 2 * m * k) \
        + ((k + n) * m + 2 * (k + n) * (k + n) + 2 * (k + n) * k + m * k)
    return max(1, _CHUNK_BYTES // (16 * entries))


def _trial_chunks(config: SystemConfig, perfect: bool, master_seed: int,
                  trials: range, modes,
                  sampler: CorrelatedSampler | None = None):
    """Draw, estimate and build the given trials in chunks.

    Trial t draws its channels from substream 2t of master_seed, i.i.d.
    or, with a sampler, correlated Rician, and the estimation errors of
    error_variances(config, perfect) from substream 2t+1, each stream in
    one call; perfect CSI draws no error stream.  The master seed is
    mixed once per call, and a chunk's streams are drawn in one
    Streams.normals call, which derives their keys together, into one
    row buffer: the chunk's channel rows, then its error rows.  A helper
    thread draws one chunk ahead.  It takes each chunk's trial range
    from one queue and puts the chunk's rows, or what its draw raised, on
    another; the next chunk's range goes in as soon as this chunk's rows
    are filled and estimated, so the thread draws while this one builds
    the chunk and its caller evaluates it.  The thread only draws, so the
    fills, the estimates and the builds all run on the calling thread;
    what a draw raised is raised here, and the thread is joined on every
    exit of this generator, closed early or raising included.
    Yields, per chunk of at most _chunk_trials(M, N, K) trials, the
    chunk's trial indices, the stacked true channels h_dl, h_ul, h_si,
    the estimates h_ext_hat (each downlink estimate over its SI estimate)
    and h_ul_hat, and what build returns for the modes.  A chunk is one
    generate_iid or CorrelatedSampler.sample call, one estimate call and
    one build call on the chunk's drawn rows, whose values depend on each
    trial's streams alone, where a sampler's SI error is scaled by its
    path-gain amplitude; nothing depends on when the rows were drawn.
    Every yielded array is a view of a buffer, one set per call of this
    generator, that the next chunk overwrites.
    """
    m, n, k = config.M, config.N, config.K
    # The SI estimation error follows the local channel power, to keep
    # the NMSE meaningful per element.
    si_amp = None if sampler is None else sampler.si_amp
    variances = error_variances(config, perfect)
    shapes = [(k, m), (n, k), (n, m)]
    channel_width = _stream_width(shapes)
    error_width = _stream_width([s for s, v in zip(shapes, variances) if v])
    size = max(1, min(len(trials), _chunk_trials(m, n, k)))
    chunks = [trials[start:start + size]
              for start in range(0, len(trials), size)]
    h_dl, h_ul, h_si = _channel_stack(config, size)
    h_ext_hat = np.empty((size, k + n, m), dtype=complex)
    h_ul_hat = np.empty((size, n, k), dtype=complex)
    workspace = Workspace()
    rows = np.empty(size * (channel_width + error_width))
    streams = Streams(master_seed)
    ranges, drawn = queue.SimpleQueue(), queue.SimpleQueue()

    def draw() -> None:
        for chunk in iter(ranges.get, None):
            c = len(chunk)
            views = [rows[:c * channel_width].reshape(c, channel_width),
                     rows[c * channel_width:][:c * error_width]
                     .reshape(c, error_width)]
            # The channel streams 2t, then any error streams 2t + 1.
            indices = [2 * t for t in chunk]
            if error_width:
                indices += [2 * t + 1 for t in chunk]
            try:
                streams.normals(indices, views)
            except BaseException as exc:    # raised in the caller
                drawn.put(exc)
            else:
                drawn.put(views)

    thread = threading.Thread(target=draw, daemon=True)
    thread.start()
    try:
        pending = iter(chunks)
        ranges.put(next(pending, None))
        for chunk in chunks:
            result = drawn.get()
            if isinstance(result, BaseException):
                raise result
            channel_rows, error_rows = result
            c = len(chunk)
            channels = (h_dl[:c], h_ul[:c], h_si[:c])
            estimates = (h_ext_hat[:c, :k], h_ul_hat[:c], h_ext_hat[:c, k:])
            if sampler is None:
                generate_iid(channel_rows, *channels)
            else:
                # The estimates' buffers are free until estimate writes them.
                sampler.sample(channel_rows, *channels, scratch=estimates)
            estimate(variances, error_rows, channels, estimates, si_amp)
            ranges.put(next(pending, None))
            hats = (h_ext_hat[:c], h_ul_hat[:c])
            yield (chunk, *channels, *hats, *build(modes, *hats, workspace))
    finally:
        ranges.put(None)
        thread.join()


def monte_carlo_sweep(configs: Sequence[SystemConfig],
                      curves: Sequence[Curve], *, trials: int,
                      master_seed: int, perfect: bool = True,
                      sampler: CorrelatedSampler | None = None
                      ) -> list[list[RateReport]]:
    """Monte Carlo rates of several curves over shared operating points.

    The configs, and a correlated sampler's config, must agree on
    (M, N, K); they may differ in the SNR scalars, but under imperfect
    CSI (perfect=False) not in rho_ul_db or nmse, which set the
    estimation errors.  Trial t draws its channels from substream 2t and
    its estimation errors from substream 2t+1 of master_seed, once for
    every curve and point (paired sampling / common random numbers).
    Trials run in chunks: each chunk's transceivers are built once per
    distinct precoder, and its SINRs are evaluated for every curve and
    point in stacked arrays.  Returns one
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
    if not perfect and any((cfg.rho_ul_db, cfg.nmse)
                           != (base.rho_ul_db, base.nmse) for cfg in configs):
        raise ConfigError("imperfect-CSI sweep configs must share "
                          "rho_ul_db and nmse")

    modes = {curve.mode for curve in curves}
    if sampler is not None:
        if SicMode.SPATIAL_SUPPRESSION in modes and (
                perfect or base.nmse < _SPS_MIN_NMSE):
            raise ConfigError(f"sps under the correlated model needs "
                              f"imperfect CSI with nmse >= {_SPS_MIN_NMSE:g}: "
                              f"below it the rate is not determined")
        # Path gains replace the flat beta_si, so the SI term scales with
        # the raw transmit SNR.
        levels = [cfg.rho_t for cfg in configs]
        for cfg in configs:
            check_correlated_snrs(cfg)
    else:
        levels = [cfg.rho_si for cfg in configs]
    pref = np.array([[0.0 if curve.si_free else s / cfg.alpha_anc
                      for s, cfg in zip(levels, configs)]
                     for curve in curves])
    rho_dl = np.array([cfg.rho_dl for cfg in configs])
    rho_ul = np.array([cfg.rho_ul for cfg in configs])

    k = base.K
    # Axes: curve, (dl, ul), point.
    acc = _Welford((len(curves), 2, len(configs)))
    for _, h_dl, h_ul, h_si, h_ext_hat, _, w, built in _trial_chunks(
            base, perfect, master_seed, range(trials), modes, sampler):
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
        dl = np.stack([dl_rates[id(built[curve.mode][0])]
                       for curve in curves], axis=1)
        rates = np.stack((dl, ul_rates), axis=2)
        ok = ~np.stack([built[curve.mode][1] for curve in curves], axis=1)
        for i in range(len(rates)):
            acc.add(rates[i], ok[i, :, None, None])
    # With no successful trial, Welford's initial zero is no rate.
    mean = np.where(acc.n > 0, acc.mean, math.nan)
    ci = acc.ci95()
    return [[RateReport(dl_sum_rate=float(mean[q, 0, j]),
                        ul_sum_rate=float(mean[q, 1, j]),
                        dl_ci95=float(ci[q, 0, j]), ul_ci95=float(ci[q, 1, j]),
                        trials=trials, failures=trials - int(acc.n[q, 0, 0]))
             for j in range(len(configs))]
            for q in range(len(curves))]


def monte_carlo(config: SystemConfig, mode: SicMode, *, trials: int,
                master_seed: int, perfect: bool = True,
                sampler: CorrelatedSampler | None = None) -> RateReport:
    """Monte Carlo ergodic sum rates for a single operating point.

    The one-point, one-curve call of monte_carlo_sweep, at the point's
    SI level, with imperfect CSI for perfect=False and the correlated
    Rician channel model for a sampler.
    """
    return monte_carlo_sweep(
        [config], [Curve(mode)], trials=trials, master_seed=master_seed,
        perfect=perfect, sampler=sampler)[0][0]
