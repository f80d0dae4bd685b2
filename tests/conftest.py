import numpy as np
import pytest

from fdmimo import metrics, transceiver
from fdmimo.channel import _channel_stack, generate_iid
from fdmimo.estimation import estimate
from fdmimo.numerics import Streams, _stream_width
from fdmimo.transceiver import build


def drawn_rows(seed, indices, shapes):
    """Rows of the standard normals that complex matrices of the given
    (rows, cols) shapes take from the substreams of seed with the given
    indices, one row per index, as the engine draws them."""
    rows = np.empty((len(indices), _stream_width(shapes)))
    Streams(seed).normals(indices, [rows])
    return rows


def drawn_trial(cfg, seed=0, variances=(0.0, 0.0, 0.0), t=0, sampler=None):
    """Trial t's true channels (h_dl, h_ul, h_si) and estimates
    (h_dl_hat, h_ul_hat, h_si_hat) on cfg with the given error variances,
    drawn as a stack of one trial from substreams 2t and 2t+1 of seed, as
    the engine draws it; a sampler's SI error is scaled by its path
    gains, as the correlated engine does."""
    truth = _channel_stack(cfg, 1)
    shapes = [h.shape[1:] for h in truth]
    fill = generate_iid if sampler is None else sampler.sample
    fill(drawn_rows(seed, [2 * t], shapes), *truth)
    hats = tuple(np.empty_like(h) for h in truth)
    drawn = [shape for shape, v in zip(shapes, variances) if v]
    estimate(variances, drawn_rows(seed, [2 * t + 1], drawn), truth, hats,
             None if sampler is None else sampler.si_amp)
    return tuple(h[0] for h in truth), tuple(h[0] for h in hats)


def one_draw_build(mode, hats):
    """One draw's precoder, combiner and failure flag for mode, built from
    its estimates (h_dl_hat, h_ul_hat, h_si_hat) as a stack of one draw."""
    dl, ul, si = hats
    w, built = build((mode,), np.vstack([dl, si])[None], ul[None])
    g, failed = built[mode]
    return g[0], w[0], bool(failed[0])


def with_rician(sampler, kappa, sigma_si):
    """The sampler with the LOS matrix and NLOS amplitude of Rician
    factor kappa and LOS amplitude sigma_si, set after construction."""
    cfg = sampler.config
    sampler._los = (np.sqrt(kappa / (kappa + 1.0)) * sigma_si
                    * np.ones((cfg.N, cfg.M)))
    sampler._nlos_amp = np.sqrt(1.0 / (kappa + 1.0))
    return sampler


def chunks_of(monkeypatch, size):
    """Make the engine draw and build chunks of size trials."""
    monkeypatch.setattr(metrics, "_chunk_trials", lambda m, n, k: size)


@pytest.fixture
def every_inverse_fails(monkeypatch):
    """Make both pseudo-inverses that transceiver.build takes mark every
    matrix failed, so every build fails."""
    for name in ("left_pseudo_inverse", "right_pseudo_inverse"):
        def failing(*args, real=getattr(transceiver, name), **kwargs):
            x, failed = real(*args, **kwargs)
            return x, np.ones_like(failed)

        monkeypatch.setattr(transceiver, name, failing)
