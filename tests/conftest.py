import numpy as np
import pytest

from fdmimo import transceiver
from fdmimo.numerics import Streams, _stream_width


def drawn_rows(seed, indices, shapes):
    """Rows of the standard normals that complex matrices of the given
    (rows, cols) shapes take from the substreams of seed with the given
    indices, one row per index, as the engine draws them."""
    rows = np.empty((len(indices), _stream_width(shapes)))
    Streams(seed).normals(indices, [rows])
    return rows


@pytest.fixture
def every_inverse_fails(monkeypatch):
    """Make both pseudo-inverses that transceiver.build takes mark every
    matrix failed, so every build fails."""
    for name in ("left_pseudo_inverse", "right_pseudo_inverse"):
        def failing(*args, real=getattr(transceiver, name), **kwargs):
            x, failed = real(*args, **kwargs)
            return x, np.ones_like(failed)

        monkeypatch.setattr(transceiver, name, failing)
