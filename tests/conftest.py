import numpy as np
import pytest

from fdmimo import transceiver


@pytest.fixture
def every_inverse_fails(monkeypatch):
    """Make both pseudo-inverses that transceiver.build takes mark every
    matrix failed, so every build fails."""
    for name in ("left_pseudo_inverse", "right_pseudo_inverse"):
        def failing(*args, real=getattr(transceiver, name), **kwargs):
            x, failed = real(*args, **kwargs)
            return x, np.ones_like(failed)

        monkeypatch.setattr(transceiver, name, failing)
