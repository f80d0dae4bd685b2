"""Byte-exact golden CSVs of the three named scenarios.

The files under tests/data/ were produced by

    fdmimo run --scenario NAME --modes nosic,stt,sps,hd --trials 50 \
        --seed 1 --output tests/data/golden-NAME.csv

Any change to the Monte Carlo engine, the transceivers, the closed forms or
the CSV rendering that moves a single output byte fails here.  Regenerate a
golden only for a deliberate change of results, and say why.
"""

from pathlib import Path

import pytest
import scipy.special

import fdmimo.channel as channel
import fdmimo.cli as cli

DATA = Path(__file__).parent / "data"


def _run_golden(scenario, tmp_path):
    out = tmp_path / f"{scenario}.csv"
    rc = cli.main(["run", "--scenario", scenario,
                   "--modes", "nosic,stt,sps,hd", "--trials", "50",
                   "--seed", "1", "--output", str(out)])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("scenario", ["fig-perfect", "fig-imperfect-si",
                                      "fig-correlated"])
def test_golden_csv_is_byte_identical(scenario, tmp_path):
    got = _run_golden(scenario, tmp_path)
    assert got == (DATA / f"golden-{scenario}.csv").read_bytes()


def test_correlated_golden_is_the_exact_j0_answer(monkeypatch, tmp_path):
    # the Jakes correlation through SciPy's J0 writes the same bytes, so
    # the golden carries no error of the package's own J0
    monkeypatch.setattr(channel, "bessel_j0", scipy.special.j0)
    got = _run_golden("fig-correlated", tmp_path)
    assert got == (DATA / "golden-fig-correlated.csv").read_bytes()
