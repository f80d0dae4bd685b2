#!/usr/bin/env python3
"""Regenerate the three standard sweep CSVs.

Writes fig-perfect.csv, fig-imperfect-si.csv, and fig-correlated.csv into
--outdir using the published defaults (64/20/10 antennas, seed 1).  Pass a
smaller --trials for a quick smoke run; the published curves use the
per-scenario defaults (10000 / 10000 / 5000).
"""

import argparse
import dataclasses
import os
import sys
import time

from fdmimo.channel import SystemConfig
from fdmimo.experiments import default_scenario, emit_csv, run_scenario

FIGURES = ("fig-perfect", "fig-imperfect-si", "fig-correlated")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures", metavar="DIR")
    ap.add_argument("--trials", type=int, default=None,
                    help="override every scenario's trial count")
    args = ap.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    config = SystemConfig()
    for name in FIGURES:
        scenario = default_scenario(name)
        if args.trials is not None:
            scenario = dataclasses.replace(scenario, trials=args.trials)
        t0 = time.perf_counter()
        rows = run_scenario(config, scenario,
                            progress=lambda msg: print(msg, file=sys.stderr))
        path = os.path.join(args.outdir, f"{name}.csv")
        emit_csv(rows, path)
        print(f"{path}: {len(rows)} rows in {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
