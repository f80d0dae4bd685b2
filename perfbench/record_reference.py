"""Record the reference bank that run.py checks sweep outputs against.

    python3 perfbench/record_reference.py [--workload NAME ...]

Writes reference/<workload>.json.gz, mapping each master seed to the config
text and the CSV the program produced for it.  Record only on a commit
whose outputs are trusted; a later change that must alter results beyond
the tolerance re-records and says why.  The script also checks, for every
row, that the comparison tolerance is at least twice the CSV's 6-digit
rounding step, and that the check workload passes all criteria at every
master seed.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import io
import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
os.environ["PYTHONPATH"] = str(HERE.parent / "src")  # criterion 9's runs

from worker import (CI_SHARE_TOL, check_job, compare_csv,  # noqa: E402
                    import_program, reference_problems, sweep_job)
from workloads import REFERENCE_SEEDS, WORKLOADS  # noqa: E402


def rounding_step(text: str) -> float:
    value = abs(float(text))
    return 0.0 if value == 0.0 else 10.0 ** (math.floor(math.log10(value)) - 5)


def resolvable(csv_text: str) -> list[str]:
    """Rows whose tolerance the CSV's rounding could exceed."""
    bad = []
    for i, row in enumerate(csv.DictReader(io.StringIO(csv_text)), start=1):
        for sim in ("dl_sim", "ul_sim"):
            tol = CI_SHARE_TOL * float(row[sim + "_ci"])
            for key in (sim, sim + "_ci"):
                if tol < 2.0 * rounding_step(row[key]):
                    bad.append(f"row {i} {key} {row[key]}: tolerance "
                               f"{tol:.3g}")
    return bad


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    program = import_program()
    status = 0
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        bank = {}
        for seed in range(REFERENCE_SEEDS):
            text = workload.config_text(seed)
            config, scenario = program.parse_config(text)
            if workload.kind == "check":
                problems = reference_problems(
                    workload, seed, check_job(program, config, scenario, None))
                print(f"{name} master_seed {scenario.master_seed}: "
                      f"{'ok' if not problems else problems}", flush=True)
                status |= bool(problems)
                continue
            output = sweep_job(program, config, scenario, None)
            # Comparing the output with itself flags empty or NaN rates.
            problems = resolvable(output) + compare_csv(output, output)
            if problems:
                print(f"{name} master_seed {scenario.master_seed}: "
                      f"{problems}", flush=True)
                status = 1
            bank[str(scenario.master_seed)] = {"config": text, "csv": output}
        if workload.kind == "sweep":
            path = HERE / "reference" / f"{name}.json.gz"
            with gzip.GzipFile(path, "wb", mtime=0) as fh:
                fh.write(json.dumps(bank, indent=0, sort_keys=True).encode())
            print(f"wrote {path.relative_to(HERE.parent)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
