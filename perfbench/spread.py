"""Run the benchmark several times and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--first-seed 100] [--workload W ...]
                                [--json OUT]

With --runs 1 it prints every workload's end-to-end metrics once.

Runs the BENCHMARK.json command once per seed (first-seed, first-seed+1,
...) on each workload, untraced, one run at a time.  For every end_to_end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread: the distance between the quartiles as a share of the
median, next to the metric's bound.  A spread over a third of the bound
is flagged, except for setup_s.  --json writes the same figures and the
environment block of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--json")
    args = parser.parse_args()
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    summary: dict = {"run_seconds": SPEC["run_seconds"],
                     "seeds": [args.first_seed,
                               args.first_seed + args.runs - 1],
                     "env": None, "workloads": {}}
    status = 0
    for name in names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*SPEC["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect\n{proc.stdout}",
                      file=sys.stderr)
                status = 1
            if summary["env"] is None:
                summary["env"] = json.loads(next(
                    line[4:] for line in proc.stdout.splitlines()
                    if line.startswith("env ")))
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        figures = summary["workloads"][name] = {}
        for metric in SPEC["end_to_end"]:
            vals = values[metric["name"]]
            if len(vals) == 1:
                print(f"{name:10s} {metric['name']:12s} {vals[0]:.6g} "
                      f"{metric['unit']}", flush=True)
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            steady = (metric["name"] == "setup_s"
                      or spread < metric["bound"] / 3)
            figures[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "runs": len(vals), "unit": metric["unit"]}
            print(f"{name:10s} {metric['name']:12s} median {med:.6g} "
                  f"{metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread "
                  f"{spread:.4f}  bound {metric['bound']}"
                  f"{'' if steady else '  NOT STEADY'}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=2) + "\n",
                                   encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
