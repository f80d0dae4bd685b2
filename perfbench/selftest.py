"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs the BENCHMARK.json command on every workload for one second, once
with tracing off and once on, and checks that:

* each run reports correct outputs and no failed operation (a traced run
  also compares its CSV byte for byte with the untraced repetitions);
* the result line has exactly the contract's keys, and its metrics are
  exactly the end_to_end (untraced) or per_layer (traced) metrics of
  BENCHMARK.json, each with its unit;
* in a directory holding only BENCHMARK.json and the benchmark's paths,
  the command exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace {trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append("outputs not correct or operations failed")
    if got != want:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(got.items()) ^ set(want.items()))}")
    if problems:
        sys.exit(f"{workload} trace {trace}: {'; '.join(problems)}\n"
                 f"{proc.stdout}")
    print(f"ok {workload} trace {trace}", flush=True)


def check_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT,
                                      prefix=".perfbench-selftest-") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        sys.exit(f"without the program: exit {proc.returncode}, "
                 f"stdout {proc.stdout!r}")
    print("ok without the program: exit", proc.returncode, flush=True)


def main() -> None:
    check_without_program()
    for workload in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(workload["name"], trace)


if __name__ == "__main__":
    main()
