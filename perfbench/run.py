"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload iid-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Each measurement happens in a
fresh interpreter with BLAS pinned to one thread, one process at a time:

* ``--trace 0``: set-up probes (``import fdmimo`` plus config resolution,
  median of SETUP_PROBES interpreters), then one worker that repeats the
  workload's job for ``--seconds`` and reports wall_s, trial_ms and
  peak_rss_mb.
* ``--trace 1``: one worker that alternates untraced and traced
  repetitions and reports the per-layer metrics (see README.md).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The lines before it repeat the metrics readably, give
failed_frac and the environment block.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
DEADLINE_S = 170.0

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # Bytecode is cached inside the checkout, for every module imported,
    # so set-up time does not depend on the caches of the installation.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               PYTHONPYCACHEPREFIX=str(ROOT / ".bench_build" / "pycache"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_worker(argv: list[str], timeout: float) -> dict:
    """Run worker.py in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
        env=worker_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"worker {' '.join(argv)} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker {' '.join(argv)} exited with code "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, when it is a git repository of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Run one fdmimo benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fdmimo" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'fdmimo'}",
              file=sys.stderr)
        return 2

    start = monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup_s = None
    if not args.trace:
        # The first probe also writes the bytecode cache; it is discarded.
        probes = [run_worker(["setup", *common], DEADLINE_S)["setup_s"]
                  for _ in range(SETUP_PROBES + 1)][1:]
        setup_s = statistics.median(probes)
    result = run_worker(
        ["run", *common, "--seconds", str(args.seconds),
         "--trace", str(args.trace)],
        DEADLINE_S - (monotonic() - start))

    metrics = dict(result["metrics"])
    measured = result["measured"]
    if setup_s is not None:
        # The probes ran just before the worker; its kernel times give the
        # machine speed for them too.
        metrics["setup_s"] = (setup_s * result["speed_factor"], "s")
        measured["setup_s"] = setup_s
    env = dict(result["env"], git_commit=git_commit())
    attempted, failed = result["attempted"], result["failed"]

    print(f"workload {args.workload}: seed {args.seed} -> master_seed "
          f"{result['master_seed']}, {result['repetitions']} timed "
          f"repetitions of {result['trials']} trials")
    for name, (value, unit) in metrics.items():
        raw = (f" (measured {measured[name]:.6g} {unit})"
               if name in measured else "")
        print(f"  {name} = {value:.6g} {unit}{raw}")
    if "calibration_s" in measured:
        print(f"  calibration kernel = {measured['calibration_s']:.6g} s, "
              f"speed factor {result['speed_factor']:.6g}")
    print(f"  failed_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    for problem in result["problems"]:
        print(f"  output check: {problem}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
