"""Benchmark worker: times one workload in a fresh interpreter.

    python3 perfbench/worker.py setup --workload NAME --seed N
    python3 perfbench/worker.py run --workload NAME --seed N --seconds S --trace 0|1

``run.py`` starts it with the program's ``src`` directory as PYTHONPATH and
BLAS pinned to one thread.  The last line of stdout is one JSON object.

``setup`` times ``import fdmimo`` plus config resolution.  ``run`` does one
untimed warm-up repetition of the workload's job, then repeats the job for
``--seconds``.  With ``--trace 0`` no wrapper is installed, and the
calibration kernel (calibration.py) is timed before the first repetition,
at the job's pause points and after each repetition, to express times in
reference seconds.  With
``--trace 1`` repetitions alternate between untraced and traced, so the
tracing overhead is measured in the same process; times stay raw.
Every repetition's output is checked: a sweep CSV against the reference
bank and against the first repetition byte for byte, the acceptance suite
for all criteria passing.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: A simulated rate or CI may differ from the reference by this share of
#: the reference row's CI95 half-width.  Far below the statistical error,
#: far above last-bit kernel changes and the CSV's 6-digit rounding (which
#: record_reference.py checks for every row).
CI_SHARE_TOL = 0.01
#: Closed forms have no CI; they may differ by this relative amount.
CLOSED_FORM_REL_TOL = 1e-5
#: fdmimo check has nine criteria.
CRITERIA = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_program():
    """Import fdmimo, insisting that it comes from this checkout."""
    program = importlib.import_module("fdmimo")
    origin = Path(program.__file__).resolve()
    if not origin.is_relative_to(ROOT / "src"):
        raise SystemExit(f"fdmimo imported from {origin}, not from "
                         f"{ROOT / 'src'}")
    return program


# A job takes a tracer (None: untraced) and a pause callback (None: no
# calibration), which it calls between steps that do not belong to its
# timed work: a sweep before each mode, the acceptance suite after each
# criterion.

def sweep_job(program, config, scenario, tracer, pause):
    if tracer is None:
        progress = None if pause is None else (lambda _line: pause())
        return program.render_csv(
            program.run_scenario(config, scenario, progress=progress))
    rows = tracer.call("experiments.run_scenario", program.run_scenario,
                       config, scenario)
    return tracer.call("experiments.render_csv", program.render_csv, rows)


def check_job(program, config, scenario, tracer, pause):
    """Acceptance suite; each criterion is the span between two reports."""
    acceptance = importlib.import_module("fdmimo.acceptance")
    lines: list[str] = []

    def report(line: str) -> None:
        lines.append(line)
        if pause is not None:
            pause()
        if tracer is not None:
            tracer.exit()
            if len(lines) < CRITERIA:
                tracer.enter(f"acceptance.c{len(lines) + 1}")

    if tracer is not None:
        tracer.enter("acceptance.c1")
    acceptance.run_all(base_trials=scenario.trials,
                       seed=scenario.master_seed, config=config,
                       report=report)
    return "\n".join(lines) + "\n"


def _float_or_none(text: str) -> float | None:
    if text == "":
        return None
    value = float(text)
    return value if math.isfinite(value) else None


def compare_csv(got_text: str, want_text: str) -> list[str]:
    """Differences between a sweep CSV and its reference, within tolerance."""
    got = list(csv.DictReader(io.StringIO(got_text)))
    want = list(csv.DictReader(io.StringIO(want_text)))
    if got_text.split("\n", 1)[0] != want_text.split("\n", 1)[0]:
        return ["CSV header differs from the reference"]
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    problems = []
    for i, (g, w) in enumerate(zip(got, want), start=1):
        for key in ("scenario", "mode", "x_db", "trials", "failures"):
            if g[key] != w[key]:
                problems.append(f"row {i} {key}: {g[key]!r} != {w[key]!r}")
        for key in ("dl_cf", "ul_cf"):
            a, b = _float_or_none(g[key]), _float_or_none(w[key])
            if (a is None) != (b is None) or (
                    a is not None
                    and not math.isclose(a, b, rel_tol=CLOSED_FORM_REL_TOL)):
                problems.append(f"row {i} {key}: {g[key]!r} != {w[key]!r}")
        for sim in ("dl_sim", "ul_sim"):
            tol = CI_SHARE_TOL * float(w[sim + "_ci"])
            for key in (sim, sim + "_ci"):
                value = _float_or_none(g[key])
                if value is None:
                    problems.append(f"row {i} {key} is empty or NaN")
                elif abs(value - float(w[key])) > tol:
                    problems.append(f"row {i} {key}: {g[key]} vs reference "
                                    f"{w[key]}, tolerance {tol:.3g}")
    return problems


def reference_problems(workload, seed: int, output: str) -> list[str]:
    if workload.kind == "check":
        passed = sum(line.startswith("PASS ") for line in output.splitlines())
        return [] if passed == CRITERIA else [
            f"{passed} of {CRITERIA} criteria passed:\n{output}"]
    path = REFERENCE_DIR / f"{workload.name}.json.gz"
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        bank = json.load(fh)
    entry = bank.get(str(workload.master_seed(seed)))
    if entry is None or entry["config"] != workload.config_text(seed):
        return [f"{path.name} holds no reference for this config"]
    return compare_csv(output, entry["csv"])


def tally(workload, output: str) -> tuple[int, int]:
    """(attempted, failed) program operations in one repetition's output.

    A sweep attempts one trial per mode (the CSV repeats a mode's trial and
    failure counts on every row); the acceptance suite attempts CRITERIA.
    """
    if workload.kind == "check":
        lines = output.splitlines()
        passed = sum(line.startswith("PASS ") for line in lines)
        return CRITERIA, CRITERIA - passed
    per_mode = {row["mode"]: (int(row["trials"]), int(row["failures"]))
                for row in csv.DictReader(io.StringIO(output))}
    return (sum(t for t, _ in per_mode.values()),
            sum(f for _, f in per_mode.values()))


def environment(program) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "fdmimo": program.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(tracer: Tracer, reps: int, trials: int,
                  traced_walls: list[float], walls: list[float],
                  csv_bytes: int
                  ) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-repetition means of the traced repetitions' span aggregates.

    Every ``*_s`` value is self time.  metrics.self_s is the metrics
    layer's total (sweep loop plus sum_rate); the other ``*_s`` values plus
    trace.unattributed_s add up to trace.wall_s, provided every span name
    has a metric: the second return value lists those that have none.
    """
    reported: set[str] = set()

    def self_s(name):
        reported.add(name)
        return tracer.self_s.get(name, 0.0) / reps

    def calls(name):
        return tracer.calls.get(name, 0) / reps

    m = {
        "numerics.generator_calls": (calls("numerics.generator"), "count"),
        "numerics.generator_s": (self_s("numerics.generator"), "s"),
        "numerics.pinv_calls": (calls("numerics.pinv"), "count"),
        "numerics.pinv_s": (self_s("numerics.pinv"), "s"),
        "numerics.pinv_bytes": (tracer.pinv_bytes / reps, "computed_bytes"),
        "channel.draw_calls": (calls("channel.draw"), "count"),
        "channel.draw_s": (self_s("channel.draw"), "s"),
        "channel.draws_per_trial": (calls("channel.draw") / trials, "count"),
        "estimation.estimate_calls": (calls("estimation.estimate"), "count"),
        "estimation.estimate_s": (self_s("estimation.estimate"), "s"),
        "transceiver.build_calls": (calls("transceiver.build"), "count"),
        "transceiver.build_s": (self_s("transceiver.build"), "s"),
        "transceiver.builds_per_trial": (
            calls("transceiver.build") / trials, "count"),
        "transceiver.failures": (
            tracer.failures.get("transceiver.build", 0) / reps, "count"),
        "metrics.sweep_calls": (calls("metrics.sweep"), "count"),
        "metrics.sweep_s": (self_s("metrics.sweep"), "s"),
        "metrics.self_s": (
            self_s("metrics.sweep") + self_s("metrics.sum_rate"), "s"),
        "metrics.sum_rate_calls": (calls("metrics.sum_rate"), "count"),
        "metrics.sum_rate_s": (self_s("metrics.sum_rate"), "s"),
        "closedform.calls": (calls("closedform"), "count"),
        "closedform.s": (self_s("closedform"), "s"),
        "experiments.self_s": (self_s("experiments.run_scenario"), "s"),
        "experiments.render_csv_s": (self_s("experiments.render_csv"), "s"),
        "experiments.csv_bytes": (csv_bytes, "bytes"),
    }
    for i in range(1, CRITERIA + 1):
        m[f"acceptance.c{i}_s"] = (self_s(f"acceptance.c{i}"), "s")
    wall = sum(traced_walls) / reps
    m["trace.wall_s"] = (wall, "s")
    m["trace.unattributed_s"] = (
        wall - sum(tracer.self_s.values()) / reps, "s")
    m["trace.overhead_frac"] = (
        statistics.median(traced_walls) / statistics.median(walls) - 1.0,
        "ratio")
    return m, sorted(set(tracer.self_s) - reported)


def run(args) -> dict:
    # Imported here: it imports NumPy, which set-up probes must time.
    from calibration import REFERENCE_S, Kernel

    workload = WORKLOADS[args.workload]
    program = import_program()
    config, scenario = program.parse_config(workload.config_text(args.seed))
    job = sweep_job if workload.kind == "sweep" else check_job
    tracer = Tracer() if args.trace else None
    kernel = Kernel() if tracer is None else None

    first = job(program, config, scenario, None, None)
    problems = reference_problems(workload, args.seed, first)
    attempted, failed = tally(workload, first)
    attempted += 1
    failed += bool(problems)

    walls: list[float] = []
    traced_walls: list[float] = []
    calibrations: list[float] = []
    ratios: list[float] = []   # wall time over the mean kernel time around it
    paused = [0.0]

    def pause() -> None:
        t0 = perf_counter()
        calibrations.append(kernel.time())
        paused[0] += perf_counter() - t0

    if kernel is not None:
        kernel.run()
        calibrations.append(kernel.time())
    start = perf_counter()
    while (perf_counter() - start < args.seconds or not walls
           or (tracer is not None and not traced_walls)):
        traced = tracer is not None and len(walls) > len(traced_walls)
        if traced:
            tracer.install()
        first_sample = len(calibrations) - 1
        paused[0] = 0.0
        t0 = perf_counter()
        try:
            output = job(program, config, scenario,
                         tracer if traced else None,
                         pause if kernel is not None else None)
        finally:
            wall = perf_counter() - t0 - paused[0]
            if traced:
                tracer.uninstall()
        (traced_walls if traced else walls).append(wall)
        if kernel is not None:
            calibrations.append(kernel.time())
            ratios.append(wall / statistics.fmean(calibrations[first_sample:]))
        ops, fails = tally(workload, output)
        attempted += ops + 1
        failed += fails
        if output != first:
            failed += 1
            problems.append(f"{'traced ' if traced else ''}repetition "
                            f"output differs from the first repetition")

    measured = {}
    speed_factor = None
    if tracer is None:
        wall_s = REFERENCE_S * statistics.median(ratios)
        measured = {"wall_s": statistics.median(walls),
                    "calibration_s": statistics.median(calibrations)}
        speed_factor = REFERENCE_S / measured["calibration_s"]
        metrics = {
            "wall_s": (wall_s, "s"),
            "trial_ms": (1000.0 * wall_s / workload.trials, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MiB"),
        }
    else:
        csv_bytes = len(first.encode()) if workload.kind == "sweep" else 0
        metrics, stray = layer_metrics(tracer, len(traced_walls),
                                       workload.trials, traced_walls, walls,
                                       csv_bytes)
        if stray:
            problems.append(f"spans without a metric: {', '.join(stray)}")
        if metrics["trace.unattributed_s"][0] < 0.0:
            problems.append("layer self times exceed the traced wall time")
    return {
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "repetitions": len(walls) + len(traced_walls),
        "trials": workload.trials,
        "master_seed": workload.master_seed(args.seed),
        "metrics": metrics,
        "measured": measured,
        "speed_factor": speed_factor,
        "env": environment(program),
    }


def setup(args) -> dict:
    t0 = perf_counter()
    program = import_program()
    program.parse_config(WORKLOADS[args.workload].config_text(args.seed))
    return {"setup_s": perf_counter() - t0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("action", choices=("setup", "run"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = setup(args) if args.action == "setup" else run(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
