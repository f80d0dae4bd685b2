"""Release acceptance checks: simulation against closed forms and contracts.

Each criterion is a standalone function returning a CriterionResult; run_all
executes the lot: criterion 3 in a forked child process, since on a
thread each of its many short NumPy calls waits to take the GIL back
from the calling thread, then criterion 9, which waits on runs of its
own, in a second one, and the rest on the calling thread.  The same
checks back both the ``fdmimo check`` CLI subcommand and the acceptance
test module.  base_trials scales the Monte Carlo effort (the documented
tolerances assume the default 10000).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import closedform, experiments, metrics
from .channel import CorrelatedSampler, SystemConfig
from .metrics import Curve, residual_si
from .numerics import RngStream
from .transceiver import SicMode

_MODES = (SicMode.NO_SIC, SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION)

#: One-sided 99th-percentile normal quantile.
_Z99 = 2.3263478740408408

#: Matrices that criterion 3 draws and reduces at a time.
_GROUP_DRAWS = 64
#: Matrices of a group whose imaginary parts criterion 3 draws, and whose
#: Grams it forms and solves, at a time.
_SLICE_DRAWS = 32


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number} ({self.name}): {self.detail}"


def _build_failure(number: int, name: str, mode: SicMode, chunk: range,
                   failed: np.ndarray) -> CriterionResult:
    """Criterion number's failure at the chunk's first trial whose mode
    transceiver could not be built."""
    return CriterionResult(
        number, name, False, f"{mode.value} transceiver failed at trial "
        f"{chunk[int(np.argmax(failed))]}")


def criterion_perfect_csi_match(config: SystemConfig, base_trials: int,
                                seed: int) -> CriterionResult:
    """1: perfect-CSI simulation within 3 percent of the closed forms.

    The downlink SNR points are reached through the user-link gain at the
    default transmit power, so every other knob (in particular the
    self-interference level) keeps its default value; the SI-heavy regime
    is exercised separately by criterion 2.
    """
    points = (0.0, 10.0, 20.0)
    configs = [dataclasses.replace(config, beta_ue_db=x - config.rho_t_db)
               for x in points]
    worst = 0.0
    worst_at = ""
    curves = metrics.monte_carlo_sweep(
        configs, [Curve(mode) for mode in _MODES], trials=base_trials,
        master_seed=seed)
    for mode, reports in zip(_MODES, curves):
        for x, cfg, rep in zip(points, configs, reports):
            cf = closedform.rate_perfect(mode, cfg)
            for label, sim, ref in (("dl", rep.dl_sum_rate, cf.dl_rate),
                                    ("ul", rep.ul_sum_rate, cf.ul_rate)):
                err = abs(sim - ref) / ref
                if math.isnan(err) or err > worst:  # NaN: no trial worked
                    worst = err
                    worst_at = f"{mode.value} {label} at {x:g} dB"
    return CriterionResult(
        1, "perfect-CSI match", worst < 0.03,
        f"max relative error {worst:.4f} ({worst_at}), tolerance 0.03")


def criterion_imperfect_ul_match(config: SystemConfig, base_trials: int,
                                 seed: int) -> CriterionResult:
    """2: imperfect-CSI uplink within 5 / 15 percent of the approximation.

    The grid spans received SI SNRs from 10 dB below to 10 dB above the
    analog attenuation; the approximation is only claimed to 5 percent
    where the post-attenuation SI SNR is at or above 0 dB and to 15
    percent below.
    """
    offsets = (-10.0, -5.0, 0.0, 5.0, 10.0)
    points = [config.alpha_anc_db + off for off in offsets]
    scenario = experiments.default_scenario("fig-imperfect-si")
    configs = [experiments._point_config(config, scenario, x) for x in points]
    ok = True
    worst_desc = ""
    worst_margin = -math.inf
    curves = metrics.monte_carlo_sweep(
        configs, [Curve(mode) for mode in _MODES], trials=base_trials,
        master_seed=seed, perfect=False)
    for mode, reports in zip(_MODES, curves):
        for off, cfg, rep in zip(offsets, configs, reports):
            ref = closedform.ul_rate_imperfect(mode, cfg)
            err = abs(rep.ul_sum_rate - ref) / ref
            tol = 0.05 if off >= 0.0 else 0.15
            if not err < tol:
                ok = False
            margin = err - tol
            if math.isnan(margin) or margin > worst_margin:
                worst_margin = margin
                worst_desc = (f"{mode.value} at rho_si/alpha_anc {off:+g} dB: "
                              f"err {err:.4f} vs tol {tol:.2f}")
    return CriterionResult(2, "imperfect-CSI uplink match", ok, worst_desc)


def _mean_inv_gram_diag(gen: np.random.Generator, rows: int, cols: int,
                        draws: int, keep: int) -> float:
    """Mean of 1 / [(A A^H)^{-1}]_kk over the first keep diagonals, for
    draws matrices A = (X + iY) / sqrt(2) with standard normal X and Y of
    shape (rows, cols).  Each group of _GROUP_DRAWS matrices draws all its
    real parts, then all its imaginary parts.

    With C = X Y^T, G = 2 A A^H has real part X X^T + Y Y^T and imaginary
    part C^T - C, so no complex copy of A is made.  The imaginary parts are
    drawn _SLICE_DRAWS matrices at a time, which yields the same normals
    as one draw; each slice's G is formed from whole-slice products in
    preallocated buffers and solved for the kept columns of G^{-1} only.
    The kept diagonals of a group are summed once, and
    1 / [(A A^H)^{-1}]_kk = 1 / (2 [G^{-1}]_kk).
    """
    # 3-D, so that NumPy < 2.0 also reads it as a stack of matrices
    unit = np.eye(rows, keep)[None]
    x_buf = np.empty((_GROUP_DRAWS, rows, cols))
    y_buf = np.empty((_SLICE_DRAWS, rows, cols))
    prod_bufs = np.empty((2, _SLICE_DRAWS, rows, rows))
    gram_buf = np.empty((_SLICE_DRAWS, rows, rows), dtype=complex)
    diag_buf = np.empty((_GROUP_DRAWS, keep))
    total = 0.0
    for start in range(0, draws, _GROUP_DRAWS):
        group = min(_GROUP_DRAWS, draws - start)
        x = gen.standard_normal(out=x_buf[:group])
        for lo in range(0, group, _SLICE_DRAWS):
            hi = min(lo + _SLICE_DRAWS, group)
            xs = x[lo:hi]
            y = gen.standard_normal(out=y_buf[:hi - lo])
            p, q = prod_bufs[:, :hi - lo]
            gram = gram_buf[:hi - lo]
            np.matmul(xs, xs.transpose(0, 2, 1), out=p)
            np.add(p, np.matmul(y, y.transpose(0, 2, 1), out=q),
                   out=gram.real)
            c = np.matmul(xs, y.transpose(0, 2, 1), out=p)
            np.subtract(c.transpose(0, 2, 1), c, out=gram.imag)
            diag_buf[lo:hi] = np.diagonal(np.linalg.solve(gram, unit),
                                          axis1=1, axis2=2).real
        total += float(np.sum(1.0 / diag_buf[:group]))
    return total / (2 * draws * keep)


def criterion_expected_inverse_norms(config: SystemConfig, base_trials: int,
                                     seed: int) -> CriterionResult:
    """3: Wishart expectations of the inverse precoder/combiner norms.

    Uses the identity ||f_k||^2 = [(A A^H)^{-1}]_kk for the zero-forcing
    solutions (verified against the transceiver in the unit tests) to
    evaluate the sample means in large batches.
    """
    draws = 10 * base_trials
    m, n, k = config.M, config.N, config.K
    # The combiner's norms come from (H^H H)^{-1} of the N x K uplink
    # channel H, so its K x N draw is H^H, again i.i.d. CN(0, 1).
    shapes = {"zf": (k, m), "sps": (n + k, m), "combiner": (k, n)}
    worst = 0.0
    parts = []
    for i, ((name, (rows, cols)), expect) in enumerate(zip(
            shapes.items(), closedform.inverse_norm_gains(config))):
        got = _mean_inv_gram_diag(RngStream(seed, i).generator(), rows, cols,
                                  draws, k)
        err = abs(got - expect) / expect
        worst = max(worst, err)
        parts.append(f"{name} {got:.3f} vs {expect}")
    return CriterionResult(
        3, "inverse-norm expectations", worst < 0.02,
        ", ".join(parts) + f"; max relative error {worst:.5f}, tolerance 0.02")


def criterion_zero_forcing_residuals(config: SystemConfig, base_trials: int,
                                     seed: int) -> CriterionResult:
    """4: per-trial null-space and combiner residuals below 1e-9."""
    sps = SicMode.SPATIAL_SUPPRESSION
    k = config.K
    worst_null = 0.0
    worst_comb = 0.0
    iid_trials = max(50, min(300, base_trials // 20))
    corr_trials = max(20, min(200, base_trials // 50))
    segments = ((range(iid_trials), None),
                (range(iid_trials, iid_trials + corr_trials),
                 CorrelatedSampler(config)))
    for trials, sampler in segments:
        for chunk, _, _, _, h_ext_hat, h_ul_hat, w, built in (
                metrics._trial_chunks(config, False, seed, trials, (sps,),
                                      sampler)):
            g, failed = built[sps]
            if failed.any():
                return _build_failure(4, "zero-forcing residuals", sps, chunk,
                                      failed)
            for i in range(len(chunk)):
                h_si_hat = h_ext_hat[i, k:]
                null = np.linalg.norm(h_si_hat @ g[i])
                null_rel = null / (np.linalg.norm(h_si_hat)
                                   * np.linalg.norm(g[i]))
                comb = np.linalg.norm(w[i] @ h_ul_hat[i] - np.eye(k))
                worst_null = max(worst_null, null_rel)
                worst_comb = max(worst_comb, comb)
    ok = worst_null < 1e-9 and worst_comb < 1e-9
    return CriterionResult(
        4, "zero-forcing residuals", ok,
        f"max null-space residual {worst_null:.2e}, max combiner residual "
        f"{worst_comb:.2e} over {iid_trials} i.i.d. + {corr_trials} "
        f"correlated trials, tolerance 1e-9")


def criterion_paired_residual_si(config: SystemConfig, base_trials: int,
                                 seed: int) -> CriterionResult:
    """5: spatial suppression leaves no more residual SI than subtraction.

    Paired one-sided test at the 1 percent level on the per-trial mean
    residual SI power difference (suppression minus subtraction).  Both
    modes' transceivers come from one build per chunk of trials, so
    each trial's combiner is built once.
    """
    if base_trials < 2:
        # the sample standard deviation needs two trials
        return CriterionResult(5, "paired residual-SI ordering", False,
                               "needs at least 2 base trials")
    stt, sps = SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION
    k = config.K
    diffs = []
    for chunk, _, _, h_si, h_ext_hat, _, w, built in (
            metrics._trial_chunks(config, False, seed, range(base_trials),
                                  (stt, sps))):
        means = {}
        for mode, (g, failed) in built.items():
            if failed.any():
                return _build_failure(5, "paired residual-SI ordering", mode,
                                      chunk, failed)
            omega = residual_si(mode, w, h_si, h_ext_hat[:, k:], g)
            means[mode] = np.mean(omega, axis=-1)
        diffs.append(means[sps] - means[stt])
    diffs = np.concatenate(diffs)
    mean = float(np.mean(diffs))
    se = float(np.std(diffs, ddof=1)) / math.sqrt(base_trials)
    t_stat = mean / se
    return CriterionResult(
        5, "paired residual-SI ordering", t_stat <= -_Z99,
        f"mean difference {mean:.3e}, t = {t_stat:.1f}, "
        f"threshold {-_Z99:.3f}")


def criterion_rate_orderings(config: SystemConfig, base_trials: int,
                             seed: int) -> CriterionResult:
    """6: mode orderings across the standard sweeps.

    (a) perfect CSI: total rate of subtraction at least that of spatial
    suppression at every sweep point (closed form exactly, simulation
    within summed confidence intervals); (b) imperfect CSI: uplink rate
    ordering suppression >= subtraction >= no-SIC wherever any SI power is
    present (closed form exactly, simulation within summed intervals).
    """
    trials = max(200, base_trials // 5)
    problems = []

    scn_a = dataclasses.replace(experiments.default_scenario("fig-perfect"),
                                modes=("stt", "sps"), trials=trials,
                                master_seed=seed)
    rows = experiments.run_scenario(config, scn_a)
    stt = {r.x_db: r for r in rows if r.mode == "stt"}
    sps = {r.x_db: r for r in rows if r.mode == "sps"}
    for x in stt:
        a, b = stt[x], sps[x]
        if not (a.dl_cf + a.ul_cf >= b.dl_cf + b.ul_cf):
            problems.append(f"perfect cf ordering at {x:g} dB")
        slack = a.dl_sim_ci + a.ul_sim_ci + b.dl_sim_ci + b.ul_sim_ci
        if not (a.dl_sim + a.ul_sim) >= (b.dl_sim + b.ul_sim) - slack:
            problems.append(f"perfect sim ordering at {x:g} dB")

    scn_b = dataclasses.replace(
        experiments.default_scenario("fig-imperfect-si"), trials=trials,
        master_seed=seed)
    rows = experiments.run_scenario(config, scn_b)
    by_mode = {m: {r.x_db: r for r in rows if r.mode == m}
               for m in ("nosic", "stt", "sps")}
    for x in by_mode["stt"]:
        lo, mid, hi = by_mode["nosic"][x], by_mode["stt"][x], by_mode["sps"][x]
        if not (hi.ul_cf >= mid.ul_cf >= lo.ul_cf):
            problems.append(f"imperfect cf ordering at {x:g} dB")
        if not hi.ul_sim >= mid.ul_sim - (hi.ul_sim_ci + mid.ul_sim_ci):
            problems.append(f"imperfect sim sps<stt at {x:g} dB")
        if not mid.ul_sim >= lo.ul_sim - (mid.ul_sim_ci + lo.ul_sim_ci):
            problems.append(f"imperfect sim stt<nosic at {x:g} dB")

    detail = "; ".join(problems) if problems else (
        f"orderings hold at every sweep point ({trials} trials per point)")
    return CriterionResult(6, "rate orderings", not problems, detail)


def criterion_half_duplex_identity(config: SystemConfig, base_trials: int,
                                   seed: int) -> CriterionResult:
    """7: half-duplex rate is exactly half the subtraction closed form."""
    del config, base_trials
    gen = RngStream(seed, 0).generator()
    worst = 0.0
    for _ in range(10):
        n = int(gen.integers(2, 24))
        k = int(gen.integers(1, n))
        m = n + k + int(gen.integers(0, 40))
        cfg = SystemConfig(
            M=m, N=n, K=k,
            rho_t_db=float(gen.uniform(-20.0, 90.0)),
            beta_ue_db=float(gen.uniform(-100.0, 0.0)),
            beta_si_db=float(gen.uniform(-60.0, 0.0)),
            rho_ul_db=float(gen.uniform(-10.0, 30.0)),
            alpha_anc_db=float(gen.uniform(0.0, 60.0)),
            nmse=float(gen.uniform(0.0, 1.0)))
        # The same config again at a drawn linear downlink SNR rho.
        rho = float(gen.uniform(0.0, 1e4))
        at_rho = dataclasses.replace(
            cfg, beta_ue_db=10.0 * math.log10(rho) - cfg.rho_t_db)
        for c in (cfg, at_rho):
            point = closedform.rate_perfect(SicMode.SUBTRACTION, c)
            half = closedform.rate_half_duplex(c)
            worst = max(worst, abs((half.dl_rate + half.ul_rate)
                                   - 0.5 * (point.dl_rate + point.ul_rate)))
    return CriterionResult(
        7, "half-duplex identity", worst == 0.0,
        f"max absolute deviation {worst:.1e} over 10 random configs")


def criterion_correlated_orderings(config: SystemConfig, base_trials: int,
                                   seed: int) -> CriterionResult:
    """8: correlated-channel uplink/downlink preference flip, ordinal only.

    At every sweep point the spatial-suppression uplink rate must exceed
    the subtraction uplink rate, and the subtraction downlink rate must
    exceed the spatial-suppression downlink rate, by more than the summed
    confidence intervals.
    """
    trials = max(200, base_trials // 2)
    scn = dataclasses.replace(experiments.default_scenario("fig-correlated"),
                              trials=trials, master_seed=seed)
    rows = experiments.run_scenario(config, scn)
    stt = {r.x_db: r for r in rows if r.mode == "stt"}
    sps = {r.x_db: r for r in rows if r.mode == "sps"}
    problems = []
    min_ul = math.inf
    min_dl = math.inf
    for x in stt:
        a, b = stt[x], sps[x]
        ul_margin = b.ul_sim - a.ul_sim - (a.ul_sim_ci + b.ul_sim_ci)
        dl_margin = a.dl_sim - b.dl_sim - (a.dl_sim_ci + b.dl_sim_ci)
        min_ul = min(min_ul, ul_margin)
        min_dl = min(min_dl, dl_margin)
        if not ul_margin > 0.0:
            problems.append(f"ul ordering at {x:g} dB")
        if not dl_margin > 0.0:
            problems.append(f"dl ordering at {x:g} dB")
        if a.failures + b.failures > 0:
            problems.append(f"solver failures at {x:g} dB")
    detail = "; ".join(problems) if problems else (
        f"min ul margin {min_ul:.3f}, min dl margin {min_dl:.3f} bps/Hz "
        f"beyond summed CIs ({trials} trials)")
    return CriterionResult(8, "correlated orderings", not problems, detail)


def criterion_csv_determinism(config: SystemConfig, base_trials: int,
                              seed: int) -> CriterionResult:
    """9: identical flags and seed give byte-identical CSVs, any threads.

    The three runs start together, since each spends most of its time
    importing, and are awaited in run order; the first failing run in
    that order is the one reported.
    """
    del config, base_trials
    outputs = []
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.ExitStack() as running:
        runs = []
        for i, threads in enumerate(("1", "2", "1")):
            path = os.path.join(tmp, f"out{i}.csv")
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            runs.append((path, running.enter_context(subprocess.Popen(
                [sys.executable, "-m", "fdmimo", "run", "--scenario",
                 "fig-perfect", "--trials", "40", "--seed", str(seed),
                 "--output", path],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True))))
        for path, proc in runs:
            _, stderr = proc.communicate()
            if proc.returncode != 0:
                return CriterionResult(
                    9, "CSV determinism", False,
                    f"run exited {proc.returncode}: {stderr.strip()}")
            with open(path, "rb") as fh:
                outputs.append(fh.read())
    identical = outputs[0] == outputs[1] == outputs[2]
    return CriterionResult(
        9, "CSV determinism", identical,
        "three runs (thread counts 1/2/1) byte-identical" if identical
        else "outputs differ between runs")


_CRITERIA: tuple[Callable[[SystemConfig, int, int], CriterionResult], ...] = (
    criterion_perfect_csi_match,
    criterion_imperfect_ul_match,
    criterion_expected_inverse_norms,
    criterion_zero_forcing_residuals,
    criterion_paired_residual_si,
    criterion_rate_orderings,
    criterion_half_duplex_identity,
    criterion_correlated_orderings,
    criterion_csv_determinism,
)


class CriterionError(RuntimeError):
    """A criterion gave no result: its child process failed or could not
    be started."""


#: Indices into _CRITERIA of the criteria that run_all runs in forked
#: child processes, one after the other.  Criterion 3 is a loop of short
#: NumPy calls (normal draws, Gram products, solves) on slices of a few
#: matrices.  Each call releases the GIL, but on a thread each one then
#: waited to take it back from the Python-heavy criteria on the calling
#: thread, up to the 5 ms switch interval, so there it ran about 1.7
#: times slower than alone.  Its child draws the same Philox numbers from
#: the same keys and shares no lock with the calling thread.  Criterion 9
#: waits on three runs of its own, which take the core that criterion
#: 3's child frees.
_FORKED = (2, 8)


def _unwind(signum, frame) -> None:
    """SIGTERM in a criterion's child: raise SystemExit, so that the
    criterion's with statements wait for its runs and remove its files."""
    del signum, frame
    raise SystemExit(1)


def _send_outcome(job: Callable[[], CriterionResult], number: int,
                  conn) -> None:
    """In the child: run criterion number's job and send its pickled
    result, or what it raised, through conn.

    SIGTERM unwinds the job.  An exception that does not survive a pickle
    round trip is replaced by a CriterionError naming its type and
    message.  Nothing escapes, so the child writes nothing to stdout or
    stderr; a child that cannot send exits with code 1.
    """
    try:
        signal.signal(signal.SIGTERM, _unwind)
        try:
            outcome = job()
        except BaseException as exc:
            outcome = exc
        try:
            data = pickle.dumps(outcome)
            pickle.loads(data)
        except Exception:
            data = pickle.dumps(CriterionError(
                f"criterion {number} raised {type(outcome).__qualname__}: "
                f"{outcome}"))
        conn.send_bytes(data)
        conn.close()
    except BaseException:
        os._exit(1)


def _receive(conn, child, number: int) -> CriterionResult | BaseException:
    """Criterion number's outcome from its child process, or a
    CriterionError if the child sent none; conn is closed and the child
    reaped."""
    try:
        with conn:
            data = conn.recv_bytes()
    except EOFError:
        child.join()
        return CriterionError(
            f"criterion {number}'s child process exited with code "
            f"{child.exitcode} and sent no result")
    child.join()
    return pickle.loads(data)


def run_all(base_trials: int = 10_000, seed: int = 1,
            config: SystemConfig | None = None,
            report: Callable[[str], None] | None = None
            ) -> list[CriterionResult]:
    """Run all criteria; report (if given) receives one line per result.

    Criterion 3 runs in a child process, forked before anything else
    starts.  Criterion 9 runs in a second child, forked once criterion
    3's result has been collected, so that its three runs take the core
    the first child leaves.  The others run one after another on the
    calling thread.  Results are returned and reported in criterion
    order, from the calling thread, each as soon as it and all before it
    are done; a child's result is collected whenever a criterion on the
    calling thread ends.  An exception in criterion 3 or 9, or a child
    that ends without a result, is raised at its criterion's position,
    and after one in criterion 3 criterion 9 never starts; one on the
    calling thread is raised at once.  The running child is reaped on
    every exit, and stopped first unless it has sent its result; a
    stopped child unwinds its criterion.  Needs os.fork: without it a
    CriterionError is raised before any criterion runs.
    """
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:
        raise CriterionError(
            "run_all runs criteria 3 and 9 in forked child processes, and "
            "this platform has no os.fork") from None
    cfg = config if config is not None else SystemConfig()

    def fork(i: int):
        """Criterion i + 1 started in a child: i, the receiving end of its
        pipe and the child."""
        receiver, sender = context.Pipe(duplex=False)
        job = functools.partial(_CRITERIA[i], cfg, base_trials,
                                seed + 1000 * i)
        child = context.Process(target=_send_outcome,
                                args=(job, i + 1, sender), daemon=True)
        child.start()
        sender.close()
        return i, receiver, child

    queued = list(_FORKED)
    running = fork(queued.pop(0))
    outcomes: dict[int, CriterionResult | BaseException] = {}
    results: list[CriterionResult] = []

    def flush() -> None:
        """Report, in criterion order, the results that are ready."""
        while len(results) in outcomes:
            outcome = outcomes.pop(len(results))
            if isinstance(outcome, BaseException):
                raise outcome
            results.append(outcome)
            if report is not None:
                report(outcome.line())

    try:
        for i, criterion in enumerate(_CRITERIA):
            if i not in _FORKED:
                outcomes[i] = criterion(cfg, base_trials, seed + 1000 * i)
            while running is not None and (i + 1 == len(_CRITERIA)
                                           or running[1].poll()):
                j, receiver, child = running
                outcome = outcomes[j] = _receive(receiver, child, j + 1)
                running = None
                # a failed criterion starts no later child; flush raises
                # it at its position
                if queued and not isinstance(outcome, BaseException):
                    running = fork(queued.pop(0))
            flush()
    except BaseException:
        if running is not None:
            running[2].terminate()
        raise
    finally:
        if running is not None:
            running[1].close()
            running[2].join()
    return results
