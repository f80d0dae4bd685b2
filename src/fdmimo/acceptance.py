"""Release acceptance checks: simulation against closed forms and contracts.

Each criterion is a standalone function returning a CriterionResult; run_all
executes the lot.  The same checks back both the ``fdmimo check`` CLI
subcommand and the acceptance test module.  base_trials scales the Monte
Carlo effort (the documented tolerances assume the default 10000).
"""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import closedform, experiments, metrics
from .channel import RicianParams, SystemConfig, default_geometry
from .estimation import model_from_config, estimate
from .metrics import Curve, monte_carlo_curves, residual_si
from .numerics import RngStream
from .transceiver import SicMode, build, build_stack
from .channel import generate_iid, CorrelatedSampler

_MODES = (SicMode.NO_SIC, SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION)

#: One-sided 99th-percentile normal quantile.
_Z99 = 2.3263478740408408


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number} ({self.name}): {self.detail}"


def _si_configs(config: SystemConfig, rho_si_dbs: Sequence[float]):
    return [dataclasses.replace(config, rho_t_db=x - config.beta_si_db)
            for x in rho_si_dbs]


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
    curves = monte_carlo_curves(configs, [Curve(mode) for mode in _MODES],
                                trials=base_trials, master_seed=seed)
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
    configs = _si_configs(config, points)
    model = model_from_config(config, perfect=False)
    ok = True
    worst_desc = ""
    worst_margin = -math.inf
    curves = monte_carlo_curves(configs, [Curve(mode) for mode in _MODES],
                                trials=base_trials, master_seed=seed,
                                estimation=model)
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
                        draws: int, keep: int, right: bool) -> float:
    """Mean of 1 / [(A A^H)^{-1}]_kk (right) or 1 / [(A^H A)^{-1}]_kk."""
    total = 0.0
    count = 0
    chunk = max(1, min(2000, draws))
    left = draws
    while left > 0:
        b = min(chunk, left)
        left -= b
        re = gen.standard_normal((b, rows, cols))
        im = gen.standard_normal((b, rows, cols))
        a = (re + 1j * im) / np.sqrt(2.0)
        if right:
            gram = a @ a.conj().transpose(0, 2, 1)
        else:
            gram = a.conj().transpose(0, 2, 1) @ a
        inv = np.linalg.inv(gram)
        diag = np.real(np.diagonal(inv, axis1=1, axis2=2))[:, :keep]
        total += float(np.sum(1.0 / diag))
        count += b * keep
    return total / count


def criterion_expected_inverse_norms(config: SystemConfig, base_trials: int,
                                     seed: int) -> CriterionResult:
    """3: Wishart expectations of the inverse precoder/combiner norms.

    Uses the identity ||f_k||^2 = [(A A^H)^{-1}]_kk for the zero-forcing
    solutions (verified against the transceiver in the unit tests) to
    evaluate the sample means in large batches.
    """
    draws = 10 * base_trials
    m, n, k = config.M, config.N, config.K
    targets = {
        "zf": (m - k + 1,
               _mean_inv_gram_diag(RngStream(seed, 0).generator(),
                                   k, m, draws, k, right=True)),
        "sps": (m - n - k + 1,
                _mean_inv_gram_diag(RngStream(seed, 1).generator(),
                                    n + k, m, draws, k, right=True)),
        "combiner": (n - k + 1,
                     _mean_inv_gram_diag(RngStream(seed, 2).generator(),
                                         n, k, draws, k, right=False)),
    }
    worst = 0.0
    parts = []
    for name, (expect, got) in targets.items():
        err = abs(got - expect) / expect
        worst = max(worst, err)
        parts.append(f"{name} {got:.3f} vs {expect}")
    return CriterionResult(
        3, "inverse-norm expectations", worst < 0.02,
        ", ".join(parts) + f"; max relative error {worst:.5f}, tolerance 0.02")


def criterion_zero_forcing_residuals(config: SystemConfig, base_trials: int,
                                     seed: int) -> CriterionResult:
    """4: per-trial null-space and combiner residuals below 1e-9."""
    model = model_from_config(config, perfect=False)
    geometry = default_geometry(config, experiments.CORRELATED_CARRIER_HZ)
    sampler = CorrelatedSampler(config, geometry, RicianParams(1.0, 1.0))
    worst_null = 0.0
    worst_comb = 0.0
    iid_trials = max(50, min(300, base_trials // 20))
    corr_trials = max(20, min(200, base_trials // 50))
    for i in range(iid_trials + corr_trials):
        correlated = i >= iid_trials
        if correlated:
            ch = sampler.sample(RngStream(seed, 2 * i))
            scale = sampler.si_gains
        else:
            ch = generate_iid(config, RngStream(seed, 2 * i))
            scale = None
        est = estimate(ch, model, RngStream(seed, 2 * i + 1),
                       si_error_scale=scale)
        ts = build(SicMode.SPATIAL_SUPPRESSION, est)
        null = np.linalg.norm(est.h_si_hat @ ts.g)
        null_rel = null / (np.linalg.norm(est.h_si_hat)
                           * np.linalg.norm(ts.g))
        comb = np.linalg.norm(ts.w @ est.h_ul_hat - np.eye(config.K))
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
    modes' transceivers come from one build_stack call per chunk of
    trials, so each trial's combiner is built once.
    """
    model = model_from_config(config, perfect=False)
    stt, sps = SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION
    k = config.K
    diffs = []
    for _, _, h_si, h_ext_hat, h_ul_hat in metrics._trial_chunks(
            lambda stream: generate_iid(config, stream), model, None, seed,
            base_trials, config.M, config.N, k):
        w, built = build_stack((stt, sps), h_ext_hat, h_ul_hat)
        means = {}
        for mode, (g, failed) in built.items():
            if failed.any():
                trial = sum(map(len, diffs)) + int(np.argmax(failed))
                return CriterionResult(
                    5, "paired residual-SI ordering", False,
                    f"{mode.value} transceiver failed at trial {trial}")
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
    del base_trials
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
        point = closedform.rate_perfect(SicMode.SUBTRACTION, cfg)
        want = 0.5 * (point.dl_rate + point.ul_rate)
        got = metrics.half_duplex_rate(cfg)
        worst = max(worst, abs(got - want))
        rho = float(gen.uniform(0.0, 1e4))
        point2 = closedform.rate_perfect(SicMode.SUBTRACTION, cfg, rho_dl=rho)
        want2 = 0.5 * (point2.dl_rate + point2.ul_rate)
        got2 = metrics.half_duplex_rate(cfg, rho_dl_linear=rho)
        worst = max(worst, abs(got2 - want2))
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
    """9: identical flags and seed give byte-identical CSVs, any threads."""
    del config, base_trials
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, threads in enumerate(("1", "2", "1")):
            path = os.path.join(tmp, f"out{i}.csv")
            env = dict(os.environ, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "fdmimo", "run", "--scenario",
                 "fig-perfect", "--trials", "40", "--seed", str(seed),
                 "--output", path],
                env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                return CriterionResult(
                    9, "CSV determinism", False,
                    f"run exited {proc.returncode}: {proc.stderr.strip()}")
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


def run_all(base_trials: int = 10_000, seed: int = 1,
            config: SystemConfig | None = None,
            report: Callable[[str], None] | None = None
            ) -> list[CriterionResult]:
    """Run all criteria; report (if given) receives one line per result."""
    cfg = config if config is not None else SystemConfig()
    results = []
    for i, criterion in enumerate(_CRITERIA):
        result = criterion(cfg, base_trials, seed + 1000 * i)
        results.append(result)
        if report is not None:
            report(result.line())
    return results
