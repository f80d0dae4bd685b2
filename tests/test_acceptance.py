"""Release acceptance gate.

Runs the full criterion suite once at the published trial counts and then
asserts each criterion separately, so a failure pinpoints the broken
guarantee.  Each test prints the criterion's PASS/FAIL line regardless of
capture settings; expect roughly a minute for the module.  The tests at
the end check criterion internals on small configs.
"""

import contextlib
import functools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from fdmimo import acceptance, metrics
from fdmimo.acceptance import (_Z99, CriterionResult,
                               criterion_paired_residual_si,
                               criterion_zero_forcing_residuals, run_all)
from fdmimo.channel import CorrelatedSampler, SystemConfig
from fdmimo.estimation import error_variances
from fdmimo.metrics import residual_si
from fdmimo.numerics import RngStream
from fdmimo.transceiver import SicMode, build

from conftest import chunks_of, drawn_trial, one_draw_build

BASE_TRIALS = 10_000
SEED = 1


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(base_trials=BASE_TRIALS, seed=SEED)}


def _require(results, number, capsys):
    r = results[number]
    with capsys.disabled():
        print(r.line())
    assert r.passed, r.line()


def test_criterion_1_perfect_csi_within_3pct(results, capsys):
    _require(results, 1, capsys)


def test_criterion_2_imperfect_ul_within_band(results, capsys):
    _require(results, 2, capsys)


def test_criterion_3_expected_inverse_norms(results, capsys):
    _require(results, 3, capsys)


def test_criterion_4_zero_forcing_residuals(results, capsys):
    _require(results, 4, capsys)


def test_criterion_5_paired_residual_si(results, capsys):
    _require(results, 5, capsys)


def test_criterion_6_rate_orderings(results, capsys):
    _require(results, 6, capsys)


def test_criterion_7_half_duplex_identity(results, capsys):
    _require(results, 7, capsys)


def test_criterion_8_correlated_orderings(results, capsys):
    _require(results, 8, capsys)


def test_criterion_9_csv_determinism(results, capsys):
    _require(results, 9, capsys)


def _masked(line):
    """A criterion line with criterion 4's two residual figures, which sit
    at rounding level and move with any change in arithmetic order,
    masked."""
    return re.sub(r"(max (?:null-space|combiner) residual) [-+.e0-9]+",
                  r"\1 *", line)


def test_run_all_lines_match_the_golden(results):
    # tests/data/acceptance-10000-seed1.txt holds the nine lines of
    # run_all(10_000, 1), one per criterion in order
    golden = (Path(__file__).parent / "data" /
              f"acceptance-{BASE_TRIALS}-seed{SEED}.txt").read_text()
    got = [_masked(results[n].line()) for n in sorted(results)]
    assert got == [_masked(line) for line in golden.splitlines()]


# ------------------------------------------------- criterion internals

SMALL = SystemConfig(M=12, N=4, K=2)


def test_criterion_4_matches_a_per_trial_build_loop(monkeypatch):
    # chunks of 3: both the 50 i.i.d. and the 20 correlated trials end in
    # a partial chunk; the loop is the reference
    chunks_of(monkeypatch, 3)
    built = []

    def recording_build(modes, h_ext_hat, h_ul_hat, *args, **kwargs):
        built.extend(zip(h_ext_hat.copy(), h_ul_hat.copy()))
        return build(modes, h_ext_hat, h_ul_hat, *args, **kwargs)

    monkeypatch.setattr(metrics, "build", recording_build)
    base_trials, seed = 100, 3001
    variances = error_variances(SMALL, perfect=False)
    sampler = CorrelatedSampler(SMALL)
    iid_trials, corr_trials = 50, 20
    worst_null = 0.0
    worst_comb = 0.0
    ests = []
    for i in range(iid_trials + corr_trials):
        _, hats = drawn_trial(SMALL, seed, variances, i,
                              sampler if i >= iid_trials else None)
        ests.append(hats)
        dl_hat, ul_hat, si_hat = hats
        g, w, failed = one_draw_build(SicMode.SPATIAL_SUPPRESSION, hats)
        assert not failed
        null = np.linalg.norm(si_hat @ g)
        null_rel = null / (np.linalg.norm(si_hat) * np.linalg.norm(g))
        comb = np.linalg.norm(w @ ul_hat - np.eye(SMALL.K))
        worst_null = max(worst_null, null_rel)
        worst_comb = max(worst_comb, comb)
    got = criterion_zero_forcing_residuals(SMALL, base_trials, seed)
    assert got.detail == (
        f"max null-space residual {worst_null:.2e}, max combiner residual "
        f"{worst_comb:.2e} over {iid_trials} i.i.d. + {corr_trials} "
        f"correlated trials, tolerance 1e-9")
    assert got.passed
    # every trial was built from its own draw, in trial order
    assert len(built) == len(ests)
    for (h_ext_hat, h_ul_hat), (dl_hat, ul_hat, si_hat) in zip(built, ests):
        assert np.array_equal(h_ext_hat, np.vstack([dl_hat, si_hat]))
        assert np.array_equal(h_ul_hat, ul_hat)


def test_criterion_4_fails_on_a_failed_transceiver(every_inverse_fails):
    got = criterion_zero_forcing_residuals(SMALL, 100, 1)
    assert not got.passed
    assert got.detail == "sps transceiver failed at trial 0"


def test_criterion_5_matches_a_per_trial_build_loop(monkeypatch):
    # chunks of 3 with a partial last one; the loop is the reference
    chunks_of(monkeypatch, 3)
    trials, seed = 23, 1
    variances = error_variances(SMALL, perfect=False)
    diffs = np.empty(trials)
    for t in range(trials):
        (_, _, h_si), hats = drawn_trial(SMALL, seed, variances, t)
        om = {}
        for mode in (SicMode.SUBTRACTION, SicMode.SPATIAL_SUPPRESSION):
            g, w, failed = one_draw_build(mode, hats)
            assert not failed
            om[mode] = residual_si(mode, w, h_si, hats[2], g)
        diffs[t] = float(np.mean(om[SicMode.SPATIAL_SUPPRESSION])
                         - np.mean(om[SicMode.SUBTRACTION]))
    mean = float(np.mean(diffs))
    t_stat = mean / (float(np.std(diffs, ddof=1)) / math.sqrt(trials))
    got = criterion_paired_residual_si(SMALL, trials, seed)
    assert got.detail == (f"mean difference {mean:.3e}, t = {t_stat:.1f}, "
                          f"threshold {-_Z99:.3f}")
    assert got.passed == (t_stat <= -_Z99)


def test_criterion_5_fails_on_a_failed_transceiver(every_inverse_fails):
    got = criterion_paired_residual_si(SMALL, 4, 1)
    assert not got.passed
    assert got.detail == "stt transceiver failed at trial 0"


def test_criterion_5_needs_two_base_trials():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = criterion_paired_residual_si(SMALL, 1, 1)
    assert not got.passed
    assert got.detail == "needs at least 2 base trials"


def _mean_inv_gram_diag_reference(gen, rows, cols, draws, keep):
    # complex matrices, a complex Gram and its full inverse, per group of
    # 64 draws: real parts, then imaginary parts
    total = 0.0
    count = 0
    for start in range(0, draws, 64):
        b = min(64, draws - start)
        re, im = gen.standard_normal((2, b, rows, cols))
        a = (re + 1j * im) / np.sqrt(2.0)
        inv = np.linalg.inv(a @ a.conj().transpose(0, 2, 1))
        diag = np.real(np.diagonal(inv, axis1=1, axis2=2))[:, :keep]
        total += float(np.sum(1.0 / diag))
        count += b * keep
    return total / count


def _mean_inv_gram_diag_one_draw(gen, rows, cols, draws, keep):
    # each group of 64 in one draw of all its real parts, then all its
    # imaginary parts, and a Gram from whole-group products
    unit = np.eye(rows, keep)[None]
    total = 0.0
    for start in range(0, draws, 64):
        group = min(64, draws - start)
        x, y = gen.standard_normal((2, group, rows, cols))
        c = x @ y.transpose(0, 2, 1)
        gram = np.empty((group, rows, rows), dtype=complex)
        gram.real = x @ x.transpose(0, 2, 1) + y @ y.transpose(0, 2, 1)
        gram.imag = c.transpose(0, 2, 1) - c
        sol = np.linalg.solve(gram, unit)
        diag = np.diagonal(sol, axis1=1, axis2=2).real
        total += float(np.sum(1.0 / diag))
    return total / (2 * draws * keep)


@pytest.mark.parametrize("draws", [1, 7, 2000, 2003, 4500])
@pytest.mark.parametrize("wide", [True, False])
@pytest.mark.parametrize("keep", [2, 5])
def test_criterion_3_kernel_matches_the_complex_inverse(draws, wide, keep):
    # a wide matrix, or a square one as the suppression precoder's at
    # M = N + K; every draw count but 1 and 7 ends in a partial group
    rows, cols = (5, 9) if wide else (5, 5)
    want_gen = RngStream(7, 3).generator()
    got_gen = RngStream(7, 3).generator()
    want = _mean_inv_gram_diag_reference(want_gen, rows, cols, draws, keep)
    got = acceptance._mean_inv_gram_diag(got_gen, rows, cols, draws, keep)
    assert got == pytest.approx(want, rel=1e-12)
    # both drew the same normals
    assert got_gen.standard_normal() == want_gen.standard_normal()
    # drawing the imaginary parts in slices gives the same normals, and
    # matmul works per matrix, so the mean is the same float
    one_draw = _mean_inv_gram_diag_one_draw(RngStream(7, 3).generator(),
                                            rows, cols, draws, keep)
    assert got == one_draw


def test_criterion_3_kernel_peak_memory():
    # 2000 draws of the SPS target at the default sizes: one group's real
    # parts, a slice of imaginary parts and that slice's products, Gram
    # and solve; the one-draw kernel peaked at 5.4 MiB, whole-stack
    # complex copies and inverses near 200 MiB
    gen = RngStream(1, 1).generator()
    tracemalloc.start()
    try:
        acceptance._mean_inv_gram_diag(gen, 30, 64, 2000, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------------------------------ scheduling

def _record_popens(mp, runs):
    """Make every subprocess.Popen append (the starting process's pid,
    the Popen) to runs."""
    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append((os.getpid(), self))

    mp.setattr(subprocess, "Popen", RecordingPopen)


@pytest.fixture(scope="module")
def small_run():
    """run_all on SMALL at a few base trials, recording the thread of each
    report and of each RngStream.generator call, each multiprocessing
    child started and each subprocess.Popen, with every warning an error:
    Python 3.12 and later warn when a process with several OS threads
    forks, as one with unpinned OpenBLAS threads does."""
    calls = []
    children = []
    runs = []
    generator = RngStream.generator
    start = multiprocessing.process.BaseProcess.start

    def recording_generator(self):
        calls.append(("generator", threading.current_thread()))
        return generator(self)

    def recording_start(self):
        children.append(self)
        start(self)

    def report(line):
        calls.append((line, threading.current_thread()))

    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("error")
        mp.setattr(RngStream, "generator", recording_generator)
        mp.setattr(multiprocessing.process.BaseProcess, "start",
                   recording_start)
        _record_popens(mp, runs)
        results = run_all(base_trials=4, seed=11, config=SMALL,
                          report=report)
    return results, calls, children, runs


def test_run_all_equals_the_criteria_called_in_order(small_run):
    results, calls, _, _ = small_run
    want = [criterion(SMALL, 4, 11 + 1000 * i)
            for i, criterion in enumerate(acceptance._CRITERIA)]
    assert results == want
    me = threading.current_thread()
    assert [c for c in calls if c[0] != "generator"] == [
        (r.line(), me) for r in want]


def test_run_all_draws_every_generator_on_the_calling_thread(small_run):
    # a tracer that wraps RngStream.generator keeps one span stack
    _, calls, _, _ = small_run
    generators = [thread for what, thread in calls if what == "generator"]
    assert generators
    assert set(generators) == {threading.current_thread()}


def test_run_all_forks_one_child_and_starts_criterion_9s_runs(small_run):
    _, _, children, runs = small_run
    assert len(children) == 1
    assert [pid for pid, _ in runs] == [os.getpid()] * 3


def test_run_all_leaves_no_child_running(small_run):
    _, _, children, runs = small_run
    assert multiprocessing.active_children() == []
    assert all(child.exitcode is not None for child in children)
    assert runs and all(run.returncode is not None for _, run in runs)


def _fake(number, action=None):
    def criterion(config, base_trials, seed):
        if action is not None:
            action()
        return CriterionResult(number, f"fake {number}", True, str(seed))
    return criterion


def _use_fakes(monkeypatch, replaced=None, started=None):
    """Make run_all run fakes: criterion n is replaced[n] if given, else
    _fake(n).  Criterion 9's fake is what the result function of a fake
    _csv_runs calls, and started (if given) is called where the real
    _csv_runs starts its runs."""
    criteria = [(replaced or {}).get(n, _fake(n)) for n in range(1, 10)]
    monkeypatch.setattr(acceptance, "_CRITERIA", tuple(criteria))

    @contextlib.contextmanager
    def csv_runs(seed):
        if started is not None:
            started()
        yield functools.partial(criteria[8], SMALL, 1, seed)

    monkeypatch.setattr(acceptance, "_csv_runs", csv_runs)


def test_a_failing_background_criterion_raises_at_its_position(monkeypatch):
    def boom():
        raise RuntimeError("criterion 3 broke")

    started = []
    _use_fakes(monkeypatch, {3: _fake(3, boom)},
               started=lambda: started.append(1))
    lines = []
    with pytest.raises(RuntimeError, match="criterion 3 broke"):
        run_all(base_trials=1, seed=0, config=SMALL, report=lines.append)
    assert lines == ["PASS criterion 1 (fake 1): 0",
                     "PASS criterion 2 (fake 2): 1000"]
    assert started == []


def test_a_failing_foreground_criterion_does_not_wait(monkeypatch):
    # criterion 3 runs in a forked child, so the events are shared across
    # processes
    context = multiprocessing.get_context("fork")
    started = context.Event()
    release = context.Event()

    def block():
        # run_all stops the child with SIGTERM; killed inside Event.wait,
        # it would leave release's condition waiting for it forever in
        # release.set(), so the signal unwinds the wait as an exception
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
        started.set()
        release.wait(60.0)

    def boom():
        assert started.wait(60.0)
        raise RuntimeError("criterion 1 broke")

    _use_fakes(monkeypatch, {1: _fake(1, boom), 3: _fake(3, block)})
    t0 = time.monotonic()
    try:
        with pytest.raises(RuntimeError, match="criterion 1 broke"):
            run_all(base_trials=1, seed=0, config=SMALL)
        # criterion 3 is still blocked, far inside its 60 s
        assert not release.is_set()
        assert time.monotonic() - t0 < 30.0
    finally:
        release.set()
    assert multiprocessing.active_children() == []


def test_an_interrupt_on_the_calling_thread_reaps_the_child(monkeypatch):
    context = multiprocessing.get_context("fork")
    started = context.Event()

    def interrupt():
        assert started.wait(60.0)
        raise KeyboardInterrupt

    _use_fakes(monkeypatch, {
        1: _fake(1, interrupt),
        3: _fake(3, lambda: (started.set(), time.sleep(60.0)))})
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_all(base_trials=1, seed=0, config=SMALL)
    assert time.monotonic() - t0 < 30.0
    assert multiprocessing.active_children() == []


def test_criterion_3_that_exits_is_a_named_error(monkeypatch):
    _use_fakes(monkeypatch, {3: _fake(3, lambda: os._exit(3))})
    lines = []
    with pytest.raises(acceptance.CriterionError,
                       match="criterion 3's child process exited with code 3 "
                             "and sent no result"):
        run_all(base_trials=1, seed=0, config=SMALL, report=lines.append)
    assert lines == ["PASS criterion 1 (fake 1): 0",
                     "PASS criterion 2 (fake 2): 1000"]
    assert multiprocessing.active_children() == []


def test_criterion_3_raising_what_cannot_be_pickled_is_a_named_error(
        monkeypatch):
    class LocalError(Exception):
        pass

    def boom():
        raise LocalError("kernel broke")

    _use_fakes(monkeypatch, {3: _fake(3, boom)})
    lines = []
    with pytest.raises(acceptance.CriterionError) as info:
        run_all(base_trials=1, seed=0, config=SMALL, report=lines.append)
    assert str(info.value) == ("criterion 3 raised test_criterion_3_raising_"
                               "what_cannot_be_pickled_is_a_named_error."
                               "<locals>.LocalError: kernel broke")
    assert lines == ["PASS criterion 1 (fake 1): 0",
                     "PASS criterion 2 (fake 2): 1000"]
    assert multiprocessing.active_children() == []


def _pid(number):
    def criterion(config, base_trials, seed):
        return CriterionResult(number, f"fake {number}", True,
                               str(os.getpid()))
    return criterion


def test_criterion_3_runs_in_another_process(monkeypatch):
    # and criterion 9's result is awaited on the calling one
    _use_fakes(monkeypatch, {3: _pid(3), 9: _pid(9)})
    results = run_all(base_trials=1, seed=0, config=SMALL)
    assert [r.number for r in results] == list(range(1, 10))
    assert int(results[2].detail) != os.getpid()
    assert int(results[8].detail) == os.getpid()
    assert multiprocessing.active_children() == []


def test_criterion_9_starts_after_criterion_3_has_ended(monkeypatch):
    # criterion 9's three runs would otherwise compete with criterion 3's
    # child for the cores
    ended = multiprocessing.get_context("fork").Event()
    seen = []
    _use_fakes(monkeypatch, {3: _fake(3, lambda: (time.sleep(0.5),
                                                  ended.set()))},
               started=lambda: seen.append(ended.is_set()))
    results = run_all(base_trials=1, seed=0, config=SMALL)
    assert [r.number for r in results] == list(range(1, 10))
    assert seen == [True]


def test_an_exception_after_criterion_9s_runs_started_awaits_them(
        monkeypatch, tmp_path):
    # run_all does not stop the runs when criterion 8 raises: it waits for
    # them and removes their temporary directory
    runs = []

    def await_criterion_3():
        # its child exits after sending its result, which run_all then
        # collects, and starts criterion 9's runs
        deadline = time.monotonic() + 60.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline
            time.sleep(0.01)

    def boom():
        assert len(runs) == 3 and len(list(tmp_path.iterdir())) == 1
        raise RuntimeError("criterion 8 broke")

    csv_runs = acceptance._csv_runs
    _use_fakes(monkeypatch, {1: _fake(1, await_criterion_3),
                             8: _fake(8, boom)})
    monkeypatch.setattr(acceptance, "_csv_runs", csv_runs)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    _record_popens(monkeypatch, runs)
    with pytest.raises(RuntimeError, match="criterion 8 broke"):
        run_all(base_trials=1, seed=0, config=SMALL)
    assert all(run.returncode is not None for _, run in runs)
    assert list(tmp_path.iterdir()) == []
    assert multiprocessing.active_children() == []


def test_criterion_9s_result_raises_at_its_position(monkeypatch):
    def boom():
        raise RuntimeError("runs broke")

    _use_fakes(monkeypatch, {9: _fake(9, boom)})
    lines = []
    with pytest.raises(RuntimeError, match="runs broke"):
        run_all(base_trials=1, seed=0, config=SMALL, report=lines.append)
    assert lines == [f"PASS criterion {n} (fake {n}): {1000 * (n - 1)}"
                     for n in range(1, 9)]


def test_run_all_without_fork_runs_no_criterion(monkeypatch):
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    ran = []
    _use_fakes(monkeypatch,
               {n: _fake(n, lambda: ran.append(1)) for n in range(1, 10)},
               started=lambda: ran.append(1))
    monkeypatch.setattr(acceptance.multiprocessing, "get_context", no_fork)
    with pytest.raises(acceptance.CriterionError, match="os.fork"):
        run_all(base_trials=1, seed=0, config=SMALL)
    assert ran == []
