import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import fdmimo
import fdmimo.cli as cli
from fdmimo.acceptance import CriterionResult
from fdmimo.experiments import (_CONFIG_KEYS, _SCENARIO_KEYS, CSV_HEADER,
                                MODE_TOKENS, SCENARIO_NAMES, SweepRow,
                                parse_config)


@pytest.fixture
def small_conf(tmp_path):
    path = tmp_path / "small.conf"
    path.write_text(
        "M = 9\nN = 5\nK = 3\n"
        "sweep_stop = 0.0\nsweep_step = 2.0\n"
        "trials = 5\nmodes = stt,sps\n",
        encoding="utf-8")
    return str(path)


# ------------------------------------------------------------ exit codes

@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["run", "--scenario", "fig-nope"],
    ["run", "--trials", "abc"],
    ["run", "--unknown-flag"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_config_file_exits_1(tmp_path, capsys):
    rc = cli.main(["run", "--config", str(tmp_path / "absent.conf")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_contents_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_text("M = 16\n", encoding="utf-8")  # breaks M >= N + K
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "M must be at least" in capsys.readouterr().err


def test_check_rejects_nonpositive_trials(capsys):
    assert cli.main(["check", "--trials", "0"]) == 1
    assert "must be positive" in capsys.readouterr().err


def test_check_rejects_a_negative_seed(capsys):
    assert cli.main(["check", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error: --seed must be nonnegative" in err


def test_help_exits_0():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0


# ------------------------------------------------------------------ run

def test_run_writes_csv_to_stdout(small_conf, capsys):
    assert cli.main(["run", "--config", small_conf]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # stt and sps, one sweep point each
    assert lines[1].startswith("custom,stt,0,")
    # data never leaks into the log stream and vice versa
    assert CSV_HEADER not in err
    assert "custom: mode stt" in err
    assert "below the 100-trial floor" in err


def test_run_writes_file_and_keeps_stdout_clean(small_conf, tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert cli.main(["run", "--config", small_conf,
                     "--output", str(out_a)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(["run", "--config", small_conf,
                     "--output", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith(CSV_HEADER + "\n")


def test_correlated_csv_ignores_the_blas_thread_count(tmp_path):
    # the correlated draw multiplies stacks of trials by the correlation
    # roots, so its CSV must not depend on how BLAS splits a product
    src = str(Path(fdmimo.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        path = tmp_path / f"threads{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "fdmimo", "run", "--scenario",
             "fig-correlated", "--trials", "12", "--output", str(path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith((CSV_HEADER + "\n").encode())


def test_run_cli_flags_override_config_file(small_conf, capsys):
    rc = cli.main(["run", "--config", small_conf, "--trials", "3",
                   "--modes", "stt", "--seed", "42"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split(",")[1] == "stt"
    assert lines[1].split(",")[-2] == "3"  # trials column


def test_run_scenario_flag_beats_config_scenario(tmp_path, capsys):
    path = tmp_path / "scen.conf"
    path.write_text("scenario = fig-perfect\nM = 9\nN = 5\nK = 3\n"
                    "sweep_stop = 0.0\ntrials = 4\nmodes = stt\n",
                    encoding="utf-8")
    rc = cli.main(["run", "--config", str(path), "--scenario", "custom"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("custom,")


def test_run_warns_when_every_trial_of_a_mode_fails(small_conf, capsys,
                                                   every_inverse_fails):
    assert cli.main(["run", "--config", small_conf]) == 0
    out, err = capsys.readouterr()
    assert "warning: mode stt: every trial failed" in err
    assert "warning: mode sps: every trial failed" in err
    for line in out.splitlines()[1:]:
        fields = line.split(",")
        assert fields[3:7] == [""] * 4       # rates and their CIs
        assert fields[9:] == ["5", "5"]


def test_run_warns_when_a_tenth_of_a_percent_of_trials_fail(monkeypatch,
                                                            capsys):
    def rows(config, scenario, progress=None):
        # failures are counted per mode, so each mode's rows agree
        return [SweepRow("custom", mode, x, 1.0, 0.1, 1.0, 0.1, None, None,
                         trials, failures)
                for mode, trials, failures in (("nosic", 1000, 0),
                                               ("stt", 1000, 1),
                                               ("sps", 1001, 1),
                                               ("hd", 1000, 999))
                for x in (0.0, 2.0)]

    monkeypatch.setattr(cli.experiments, "run_scenario", rows)
    assert cli.main(["run", "--scenario", "custom"]) == 0
    warnings = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("warning: mode")]
    # exactly 0.1 percent is flagged, just below it is not
    assert warnings == [
        "warning: mode stt: 1 of 1000 trials failed; its rates average the "
        "other 999, the draws whose transceiver was built",
        "warning: mode hd: 999 of 1000 trials failed; its rates average the "
        "other 1, the draws whose transceiver was built"]


def test_run_abort_with_no_rows_reports_plain_error(monkeypatch, capsys,
                                                    tmp_path):
    def die(config, scenario, progress=None):
        raise RuntimeError("nothing happened")

    monkeypatch.setattr(cli.experiments, "run_scenario", die)
    out_path = tmp_path / "none.csv"
    assert cli.main(["run", "--scenario", "fig-perfect",
                     "--output", str(out_path)]) == 2
    out, err = capsys.readouterr()
    assert "error: nothing happened" in err
    assert out == "" and not out_path.exists()


def _no_run(monkeypatch):
    def reached(config, scenario, progress=None):
        raise AssertionError("trials drawn before --output was checked")

    monkeypatch.setattr(cli.experiments, "run_scenario", reached)


def test_output_in_a_missing_directory_exits_1_before_any_trial(
        monkeypatch, tmp_path, capsys):
    _no_run(monkeypatch)
    out_path = tmp_path / "absent" / "out.csv"
    assert cli.main(["run", "--output", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ")
    assert f"directory {tmp_path / 'absent'} does not exist" in err
    assert out == "" and not out_path.parent.exists()


def test_output_that_is_a_directory_exits_1_before_any_trial(
        monkeypatch, tmp_path, capsys):
    _no_run(monkeypatch)
    assert cli.main(["run", "--output", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ")
    assert f"--output {tmp_path} is a directory" in err
    assert out == "" and list(tmp_path.iterdir()) == []
    assert cli.main(["run", "--output", ""]) == 1
    assert "--output must not be empty" in capsys.readouterr().err


def test_output_check_leaves_an_existing_file_alone(monkeypatch, tmp_path,
                                                    capsys):
    # the check neither creates nor truncates the file, so a run that
    # fails keeps what was there
    def die(config, scenario, progress=None):
        raise RuntimeError("nothing happened")

    monkeypatch.setattr(cli.experiments, "run_scenario", die)
    out_path = tmp_path / "old.csv"
    out_path.write_text("kept\n", encoding="utf-8")
    assert cli.main(["run", "--output", str(out_path)]) == 2
    assert "error: nothing happened" in capsys.readouterr().err
    assert out_path.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("flags, text", [
    (["--modes", "stt,sps,stt"], ""), ([], "modes = hd,hd\n")])
def test_a_repeated_mode_exits_1(flags, text, monkeypatch, tmp_path, capsys):
    _no_run(monkeypatch)
    path = tmp_path / "modes.conf"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ")
    assert "is listed more than once" in err
    assert out == ""


@pytest.mark.parametrize("line, msg", [
    ("sweep_stop = nan", "sweep_stop must be finite"),
    ("sweep_start = -inf", "sweep_start must be finite"),
    ("sweep_step = 1e-300", "more than 10000 points"),
    ("sweep_start = 1000\nsweep_stop = 1000.0005\nsweep_step = 0.0001",
     "1000.0 and 1000.0001 both print as x_db = 1000;"),
])
def test_bad_sweep_bounds_exit_1(line, tmp_path, capsys, msg):
    path = tmp_path / "sweep.conf"
    path.write_text(line + "\n", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and msg in err
    assert out == ""



@pytest.mark.parametrize("text, flags", [
    ("scenario = fig-correlated\nsweep_variable = rho_si_db\n", []),
    ("sweep_variable = rho_si_db\n", ["--scenario", "fig-correlated"]),
])
def test_correlated_si_sweep_exits_1(text, flags, tmp_path, capsys):
    path = tmp_path / "corr.conf"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(path), *flags]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("config error: ")
    assert "fig-correlated cannot sweep rho_si_db" in err
    assert out == ""


def _no_draw(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("trials drawn before the config was checked")

    monkeypatch.setattr(cli.experiments.metrics, "monte_carlo_sweep", reached)


@pytest.mark.parametrize("text, msg", [
    ("rho_ul_db = 4000\n", "rho_ul_db = 4000.0 dB overflows"),
    ("beta_ue_db = -4000\n",
     "sweep point rho_dl_db = 0.0: rho_t_db = 4000.0 dB overflows"),
    ("sweep_start = 3100\nsweep_stop = 3102\n",
     "sweep point rho_dl_db = 3100.0: rho_t_db = 3180.0 dB overflows"),
])
def test_a_db_value_that_overflows_exits_1_before_any_trial(
        text, msg, monkeypatch, tmp_path, capsys):
    _no_draw(monkeypatch)
    path = tmp_path / "huge.conf"
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(path), "--trials", "3",
                     "--output", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert f"config error: {msg}" in err
    assert "custom: mode" not in err          # no progress line
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("text, msg", [
    # rho_t came out as 2 ulps of the smallest subnormal, and the uplink
    # closed form 1.2 % off its value at the exact SI level
    ("M = 9\nN = 5\nK = 3\nrho_t_db = -3230\nbeta_si_db = 3080\n"
     "alpha_anc_db = -300\nsweep_variable = rho_si_db\n"
     "sweep_start = -150\nsweep_stop = -150\n",
     "rho_t_db = -3230.0 dB is a subnormal float"),
    ("beta_ue_db = 0\nsweep_start = -3100\nsweep_stop = -3100\n",
     "sweep point rho_dl_db = -3100.0: rho_t_db = -3100.0 dB is a "
     "subnormal float"),
], ids=["field", "sweep-point"])
def test_a_subnormal_db_value_exits_1_before_any_trial(
        text, msg, monkeypatch, tmp_path, capsys):
    _no_draw(monkeypatch)
    path = tmp_path / "faint.conf"
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(path), "--modes", "nosic",
                     "--trials", "3", "--output", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert (f"config error: {msg} as a linear power ratio, which has lost "
            f"precision\n") in err
    assert "Traceback" not in err and ": mode" not in err
    assert out == "" and not out_path.exists()


@pytest.mark.parametrize("text, msg", [
    # the imperfect-CSI uplink closed form squares rho_ul into an inf rate
    ("M = 9\nN = 5\nK = 3\nrho_ul_db = 1600\nsweep_stop = 2\n",
     "rho_ul_db = 1600.0"),
    # rho_t * beta_ue overflows: every dl_sim came out empty, no failures
    ("scenario = fig-imperfect-si\nM = 9\nN = 5\nK = 3\n"
     "beta_ue_db = 3000\nbeta_si_db = -3000\n",
     "rho_t_db + beta_ue_db = 3050.0"),
    # zero-forcing sits at machine precision from about 300 dB
    ("scenario = fig-perfect\nbeta_si_db = -100\nsweep_start = 250\n"
     "sweep_stop = 300\nsweep_step = 50\n",
     "sweep point rho_dl_db = 300.0: rho_t_db + beta_ue_db = 300.0"),
    ("scenario = fig-imperfect-si\nsweep_start = 250\nsweep_stop = 252\n",
     "sweep point rho_si_db = 252.0: rho_t_db + beta_si_db = 252.0"),
    # an SI level that overflowed made inf * 0 = NaN where subtraction
    # left no residual SI
    ("alpha_anc_db = -300\n", "rho_t_db + beta_si_db - alpha_anc_db = 310.0"),
    # the SI estimation error overflowed the uplink SINR's SI term
    ("scenario = fig-imperfect-si\nM = 9\nN = 5\nK = 3\nnmse = 1e300\n"
     "alpha_anc_db = -88\n",
     "rho_t_db + beta_si_db - alpha_anc_db + 10 log10(nmse) = 3098.0"),
    # fig-correlated scales the SI by rho_t and its strongest path gain,
    # -6.42 dB, in place of beta_si: each sweep point is checked
    ("scenario = fig-correlated\nalpha_anc_db = -150\n",
     "sweep point rho_dl_db = 28.0: rho_t_db + strongest_si_gain_db - "
     "alpha_anc_db = 251.57882772723093"),
    ("scenario = fig-correlated\nbeta_si_db = -300\nnmse = 1e25\n",
     "sweep point rho_dl_db = 0.0: rho_t_db + strongest_si_gain_db - "
     "alpha_anc_db + 10 log10(nmse) = 283.57882772723093"),
    ("scenario = fig-correlated\nbeta_ue_db = -300\nbeta_si_db = -300\n"
     "alpha_anc_db = 300\n",
     "sweep point rho_dl_db = 0.0: rho_t_db + strongest_si_gain_db = "
     "293.57882772723093"),
], ids=["uplink", "downlink", "dl-sweep-point", "si-sweep-point",
        "si-after-cancellation", "si-after-subtraction",
        "correlated-si-after-cancellation", "correlated-si-after-subtraction",
        "correlated-si-at-the-array"])
def test_a_received_snr_above_the_ceiling_exits_1_before_any_trial(
        text, msg, monkeypatch, tmp_path, capsys):
    _no_draw(monkeypatch)
    path = tmp_path / "loud.conf"
    path.write_text(text, encoding="utf-8")
    out_path = tmp_path / "out.csv"
    assert cli.main(["run", "--config", str(path), "--modes", "stt,sps",
                     "--trials", "3", "--output", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert (f"config error: {msg} dB is above the 250 dB ceiling for a "
            f"received SNR\n") in err
    assert "Traceback" not in err and ": mode" not in err
    assert out == "" and not out_path.exists()


def test_an_nmse_above_the_ceiling_exits_1_before_any_trial(
        monkeypatch, tmp_path, capsys):
    # every received SNR is far below the ceiling, yet the SI estimate
    # overflowed the suppression Gram matrix: exit 0 with RuntimeWarnings
    _no_draw(monkeypatch)
    path = tmp_path / "noisy.conf"
    path.write_text("M = 9\nN = 5\nK = 3\nnmse = 1e308\nrho_t_db = -2900\n"
                    "beta_ue_db = 2900\nbeta_si_db = 0\nalpha_anc_db = 0\n"
                    "sweep_start = 0\nsweep_stop = 0\n", encoding="utf-8")
    out_path = tmp_path / "out.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", "--config", str(path), "--modes",
                         "nosic,stt,sps", "--trials", "20",
                         "--output", str(out_path)]) == 1
    out, err = capsys.readouterr()
    assert ("config error: nmse = 1e+308 is above 1e+25, the 250 dB ceiling "
            "as a power ratio\n") in err
    assert "Traceback" not in err and ": mode" not in err
    assert out == "" and not out_path.exists()


# ---------------------------------------------------------- print-config

def test_print_config_round_trips(capsys):
    assert cli.main(["print-config", "--scenario", "fig-correlated"]) == 0
    out = capsys.readouterr().out
    cfg, scn = parse_config(out)
    assert scn.name == "fig-correlated"
    assert scn.trials == 5000
    assert cfg.M == 64


def test_print_config_reflects_file(small_conf, capsys):
    assert cli.main(["print-config", "--config", small_conf]) == 0
    out = capsys.readouterr().out
    cfg, scn = parse_config(out)
    assert (cfg.M, cfg.N, cfg.K) == (9, 5, 3)
    assert scn.modes == ("stt", "sps")
    # a file without a scenario key configures custom, not fig-perfect
    assert scn.name == "custom"


# ---------------------------------------------------------------- check

def _fake_results(n_fail):
    results = []
    for i in range(9):
        results.append(CriterionResult(
            number=i + 1, name=f"criterion-{i+1}",
            passed=(i >= n_fail), detail="synthetic"))
    return results


def test_check_all_pass_exits_0(monkeypatch, capsys):
    seen = {}

    def fake_run_all(base_trials, seed, config=None, report=None):
        seen["trials"] = base_trials
        seen["seed"] = seed
        results = _fake_results(0)
        if report is not None:
            for r in results:
                report(r.line())
        return results

    monkeypatch.setattr("fdmimo.acceptance.run_all", fake_run_all)
    assert cli.main(["check", "--trials", "250", "--seed", "3"]) == 0
    assert seen == {"trials": 250, "seed": 3}
    err = capsys.readouterr().err
    assert "9/9 criteria passed" in err
    assert err.count("PASS") == 9


def test_check_warns_below_its_design_trial_count(monkeypatch, capsys):
    monkeypatch.setattr("fdmimo.acceptance.run_all",
                        lambda base_trials, seed, config=None, report=None:
                        [])
    assert cli.main(["check", "--trials", "500"]) == 0
    assert ("warning: the criteria's tolerances assume 10000 base trials; "
            "at 500 a criterion can fail by chance"
            in capsys.readouterr().err)
    assert cli.main(["check", "--trials", "10000"]) == 0
    assert "warning" not in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli.main(["check", "--help"])
    assert "the tolerances assume the default" in capsys.readouterr().out


def test_check_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr("fdmimo.acceptance.run_all",
                        lambda base_trials, seed, config=None, report=None:
                        _fake_results(2))
    assert cli.main(["check"]) == 2
    assert "7/9 criteria passed" in capsys.readouterr().err


# ------------------------------------------------ extreme inputs, end to end

#: Within +-4000 dB or -inf; most draws from the inner range pass the
#: config checks, so that many examples reach the engine.
_DB = st.one_of(st.floats(-4000.0, 4000.0), st.floats(-300.0, 300.0),
                st.just(-math.inf))
#: A message names a config key when one appears in it as a whole word.
_KEY = re.compile(r"\b(%s)\b" % "|".join(
    ["scenario", *_CONFIG_KEYS, *_SCENARIO_KEYS]))


def _closed_form_columns(scenario, mode):
    """The closed-form columns a scenario fills for a mode."""
    if scenario == "fig-perfect":
        return {"dl_cf", "ul_cf"}
    if scenario == "fig-correlated" or mode == "hd":
        return set()
    return {"ul_cf"}


@settings(max_examples=100, deadline=None)
@given(scenario=st.sampled_from(SCENARIO_NAMES),
       k=st.integers(1, 2), extra_n=st.integers(1, 2),
       db=st.fixed_dictionaries({
           name: _DB for name in ("rho_t_db", "beta_ue_db", "beta_si_db",
                                  "rho_ul_db", "alpha_anc_db")}),
       nmse=st.sampled_from([0.0, 0.2, 1.0, 1e300]),
       start=st.floats(-4000.0, 4000.0), points=st.integers(1, 3),
       step=st.sampled_from([1e-9, 0.5, 40.0, 3000.0]),
       modes=st.lists(st.sampled_from(MODE_TOKENS), min_size=1,
                      unique=True),
       trials=st.integers(1, 3), seed=st.integers(0, 50))
def test_run_ends_in_a_csv_or_a_named_config_error(
        scenario, k, extra_n, db, nmse, start, points, step, modes, trials,
        seed):
    # M = N + K, dB fields anywhere in +-4000 dB or -inf, nmse up to
    # 1e300: a run writes finite fields, leaving empty only what failed
    # trials explain, or exits 1 naming a config key; never exit 2.
    n = k + extra_n
    lines = [f"scenario = {scenario}", f"M = {n + k}", f"N = {n}",
             f"K = {k}", f"nmse = {nmse!r}", f"sweep_start = {start!r}",
             f"sweep_stop = {start + (points - 1) * step!r}",
             f"sweep_step = {step!r}",
             *(f"{name} = {value!r}" for name, value in db.items())]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        conf = os.path.join(tmp, "run.conf")
        out = os.path.join(tmp, "out.csv")
        with open(conf, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with contextlib.redirect_stderr(err):
            rc = cli.main(["run", "--config", conf, "--modes",
                           ",".join(modes), "--trials", str(trials),
                           "--seed", str(seed), "--output", out])
        text = Path(out).read_text(encoding="utf-8") if rc == 0 else ""
    message = err.getvalue()
    assert "Traceback" not in message
    assert rc in (0, 1), message
    if rc == 1:
        error = message.splitlines()[-1]
        assert error.startswith("config error: "), message
        assert _KEY.search(error), message
        return
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows and {row["mode"] for row in rows} == set(modes)
    for row in rows:
        failures, runs = int(row["failures"]), int(row["trials"])
        expected = {
            "dl_sim": failures < runs, "ul_sim": failures < runs,
            "dl_sim_ci": runs - failures >= 2,
            "ul_sim_ci": runs - failures >= 2,
            **{col: col in _closed_form_columns(scenario, row["mode"])
               for col in ("dl_cf", "ul_cf")}}
        for column, filled in expected.items():
            assert (row[column] != "") == filled, (column, row, message)
            if filled:
                assert math.isfinite(float(row[column])), (column, row)
