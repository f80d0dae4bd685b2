import dataclasses
import io
import math

import pytest

from fdmimo.channel import ConfigError, SystemConfig
from fdmimo.closedform import rate_perfect, ul_rate_imperfect
from fdmimo.experiments import (CSV_HEADER, HALF_DUPLEX, MAX_SWEEP_POINTS,
                                Scenario, SweepRow, default_scenario,
                                emit_csv, format_config, load_config,
                                parse_config, render_csv, run_scenario)
from fdmimo.metrics import Curve, monte_carlo_sweep
from fdmimo.transceiver import SicMode

SMALL = SystemConfig(M=9, N=5, K=3)


def _small_scenario(**overrides):
    base = dict(name="custom", sweep_variable="rho_dl_db", sweep_start=0.0,
                sweep_stop=20.0, sweep_step=10.0, modes=("nosic", "stt"),
                trials=30, master_seed=7)
    base.update(overrides)
    return Scenario(**base)


# ------------------------------------------------------------- scenarios

def test_sweep_values_inclusive_grid():
    scn = _small_scenario(sweep_start=0.0, sweep_stop=20.0, sweep_step=5.0)
    assert scn.sweep_values() == [0.0, 5.0, 10.0, 15.0, 20.0]


def test_sweep_values_fractional_step_count():
    scn = _small_scenario(sweep_start=0.0, sweep_stop=1.0, sweep_step=0.1)
    vals = scn.sweep_values()
    assert len(vals) == 11
    assert vals[-1] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("start, stop, step, count", [
    (0.0, 0.3, 0.1, 4),         # 0.3 / 0.1 = 2.9999999999999996
    (0.0, 0.7, 0.1, 8),         # 0.7 / 0.1 = 6.999999999999999
    (-1.0, 1.0, 0.2, 11),
    (0.0, 0.25, 0.1, 3),        # stop off the grid is not reached
    (5.0, 5.0, 1.0, 1),
    (0.0, MAX_SWEEP_POINTS - 1.0, 1.0, MAX_SWEEP_POINTS),
])
def test_sweep_values_round_float_steps(start, stop, step, count):
    scn = _small_scenario(sweep_start=start, sweep_stop=stop,
                          sweep_step=step)
    vals = scn.sweep_values()
    assert len(vals) == count
    assert vals[0] == start
    assert vals[-1] <= stop + 1e-9 * step


@pytest.mark.parametrize("text, msg", [
    ("sweep_stop = nan", "sweep_stop must be finite"),
    ("sweep_start = -inf", "sweep_start must be finite"),
    ("sweep_step = inf", "sweep_step must be finite"),
    ("sweep_step = 1e-300", "more than 10000 points"),
    ("sweep_start = -1e308\nsweep_stop = 1e308", "more than 10000 points"),
    ("sweep_start = 0\nsweep_stop = 10000\nsweep_step = 1",
     "more than 10000 points"),
    # the CSV keys rows by x_db at 6 significant digits
    ("sweep_start = 1000\nsweep_stop = 1000.0005\nsweep_step = 0.0001",
     "1000.0 and 1000.0001 both print as x_db = 1000;"),
])
def test_bad_sweep_bounds_are_config_errors(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


def test_default_scenarios_published_shapes():
    fp = default_scenario("fig-perfect")
    assert fp.sweep_variable == "rho_dl_db"
    assert fp.sweep_values()[0] == 0.0 and fp.sweep_values()[-1] == 30.0
    assert fp.modes == ("nosic", "stt", "sps") and fp.trials == 10_000
    fi = default_scenario("fig-imperfect-si")
    assert fi.sweep_variable == "rho_si_db"
    assert fi.sweep_values()[0] == -10.0
    fc = default_scenario("fig-correlated")
    assert fc.modes == ("stt", "sps") and fc.trials == 5_000
    with pytest.raises(ConfigError, match="unknown scenario"):
        default_scenario("fig-nope")


@pytest.mark.parametrize("overrides, msg", [
    (dict(name="bogus"), "unknown scenario"),
    (dict(sweep_variable="beta"), "sweep_variable"),
    (dict(sweep_step=0.0), "sweep_step"),
    (dict(sweep_start=5.0, sweep_stop=0.0), "sweep_start"),
    (dict(trials=0), "trials"),
    (dict(master_seed=-1), "master_seed"),
    (dict(modes=()), "modes"),
    (dict(modes=("stt", "zf")), "unknown mode"),
])
def test_scenario_validation(overrides, msg):
    with pytest.raises(ConfigError, match=msg):
        _small_scenario(**overrides)


@pytest.mark.parametrize("modes, token", [
    ("stt,stt", "stt"), ("nosic,hd,sps,hd", "hd"), (" sps , sps", "sps")])
def test_a_repeated_mode_is_rejected(modes, token):
    # a repeated mode would write every one of its rows twice, so a CSV
    # keyed by (mode, x_db) would be ambiguous
    msg = f"mode '{token}' is listed more than once"
    with pytest.raises(ConfigError, match=msg):
        parse_config(f"modes = {modes}\n")
    with pytest.raises(ConfigError, match=msg):
        _small_scenario(modes=tuple(t.strip() for t in modes.split(",")))



def test_correlated_scenario_rejects_an_si_sweep():
    # per-element path gains replace beta_si_db, so x_db = rho_t_db +
    # beta_si_db would label the rows with no SI level at all
    msg = "fig-correlated cannot sweep rho_si_db"
    with pytest.raises(ConfigError, match=msg):
        parse_config("scenario = fig-correlated\nsweep_variable = rho_si_db\n")
    with pytest.raises(ConfigError, match=msg):
        parse_config("sweep_variable = rho_si_db\n", "fig-correlated")
    for name in ("fig-perfect", "fig-imperfect-si", "custom"):
        _, scn = parse_config("sweep_variable = rho_si_db\n", name)
        assert scn.sweep_variable == "rho_si_db"


# ---------------------------------------------------------- config files

def test_parse_empty_text_is_custom_defaults():
    cfg, scn = parse_config("")
    assert cfg == SystemConfig()
    assert scn == default_scenario("custom")


def test_parse_full_document():
    text = """
    # comment line
    scenario = fig-perfect
    M = 32          # inline comment
    N = 8
    K = 4
    rho_t_db = 61.5
    trials = 123
    modes = stt, sps
    sweep_step = 5.0
    """
    cfg, scn = parse_config(text)
    assert (cfg.M, cfg.N, cfg.K) == (32, 8, 4)
    assert cfg.rho_t_db == 61.5
    assert scn.name == "fig-perfect"
    assert scn.trials == 123
    assert scn.modes == ("stt", "sps")
    assert scn.sweep_step == 5.0
    assert scn.sweep_stop == 30.0  # inherited from the scenario default


def test_parse_scenario_argument_beats_file_key():
    cfg, scn = parse_config("scenario = fig-perfect\n",
                            scenario_name="fig-correlated")
    assert scn.name == "fig-correlated"


@pytest.mark.parametrize("text, msg", [
    ("bogus = 3\n", r"line 1: unknown key 'bogus'"),
    ("M = 32\nM = 16\n", r"line 2: duplicate key 'M'"),
    ("trials = abc\n", r"line 1: invalid int for 'trials'"),
    ("rho_t_db\n", r"line 1: expected 'key = value'"),
    ("\n\nsweep_step = fast\n", r"line 3: invalid float"),
])
def test_parse_errors_carry_line_numbers(text, msg):
    with pytest.raises(ConfigError, match=msg):
        parse_config(text)


def test_parse_rejects_invariant_violations():
    with pytest.raises(ConfigError, match="M must be at least"):
        parse_config("M = 16\n")  # default N=20, K=10 need M >= 30


def test_config_round_trip_is_bit_exact(tmp_path):
    cfg = SystemConfig(M=33, N=9, K=4, rho_t_db=10.1, beta_ue_db=-79.3,
                       nmse=0.12345678901234567)
    scn = _small_scenario(sweep_step=0.30000000000000004)
    path = tmp_path / "conf.txt"
    path.write_text(format_config(cfg, scn), encoding="utf-8")
    cfg2, scn2 = load_config(str(path))
    assert cfg2 == cfg
    assert scn2 == scn


def test_format_config_is_reparsable_text():
    text = format_config(SystemConfig(), default_scenario("fig-perfect"))
    cfg, scn = parse_config(text)
    assert cfg == SystemConfig()
    assert scn == default_scenario("fig-perfect")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(str(tmp_path / "nope.txt"))


# -------------------------------------------------------------- sweeps

def test_run_scenario_row_order_and_shape():
    rows = run_scenario(SMALL, _small_scenario())
    assert [(r.mode, r.x_db) for r in rows] == [
        ("nosic", 0.0), ("nosic", 10.0), ("nosic", 20.0),
        ("stt", 0.0), ("stt", 10.0), ("stt", 20.0)]
    for r in rows:
        assert r.scenario == "custom"
        assert r.trials == 30 and r.failures == 0
        assert r.dl_sim >= 0.0 and r.ul_sim >= 0.0


def test_run_scenario_deterministic():
    scn = _small_scenario()
    assert run_scenario(SMALL, scn) == run_scenario(SMALL, scn)


def test_custom_rows_have_ul_closed_form_only():
    rows = run_scenario(SMALL, _small_scenario(modes=("stt", HALF_DUPLEX)))
    for r in rows:
        if r.mode == HALF_DUPLEX:
            assert r.dl_cf is None and r.ul_cf is None
        else:
            assert r.dl_cf is None
            cfg_pt = dataclasses.replace(
                SMALL, rho_t_db=r.x_db - SMALL.beta_ue_db)
            assert r.ul_cf == ul_rate_imperfect(SicMode.SUBTRACTION, cfg_pt)


def test_fig_perfect_rows_fill_both_closed_forms():
    scn = dataclasses.replace(default_scenario("fig-perfect"),
                              sweep_stop=4.0, sweep_step=2.0, trials=25,
                              modes=("stt", HALF_DUPLEX))
    rows = run_scenario(SMALL, scn)
    stt = {r.x_db: r for r in rows if r.mode == "stt"}
    for r in rows:
        cfg_pt = dataclasses.replace(SMALL,
                                     rho_t_db=r.x_db - SMALL.beta_ue_db)
        if r.mode == HALF_DUPLEX:
            point = rate_perfect(SicMode.SUBTRACTION, cfg_pt)
            assert r.dl_cf == 0.5 * point.dl_rate
            assert r.ul_cf == 0.5 * point.ul_rate
            # the baseline reuses the subtraction engine with the SI
            # turned off and halves every simulated statistic
            (ref,), = monte_carlo_sweep(
                [cfg_pt], [Curve(SicMode.SUBTRACTION, si_free=True)],
                trials=25, master_seed=scn.master_seed)
            assert r.ul_sim == 0.5 * ref.ul_sum_rate
            assert r.dl_sim == 0.5 * ref.dl_sum_rate
        else:
            point = rate_perfect(SicMode.SUBTRACTION, cfg_pt)
            assert r.dl_cf == point.dl_rate and r.ul_cf == point.ul_rate
    assert set(stt) == {0.0, 2.0, 4.0}


def test_imperfect_scenario_sweeps_si_axis():
    scn = dataclasses.replace(default_scenario("fig-imperfect-si"),
                              sweep_start=0.0, sweep_stop=10.0,
                              sweep_step=10.0, trials=20, modes=("nosic",))
    rows = run_scenario(SMALL, scn)
    for r in rows:
        cfg_pt = dataclasses.replace(SMALL,
                                     rho_t_db=r.x_db - SMALL.beta_si_db)
        assert r.dl_cf is None
        assert r.ul_cf == ul_rate_imperfect(SicMode.NO_SIC, cfg_pt)
    # louder SI must cost uplink rate
    assert rows[0].ul_sim > rows[1].ul_sim


def test_correlated_scenario_is_simulation_only():
    scn = dataclasses.replace(default_scenario("fig-correlated"),
                              sweep_stop=0.0, trials=10)
    rows = run_scenario(SMALL, scn)
    assert len(rows) == 2
    for r in rows:
        assert r.dl_cf is None and r.ul_cf is None
        assert r.failures == 0


def test_correlated_suppression_keeps_every_trial_as_nmse_falls():
    # fig-correlated at x = 10 dB: as the SI estimate improves, the
    # suppression input's Gram condition passes 1e12, and no trial fails
    # while the downlink rate keeps falling as the SI null space tightens.
    # With every trial kept, the uplink equals subtraction's: an average of
    # the surviving draws only would be biased.  Below nmse = 1e-12 the
    # rate is not determined, which is a named error.
    scn = dataclasses.replace(default_scenario("fig-correlated"),
                              sweep_start=10.0, sweep_stop=10.0, trials=200)
    dl = []
    for nmse, want in ((5e-8, 25.743), (1e-8, 24.583), (1e-10, 21.472),
                       (1e-12, 18.506)):
        stt, sps = run_scenario(SystemConfig(nmse=nmse), scn)
        assert sps.failures == 0
        assert sps.dl_sim == pytest.approx(want, abs=5e-4)
        assert sps.ul_sim == pytest.approx(stt.ul_sim, rel=1e-5)
        dl.append(sps.dl_sim)
    assert all(a > b for a, b in zip(dl, dl[1:]))
    with pytest.raises(ConfigError, match="correlated model needs"):
        run_scenario(SystemConfig(nmse=0.0), scn)


def test_every_trial_failing_gives_nan_rates_and_empty_fields(
        every_inverse_fails):
    rows = run_scenario(SMALL, _small_scenario(modes=("sps", HALF_DUPLEX)))
    for r in rows:
        assert r.failures == r.trials == 30
        assert math.isnan(r.dl_sim) and math.isnan(r.ul_sim)
        assert math.isnan(r.dl_sim_ci) and math.isnan(r.ul_sim_ci)
    fields = render_csv(rows).split("\n")[1].split(",")
    assert fields[:3] == ["custom", "sps", "0"]
    assert fields[3:7] == [""] * 4          # rates and their CIs
    assert fields[9:] == ["30", "30"]


def test_ci_below_rate_at_moderate_trials():
    scn = _small_scenario(sweep_stop=0.0, trials=400, modes=("stt",))
    (row,) = run_scenario(SMALL, scn)
    assert 0.0 < row.dl_sim_ci < row.dl_sim
    assert 0.0 < row.ul_sim_ci < row.ul_sim


# ------------------------------------------------------------------ csv

def _sample_rows():
    return [
        SweepRow("fig-perfect", "stt", 10.0, 27.004397181410923, 0.01234567,
                 67.94415866350106, 0.2, 27.004397181410923,
                 67.94415866350106, 10000, 0),
        SweepRow("fig-correlated", "sps", -10.0, 1.5, 0.25, 2.5, 0.5,
                 None, None, 5000, 2),
    ]


def test_render_csv_exact_text():
    text = render_csv(_sample_rows())
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == ("fig-perfect,stt,10,27.0044,0.0123457,67.9442,0.2,"
                        "27.0044,67.9442,10000,0")
    assert lines[2] == "fig-correlated,sps,-10,1.5,0.25,2.5,0.5,,,5000,2"
    assert lines[3] == ""
    assert "\r" not in text


def test_render_csv_refuses_an_infinite_field():
    row = _sample_rows()[0]
    for column in ("dl_sim", "dl_sim_ci", "ul_sim", "ul_sim_ci", "dl_cf",
                   "ul_cf"):
        for value in (math.inf, -math.inf):
            bad = dataclasses.replace(row, **{column: value})
            with pytest.raises(ValueError,
                               match=f"^mode stt at x_db = 10: {column} is"):
                render_csv([bad])
    # NaN stays the documented empty field
    nan = dataclasses.replace(row, ul_cf=math.nan)
    assert render_csv([nan]).split("\n")[1].split(",")[8] == ""


def test_render_csv_empty_is_header_only():
    assert render_csv([]) == CSV_HEADER + "\n"


def test_emit_csv_stream_and_path_agree(tmp_path):
    rows = _sample_rows()
    buf = io.StringIO()
    emit_csv(rows, buf)
    path = tmp_path / "out.csv"
    emit_csv(rows, str(path))
    assert path.read_bytes() == buf.getvalue().encode("utf-8")


def test_csv_round_trips_through_csv_module(tmp_path):
    import csv
    rows = run_scenario(SMALL, _small_scenario(modes=("stt",)))
    path = tmp_path / "roundtrip.csv"
    emit_csv(rows, str(path))
    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert rec["mode"] == row.mode
        assert rec["dl_cf"] == ""
        assert float(rec["ul_sim"]) == pytest.approx(row.ul_sim, rel=1e-5)
        assert int(rec["trials"]) == row.trials
