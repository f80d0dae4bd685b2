"""Named experiment scenarios, config files, and CSV emission.

Three named scenarios cover the standard sweeps, plus a free-form one:

    fig-perfect       perfect CSI, i.i.d. channels, sweep of the received
                      downlink SNR; closed forms for both directions
    fig-imperfect-si  imperfect CSI, i.i.d. channels, sweep of the received
                      SI SNR (transmit SNR varies, beta_si fixed); uplink
                      closed form only
    fig-correlated    imperfect CSI, the spatially correlated Rician
                      channels of channel.CorrelatedSampler, whose fixed
                      arrays at 2.1 GHz have per-element SI path loss
                      and no config key; sweep of the received downlink
                      SNR; simulation only
    custom            imperfect CSI, i.i.d. channels, free sweep bounds

Config files are flat UTF-8 ``key = value`` lines with ``#`` comments.
Unknown keys are rejected with their line number; missing keys fall back
to the defaults of the named scenario.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO

from . import closedform, metrics
from .channel import (ConfigError, CorrelatedSampler, SystemConfig,
                      check_correlated_snrs)
from .transceiver import SicMode

#: Baseline row tag for the half-duplex reference curve.
HALF_DUPLEX = "hd"

MODE_TOKENS = ("nosic", "stt", "sps", HALF_DUPLEX)

SCENARIO_NAMES = ("fig-perfect", "fig-imperfect-si", "fig-correlated",
                  "custom")

CSV_HEADER = ("scenario,mode,x_db,dl_sim,dl_sim_ci,ul_sim,ul_sim_ci,"
              "dl_cf,ul_cf,trials,failures")

#: Most points a sweep may have; more is taken for a mistyped step.
MAX_SWEEP_POINTS = 10_000


@dataclass(frozen=True)
class Scenario:
    """A sweep definition: what to vary, which curves, how many trials."""

    name: str
    sweep_variable: str          # "rho_dl_db" or "rho_si_db"
    sweep_start: float
    sweep_stop: float
    sweep_step: float
    modes: tuple[str, ...]
    trials: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.name not in SCENARIO_NAMES:
            raise ConfigError(f"unknown scenario '{self.name}'; expected one "
                              f"of {', '.join(SCENARIO_NAMES)}")
        if self.sweep_variable not in ("rho_dl_db", "rho_si_db"):
            raise ConfigError("sweep_variable must be rho_dl_db or rho_si_db")
        if self.name == "fig-correlated" and self.sweep_variable == "rho_si_db":
            raise ConfigError("fig-correlated cannot sweep rho_si_db: its "
                              "per-element SI path gains replace beta_si_db")
        for key in ("sweep_start", "sweep_stop", "sweep_step"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite")
        if not self.sweep_step > 0.0:
            raise ConfigError("sweep_step must be positive")
        if self.sweep_start > self.sweep_stop:
            raise ConfigError("sweep_start must not exceed sweep_stop")
        if self._steps() >= MAX_SWEEP_POINTS:
            raise ConfigError(f"the sweep has more than {MAX_SWEEP_POINTS} "
                              f"points")
        # Rounding is monotone: if any two points print alike, so do two
        # neighbours.
        xs = self.sweep_values()
        for a, b in zip(xs, xs[1:]):
            if _fmt(a) == _fmt(b):
                raise ConfigError(
                    f"sweep points {a!r} and {b!r} both print as x_db = "
                    f"{_fmt(a)}; sweep_step is too small for the CSV's 6 "
                    f"significant digits")
        if self.trials < 1:
            raise ConfigError("trials must be positive")
        if self.master_seed < 0:
            raise ConfigError("master_seed must be nonnegative")
        if not self.modes:
            raise ConfigError("modes must not be empty")
        for i, token in enumerate(self.modes):
            if token not in MODE_TOKENS:
                raise ConfigError(f"unknown mode '{token}'; expected one of "
                                  f"{', '.join(MODE_TOKENS)}")
            if token in self.modes[:i]:
                raise ConfigError(f"mode '{token}' is listed more than once")

    def _steps(self) -> float:
        """Steps from start to stop, with slack for float rounding; may be
        inf, and the sweep has int(_steps()) + 1 points."""
        return (self.sweep_stop - self.sweep_start) / self.sweep_step + 1e-9

    def sweep_values(self) -> list[float]:
        return [self.sweep_start + i * self.sweep_step
                for i in range(int(self._steps()) + 1)]


@dataclass(frozen=True)
class SweepRow:
    """One CSV row; closed-form fields are None where no formula exists."""

    scenario: str
    mode: str
    x_db: float
    dl_sim: float
    dl_sim_ci: float
    ul_sim: float
    ul_sim_ci: float
    dl_cf: float | None
    ul_cf: float | None
    trials: int
    failures: int


_DL_SWEEP = dict(sweep_variable="rho_dl_db", sweep_start=0.0, sweep_stop=30.0,
                 sweep_step=2.0, modes=("nosic", "stt", "sps"), trials=10_000)
_SCENARIO_DEFAULTS = {
    "fig-perfect": _DL_SWEEP,
    "fig-imperfect-si": dict(_DL_SWEEP, sweep_variable="rho_si_db",
                             sweep_start=-10.0),
    "fig-correlated": dict(_DL_SWEEP, modes=("stt", "sps"), trials=5_000),
    "custom": _DL_SWEEP,
}


def default_scenario(name: str) -> Scenario:
    if name not in _SCENARIO_DEFAULTS:
        raise ConfigError(f"unknown scenario '{name}'; expected one of "
                          f"{', '.join(SCENARIO_NAMES)}")
    return Scenario(name=name, master_seed=1, **_SCENARIO_DEFAULTS[name])


def split_modes(text: str) -> tuple[str, ...]:
    """Mode tokens of a comma-separated list, blanks dropped."""
    return tuple(token.strip() for token in text.split(",") if token.strip())


#: Each SystemConfig field with the type its value is parsed as.
_CONFIG_KEYS = {f.name: type(f.default)
                for f in dataclasses.fields(SystemConfig)}
#: Each Scenario field a config file sets, after the scenario key, with
#: its parser, in print order.
_SCENARIO_KEYS: dict[str, Callable[[str], object]] = {
    "sweep_variable": str, "sweep_start": float, "sweep_stop": float,
    "sweep_step": float, "modes": split_modes, "trials": int,
    "master_seed": int}


def _parse_lines(text: str) -> dict[str, tuple[int, str]]:
    entries: dict[str, tuple[int, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in ("scenario", *_CONFIG_KEYS, *_SCENARIO_KEYS):
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (lineno, value)
    return entries


def _converted(entries: dict[str, tuple[int, str]],
               keys: dict[str, Callable[[str], object]]) -> dict:
    """The values of the given keys that entries holds, parsed."""
    out = {}
    for key, kind in keys.items():
        if key in entries:
            lineno, value = entries[key]
            try:
                out[key] = kind(value)
            except ValueError as exc:
                raise ConfigError(
                    f"line {lineno}: invalid {kind.__name__} for '{key}': "
                    f"'{value}'") from exc
    return out


def parse_config(text: str,
                 scenario_name: str | None = None
                 ) -> tuple[SystemConfig, Scenario]:
    """Parse config text; see load_config."""
    entries = _parse_lines(text)
    if scenario_name is None:
        scenario_name = entries.get("scenario", (0, "custom"))[1]
    cfg_kwargs = _converted(entries, _CONFIG_KEYS)
    scn = default_scenario(scenario_name)
    scn_kwargs = _converted(entries, _SCENARIO_KEYS)
    return SystemConfig(**cfg_kwargs), dataclasses.replace(scn, **scn_kwargs)


def load_config(path: str,
                scenario_name: str | None = None
                ) -> tuple[SystemConfig, Scenario]:
    """Load a config file, overlaying it on the named scenario's defaults.

    scenario_name (e.g. from a CLI flag) wins over a ``scenario`` key in
    the file; with neither, the file configures the ``custom`` scenario.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config(text, scenario_name)


def _show(value) -> str:
    """A field's value as a config file writes it and parse_config reads
    it back: floats as repr(), so a round trip is bit-exact."""
    if isinstance(value, tuple):
        return ",".join(value)
    return value if isinstance(value, str) else repr(value)


def format_config(config: SystemConfig, scenario: Scenario) -> str:
    """Render a config + scenario as a loadable key = value document."""
    lines = ["# system"]
    lines += [f"{key} = {_show(getattr(config, key))}" for key in _CONFIG_KEYS]
    lines += ["", "# sweep", f"scenario = {scenario.name}"]
    lines += [f"{key} = {_show(getattr(scenario, key))}"
              for key in _SCENARIO_KEYS]
    return "\n".join(lines) + "\n"


def _point_config(config: SystemConfig, scenario: Scenario,
                  x_db: float) -> SystemConfig:
    if scenario.sweep_variable == "rho_dl_db":
        rho_t_db = x_db - config.beta_ue_db
    else:
        rho_t_db = x_db - config.beta_si_db
    try:
        point = dataclasses.replace(config, rho_t_db=rho_t_db)
        if scenario.name == "fig-correlated":
            check_correlated_snrs(point)
        return point
    except ConfigError as exc:
        raise ConfigError(f"sweep point {scenario.sweep_variable} = "
                          f"{x_db!r}: {exc}") from None


def _closed_forms(scenario: Scenario, mode_token: str,
                  cfg: SystemConfig) -> tuple[float | None, float | None]:
    if scenario.name == "fig-perfect":
        if mode_token == HALF_DUPLEX:
            point = closedform.rate_half_duplex(cfg)
        else:
            point = closedform.rate_perfect(SicMode(mode_token), cfg)
        return point.dl_rate, point.ul_rate
    if scenario.name in ("fig-imperfect-si", "custom"):
        if mode_token == HALF_DUPLEX:
            return None, None
        return None, closedform.ul_rate_imperfect(SicMode(mode_token), cfg)
    return None, None


def run_scenario(config: SystemConfig, scenario: Scenario,
                 progress: Callable[[str], None] | None = None
                 ) -> list[SweepRow]:
    """Run every (mode, sweep point) pair and return rows in CSV order.

    Rows are mode-major in the scenario's mode order, sweep value
    ascending within a mode.  One engine call draws every trial once for
    all modes and points (common random numbers keyed by master_seed).
    A mode with no successful trial gets NaN simulated rates.
    """
    xs = scenario.sweep_values()
    configs = [_point_config(config, scenario, x) for x in xs]

    sampler = (CorrelatedSampler(config)
               if scenario.name == "fig-correlated" else None)

    curves = [metrics.Curve(SicMode.SUBTRACTION, si_free=True)
              if token == HALF_DUPLEX else metrics.Curve(SicMode(token))
              for token in scenario.modes]
    if progress is not None:
        for token in scenario.modes:
            progress(f"{scenario.name}: mode {token}, {len(xs)} points, "
                     f"{scenario.trials} trials")
    reports = metrics.monte_carlo_sweep(
        configs, curves, trials=scenario.trials,
        master_seed=scenario.master_seed,
        perfect=scenario.name == "fig-perfect", sampler=sampler)

    rows: list[SweepRow] = []
    for token, curve_reports in zip(scenario.modes, reports):
        rows.extend(_mode_rows(scenario, token, xs, configs, curve_reports))
    return rows


def _mode_rows(scenario: Scenario, token: str, xs: Sequence[float],
               configs: Sequence[SystemConfig],
               reports: Sequence[metrics.RateReport]) -> list[SweepRow]:
    """The CSV rows of one mode, sweep value ascending."""
    scale = 0.5 if token == HALF_DUPLEX else 1.0
    rows = []
    for x, cfg, rep in zip(xs, configs, reports):
        dl_cf, ul_cf = _closed_forms(scenario, token, cfg)
        rows.append(SweepRow(
            scenario=scenario.name, mode=token, x_db=x,
            dl_sim=scale * rep.dl_sum_rate, dl_sim_ci=scale * rep.dl_ci95,
            ul_sim=scale * rep.ul_sum_rate, ul_sim_ci=scale * rep.ul_ci95,
            dl_cf=dl_cf, ul_cf=ul_cf,
            trials=rep.trials, failures=rep.failures))
    return rows


def _fmt(value: float | None) -> str:
    if value is None or math.isnan(value):
        return ""
    return f"{value:.6g}"


#: The real-valued CSV columns, in order.
_REAL_COLUMNS = CSV_HEADER.split(",")[2:9]


def render_csv(rows: Sequence[SweepRow]) -> str:
    """CSV text with LF line endings and 6-significant-digit reals.

    A field with no value (None or NaN) is left empty; an infinite value
    raises ValueError naming its row and column.
    """
    lines = [CSV_HEADER]
    for r in rows:
        reals = [getattr(r, column) for column in _REAL_COLUMNS]
        for column, value in zip(_REAL_COLUMNS, reals):
            if value is not None and math.isinf(value):
                raise ValueError(f"mode {r.mode} at x_db = {_fmt(r.x_db)}: "
                                 f"{column} is {value}, which a CSV field "
                                 f"cannot hold")
        lines.append(",".join([r.scenario, r.mode, *map(_fmt, reals),
                               str(r.trials), str(r.failures)]))
    return "\n".join(lines) + "\n"


def emit_csv(rows: Sequence[SweepRow], destination: str | TextIO) -> None:
    """Write rows to a path or text stream, byte-deterministically."""
    text = render_csv(rows)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        destination.write(text)
