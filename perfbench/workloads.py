"""Benchmark workloads: the config text each one feeds the program.

The program sees only the generated text, which goes through
``fdmimo.parse_config``.  The benchmark seed picks the master seed of the
Monte Carlo run; the reference bank under ``reference/`` holds the CSV of
every sweep workload at each of the REFERENCE_SEEDS master seeds, so any
benchmark seed maps to a recorded reference (seeds congruent modulo
REFERENCE_SEEDS share their inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

REFERENCE_SEEDS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str     # "sweep": run_scenario + render_csv; "check": run_all
    body: str     # config lines apart from trials and master_seed
    trials: int   # Monte Carlo trials per repetition (check: base trials)

    def master_seed(self, seed: int) -> int:
        return 1 + seed % REFERENCE_SEEDS

    def config_text(self, seed: int) -> str:
        return (f"{self.body}trials = {self.trials}\n"
                f"master_seed = {self.master_seed(seed)}\n")


# Sweep trial counts size one repetition at about one second on one core.
# check runs at 500 base trials, the least at which all nine criteria pass
# at every master seed of the bank; criterion 2's 5 percent band fails by
# chance at 200 base trials on 3 of the 32 seeds (the suite's tolerances
# assume its default of 10 000).
WORKLOADS = {w.name: w for w in (
    Workload("iid-sweep", "sweep",
             "scenario = fig-imperfect-si\n"
             "modes = nosic,stt,sps,hd\n"
             "sweep_start = -10.0\nsweep_stop = 30.0\nsweep_step = 2.0\n",
             trials=200),
    Workload("corr-sweep", "sweep",
             "scenario = fig-correlated\n"
             "modes = stt,sps\n"
             "sweep_start = 0.0\nsweep_stop = 30.0\nsweep_step = 2.0\n",
             trials=300),
    Workload("iid-point", "sweep",
             "scenario = custom\n"
             "modes = sps\n"
             "sweep_start = 10.0\nsweep_stop = 10.0\nsweep_step = 1.0\n",
             trials=600),
    Workload("check", "check",
             "scenario = custom\n",
             trials=500),
)}
