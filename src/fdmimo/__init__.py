"""Link-level simulator for a full-duplex multi-antenna base station.

The base station transmits to K downlink users with M antennas while
receiving from K uplink users on N antennas, so its own transmission leaks
into its receiver.  The package simulates ergodic sum rates under three
ways of handling that self-interference (no cancellation, subtracting an
estimate, steering transmit beams into the receive array's null space),
and provides the matching closed-form rate approximations plus experiment
scenarios that write deterministic CSVs.
"""

from .channel import (ArrayGeometry, ConfigError, CorrelatedSampler,
                      RicianParams, SystemConfig, db_to_linear,
                      default_geometry, free_space_gains, generate_iid,
                      jakes_correlation, si_pathloss_gains)
from .closedform import (ClosedFormPoint, rate_half_duplex, rate_perfect,
                         ul_rate_imperfect, ul_sinr_imperfect)
from .estimation import (EstimationModel, estimate, model_from_config,
                         uldl_error_variance)
from .experiments import (Scenario, SweepRow, default_scenario, emit_csv,
                          format_config, load_config, parse_config,
                          render_csv, run_scenario, save_config)
from .metrics import (Curve, RateReport, dl_sinr, monte_carlo,
                      monte_carlo_sweep, residual_si, sum_rate, ul_sinr)
from .numerics import (RngStream, bessel_j0, hermitian_sqrt,
                       left_pseudo_inverse, right_pseudo_inverse)
from .transceiver import SicMode, build

__version__ = "0.1.0"
