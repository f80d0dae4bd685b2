"""Link-level simulator for a full-duplex multi-antenna base station.

The base station transmits to K downlink users with M antennas while
receiving from K uplink users on N antennas, so its own transmission leaks
into its receiver.  The package simulates ergodic sum rates under three
ways of handling that self-interference (no cancellation, subtracting an
estimate, steering transmit beams into the receive array's null space),
and provides the matching closed-form rate approximations plus experiment
scenarios that write deterministic CSVs.

The root holds the names README's library example imports and the ones
perfbench/ reads; everything else is imported from its submodule.
"""

from .channel import CorrelatedSampler, SystemConfig
from .closedform import rate_perfect
from .experiments import (default_scenario, parse_config, render_csv,
                          run_scenario)
from .metrics import monte_carlo
from .transceiver import SicMode

__version__ = "0.1.0"
