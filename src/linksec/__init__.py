"""Secrecy capacity of surface- and relay-assisted links under eavesdropping.

Analytic ergodic/secrecy capacity evaluators for three architectures
(intelligent reflecting surface, decode-and-forward relay, fixed-gain
amplify-and-forward relay) at any positive fading shapes, an independent
Monte Carlo channel simulator, and a sweep/validation CLI.

The package runs on NumPy and the standard library alone.  The
special-function module ``linksec.specfun`` (the Mellin-Barnes contour
engine, built on SciPy from the ``test`` extra) is not imported here;
import it by name.
"""

from .capacity import (
    CapacityEstimate,
    affg_ergodic_capacity,
    affg_snr_constant,
    df_ergodic_capacity,
    ergodic_capacity_irs,
    secrecy_capacity,
)
from .channels import FadingParams, Scenario
from .config import ConfigError, ParsedConfig, parse_config, parse_config_text, reference_config
from .montecarlo import McConfig, branches
from .quadrature import AccuracyError
from .sweep import (
    SweepRow,
    SweepSpec,
    figure_preset,
    rows_to_csv,
    run_sweep,
    validate,
)

__version__ = "0.1.0"
