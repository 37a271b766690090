"""Secrecy capacity of surface- and relay-assisted links under eavesdropping.

Closed-form ergodic/secrecy capacity evaluators for three architectures
(intelligent reflecting surface, decode-and-forward relay, fixed-gain
amplify-and-forward relay), an independent Monte Carlo channel simulator,
and a sweep/validation CLI.
"""

from .capacity import (
    CapacityEstimate,
    affg_ccdf,
    affg_ergodic_capacity,
    affg_secrecy,
    affg_snr_constant,
    df_ccdf,
    df_ergodic_capacity,
    df_secrecy,
    ergodic_capacity_irs,
    irs_secrecy,
    mgf_irs_element,
    secrecy_capacity,
)
from .channels import (
    FadingParams,
    GammaGammaParams,
    Geometry,
    ScenarioIrs,
    ScenarioRelay,
    pathloss,
    sample_gamma,
    snr_scaled_params,
)
from .config import ConfigError, ParsedConfig, parse_config, parse_config_text, reference_config
from .montecarlo import (
    McConfig,
    mc_branch_estimates,
    mc_secrecy,
)
from .quadrature import (
    AccuracyError,
    QuadratureResult,
    integrate_semi_infinite,
)
from .specfun import log_gamma, meijer_g_2_1_1_2
from .sweep import (
    SweepRow,
    SweepSpec,
    figure_preset,
    read_rows_csv,
    rows_to_csv,
    run_sweep,
    validate,
)

__version__ = "0.1.0"
