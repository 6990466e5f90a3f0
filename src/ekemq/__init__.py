"""Single-server queues with Erlang-staged arrivals and service under
periodically varying rates.

The package computes the asymptotic periodic law of the queue length, the
waiting-time and sojourn-time distributions of a virtual customer, and the
busy-period distribution.  Two independent computational routes are kept for
everything: a root-series method built on the characteristic equation of the
phase process, and direct ODE integration of truncated systems.  Agreement
between the routes is the correctness argument, so neither route is ever
expressed in terms of the other.
"""

from .model import (
    RateFunction,
    ModelSpec,
    GeneratorBlocks,
    ergodic_margin,
    generator_blocks,
)
from .roots import (
    CharacteristicRoot,
    RootSet,
    characteristic_roots,
    build_root_set,
)
from .oracle import (
    PeriodicDistribution,
    BoundaryFunctions,
    integrate_periodic,
    extract_boundary,
)
from .series import (
    LevelEstimate,
    SeriesEvaluator,
    phase_weights,
)
from .bounds import (
    ErrorBudget,
    root_modulus_bracket,
    tail_constant,
    truncation_error_bound,
    empirical_decay,
)
from .waiting import (
    CDFCurve,
    conditional_wait_cdf,
    wait_cdf,
    oracle_wait_cdf,
)
from .busy import (
    VolterraSolution,
    net_change_matrix,
    busy_period_cdf,
    busy_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "RateFunction",
    "ModelSpec",
    "GeneratorBlocks",
    "ergodic_margin",
    "generator_blocks",
    "CharacteristicRoot",
    "RootSet",
    "characteristic_roots",
    "build_root_set",
    "PeriodicDistribution",
    "BoundaryFunctions",
    "integrate_periodic",
    "extract_boundary",
    "LevelEstimate",
    "SeriesEvaluator",
    "phase_weights",
    "ErrorBudget",
    "root_modulus_bracket",
    "tail_constant",
    "truncation_error_bound",
    "empirical_decay",
    "CDFCurve",
    "conditional_wait_cdf",
    "wait_cdf",
    "oracle_wait_cdf",
    "VolterraSolution",
    "net_change_matrix",
    "busy_period_cdf",
    "busy_oracle",
    "__version__",
]
