"""Single-server queues with Erlang-staged arrivals and service under
periodically varying rates.

The package computes the asymptotic periodic law of the queue length, the
waiting-time and sojourn-time distributions of a virtual customer, and the
busy-period distribution.  Two independent computational routes are kept for
everything: a root-series method built on the characteristic equation of the
phase process, and a direct solution of the Kolmogorov systems (harmonic
balance on unbounded levels for the periodic law, ODE integration for the
busy period).  Agreement between the routes is the correctness argument, so
neither route is ever expressed in terms of the other.
"""

from .model import (
    RateFunction,
    ModelSpec,
    ergodic_margin,
)
from .roots import (
    CharacteristicRoot,
    RootSet,
    characteristic_roots,
    build_root_set,
)
from ._fourier import BoundaryFunctions
from .oracle import (
    PeriodicDistribution,
    integrate_periodic,
    extract_boundary,
    busy_oracle,
)
from .series import (
    SeriesEvaluator,
    phase_weights,
)
from .bounds import (
    ErrorBudget,
    tail_constant,
    truncation_error_bound,
)
from .waiting import (
    CDFCurve,
    wait_cdf,
    oracle_wait_cdf,
)
from .busy import (
    VolterraSolution,
    busy_period_cdf,
)

__version__ = "0.1.0"

__all__ = [
    "RateFunction",
    "ModelSpec",
    "ergodic_margin",
    "CharacteristicRoot",
    "RootSet",
    "characteristic_roots",
    "build_root_set",
    "PeriodicDistribution",
    "BoundaryFunctions",
    "integrate_periodic",
    "extract_boundary",
    "busy_oracle",
    "SeriesEvaluator",
    "phase_weights",
    "ErrorBudget",
    "tail_constant",
    "truncation_error_bound",
    "CDFCurve",
    "wait_cdf",
    "oracle_wait_cdf",
    "VolterraSolution",
    "busy_period_cdf",
    "__version__",
]
