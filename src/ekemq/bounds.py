"""A-priori control of the truncated root series.

Three ingredients:

* a bracket for the modulus chi**(1/k) of the outside roots at frequency n,
  pinned to 2 pi |n| / lam_bar with a rate-dependent half-width;
* a window constant C_n that dominates |f| / |chi| for the coefficient of
  any root at frequency n;
* a closed-form tail bound for the series truncated at order q, valid from
  level 3 up, obtained by summing the bracket's lower edge against C_q over
  the discarded frequencies.

Each piece can be inapplicable (a nonpositive denominator, too low a level,
too small an order); that state is reported explicitly and is never
conflated with a zero bound.  `empirical_decay` reports the measured
coefficient sizes so the a-priori picture can be checked against reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import composite_gauss
from .model import ModelSpec
from .oracle import BoundaryFunctions
from .roots import RootSet
from .series import SeriesEvaluator


def root_modulus_bracket(spec: ModelSpec, n: int) -> tuple[float, float]:
    """Interval certain to contain |chi**(1/k)| for outside roots at frequency n.

    Reads (2 pi |n| +- (lam_bar + 2 mu_bar) / sqrt(2)) / lam_bar.  The lower
    edge is only informative once it clears 1, which happens for |n| of a
    few at typical rates.
    """
    lb = spec.arrival_mean
    mb = spec.service_mean
    half = (lb + 2.0 * mb) / math.sqrt(2.0)
    center = 2.0 * math.pi * abs(n)
    return (center - half) / lb, (center + half) / lb


def tail_constant(spec: ModelSpec, t: float, n: int) -> float:
    """Window constant C_n with |f| <= C_n * |chi| for roots at frequency n.

    C_n = integral over [t-1, t] of (lam(u) + mu(u))
            * exp((mu_bar / lam_bar) * Lam(u, t)) du
          / (m * sqrt((lam_bar + mu_bar)**2 + 4 pi**2 n**2) - (k + m) * mu_bar)

    Raises ValueError when the denominator is not positive, which makes the
    constant inapplicable (it happens for small |n| unless service strongly
    dominates).
    """
    lb = spec.arrival_mean
    mb = spec.service_mean
    denom = spec.m * math.sqrt((lb + mb) ** 2 + 4.0 * math.pi ** 2 * n ** 2) \
        - (spec.k + spec.m) * mb
    if denom <= 0.0:
        raise ValueError(
            f"tail constant not applicable at n={n}: denominator {denom:g} <= 0"
        )
    u, w = composite_gauss(t - 1.0, t)
    lam_cum = spec.arrival.accumulated(t) - spec.arrival.accumulated(u)
    total_rate = spec.arrival.value(u) + spec.service.value(u)
    numer = float(np.dot(w, total_rate * np.exp((mb / lb) * lam_cum)))
    return numer / denom


@dataclass(frozen=True)
class ErrorBudget:
    """Tail bound of the level-`level` series truncated at order `order`.

    applicable=False (with a reason) is distinct from a zero bound; `bound`
    is None in that case.
    """

    level: int
    order: int
    applicable: bool
    bound: float | None = None
    tail_const: float | None = None
    reason: str | None = None


def truncation_error_bound(spec: ModelSpec, t: float, level: int,
                           order: int) -> ErrorBudget:
    """Closed-form bound on the discarded |n| > order part of the series.

    bound = (m * C_order / pi)
            * (2 pi order - (lam_bar + 2 mu_bar) / sqrt(2))**(k (2 - level) + 1)
            / ((k (level - 2) - 1) * lam_bar**(k (2 - level)))

    Preconditions: level >= 3; k (level - 2) > 1 so the comparison integral
    converges; the bracket's lower edge 2 pi order > (lam_bar + 2 mu_bar) /
    sqrt(2); and C_order applicable.  Anything else yields an inapplicable
    budget, never a number.
    """

    def na(reason: str) -> ErrorBudget:
        return ErrorBudget(level=level, order=order, applicable=False, reason=reason)

    if level < 3:
        return na("bound needs level >= 3")
    k, m = spec.k, spec.m
    if k * (level - 2) - 1 <= 0:
        return na("bound needs k*(level-2) > 1")
    lb = spec.arrival_mean
    mb = spec.service_mean
    half = (lb + 2.0 * mb) / math.sqrt(2.0)
    edge = 2.0 * math.pi * order - half
    if edge <= 0.0:
        return na("order too small: 2 pi order must exceed (lam+2 mu)/sqrt(2)")
    try:
        c_q = tail_constant(spec, t, order)
    except ValueError as exc:
        return na(str(exc))

    expo = k * (2 - level) + 1
    bound = (m * c_q / math.pi) * edge ** expo \
        / ((k * (level - 2) - 1) * lb ** (k * (2 - level)))
    return ErrorBudget(level=level, order=order, applicable=True,
                       bound=float(bound), tail_const=float(c_q))


def empirical_decay(spec: ModelSpec, roots: RootSet, boundary: BoundaryFunctions,
                    t: float):
    """Measured |f| per frequency: list of (n, max over branches of |f(t)|).

    Purely diagnostic; no decay rate is claimed.  Useful when choosing the
    truncation order and for confronting C_n with reality.
    """
    if roots.spec != spec:
        raise ValueError("root set belongs to a different model")
    ev = SeriesEvaluator(roots, boundary)
    f_abs = np.abs(ev.coefficients([t])[0])
    out: dict[int, float] = {}
    for root, size in zip(roots.roots, f_abs):
        out[root.n] = max(out.get(root.n, 0.0), float(size))
    return sorted(out.items())
