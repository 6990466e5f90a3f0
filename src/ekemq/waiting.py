"""Waiting-time and sojourn-time distributions of a virtual customer.

A customer finding the system at level j >= 1 with service stage s waits for
m*j - s more stage completions before entering service (and m more to leave
it).  Since stage completions after time u form an inhomogeneous Poisson
stream with mean M(u, u+t), each conditional distribution is a Poisson tail
in closed form, and the unconditional one is the level series summed against
those tails.  The level sum telescopes: with x = chi**(-1/m),

    sum over j >= 1, s of chi**(-j) chi**(s/m) P{N >= m j - s}
        = sum over i >= 1 of x**i P{N >= i}
        = x / (1 - x) * (1 - E[x**N]),      E[x**N] = exp(M (x - 1)),

so the truncation order only enters through the root set, never through a
level cutoff.  The sojourn variant shifts the threshold by m, which turns
the factor into

    x / (1 - x) * (P{N > m} - chi exp(-M) (exp(M x) - sum_{q=0}^{m} (M x)**q / q!)).

For far roots |M x| is small and |chi| huge, so forming the bracket by
subtraction would hand its rounding error to chi; where |M x| is below
_DIRECT_TAIL_RADIUS the bracket is summed directly as sum_{q>m} (M x)**q / q!.

The idle state contributes an atom at zero wait (or an m-stage Erlang for
the sojourn).  `oracle_wait_cdf` computes the same quantity from a truncated
ODE distribution with no root in sight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec
from .oracle import BoundaryFunctions, PeriodicDistribution
from .roots import RootSet
from .series import SeriesEvaluator

_KINDS = ("queue", "sojourn")
_DIRECT_TAIL_RADIUS = 8.0


def _poisson_tail(threshold, mean):
    """P{Poisson(mean) >= threshold}; thresholds <= 0 give 1 exactly."""
    # imported here, so that a run that computes no wait does not pay the
    # 60 ms import of scipy.special
    from scipy.special import gammainc
    threshold = np.asarray(threshold, dtype=float)
    mean = np.asarray(mean, dtype=float)
    return np.where(threshold <= 0, 1.0, gammainc(np.maximum(threshold, 1.0), mean))


def _exp_tail(z: np.ndarray, m: int) -> np.ndarray:
    """exp(z) - sum_{q=0}^{m} z**q / q! for complex z, elementwise.

    Entries with |z| < _DIRECT_TAIL_RADIUS sum the terms q > m directly,
    until no term can exceed eps times the first; the others subtract.
    """
    near = np.abs(z) < _DIRECT_TAIL_RADIUS
    term = partial = np.ones_like(z)
    for q in range(1, m + 1):
        term = term * z * (1.0 / q)
        partial = partial + term
    zn = np.where(near, z, 0.0)
    radius = float(np.abs(zn).max(initial=0.0))
    term = np.where(near, term, 0.0) * zn * (1.0 / (m + 1))
    direct, q, ratio = term, m + 1, 1.0
    while ratio > np.finfo(float).eps:
        q += 1
        term = term * zn * (1.0 / q)
        direct = direct + term
        ratio *= radius / q
    return np.where(near, direct, np.exp(z) - partial)


def conditional_wait_cdf(spec: ModelSpec, level: int, s: int, u: float, t):
    """P{wait <= t} for a customer arriving at u to level `level`, stage s.

    The wait ends at the (m*level - s)-th service-stage completion after u,
    so this is the Poisson tail P{N(M(u, u+t)) >= m*level - s}.  The level
    must be >= 1; the idle state carries no wait and is the caller's case.
    """
    if level < 1:
        raise ValueError("conditional wait needs level >= 1")
    if not 0 <= s < spec.m:
        raise ValueError("service stage out of range")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("horizons must be nonnegative")
    mu_cum = spec.service.cumulative(u, u + t)
    out = _poisson_tail(spec.m * level - s, mu_cum)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CDFCurve:
    """A waiting-time (or sojourn-time) CDF sampled on a horizon grid."""

    kind: str
    u: float
    horizons: np.ndarray
    values: np.ndarray
    source: str
    order: int | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")


def _horizons(kind: str, horizons) -> np.ndarray:
    """Checked horizons of a wait CDF of `kind`, as a 1-D float array."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    horizons = np.atleast_1d(np.asarray(horizons, dtype=float))
    if horizons.ndim != 1:
        raise ValueError("horizons must be a number or a 1-D array")
    if np.any(horizons < 0):
        raise ValueError("horizons must be nonnegative")
    return horizons


def wait_cdf(spec: ModelSpec, roots: RootSet, boundary: BoundaryFunctions,
             u: float, horizons, kind: str = "queue") -> CDFCurve:
    """Series route to the waiting-time law of a virtual customer at time u."""
    horizons = _horizons(kind, horizons)
    if roots.spec != spec:
        raise ValueError("root set belongs to a different model")
    m = spec.m

    ev = SeriesEvaluator(roots, boundary)
    f_u = ev.coefficients([u])[0]                      # per-root coefficient
    x = ev._yik                                        # chi**(-1/m)
    chi = ev._chi
    stage_sum = (ev._ym[:, None] ** (-np.arange(spec.k))[None, :]).sum(axis=1)
    prefactor = f_u * stage_sum * x / (1.0 - x)

    mu_cum = spec.service.cumulative(u, u + horizons)
    idle_mass = float(boundary.idle_at([u])[0].sum())

    if kind == "queue":
        tail_factor = 1.0 - np.exp(np.outer(mu_cum, x - 1.0))
        atom = idle_mass * np.ones_like(mu_cum)
    else:
        partial_real = sum(mu_cum ** q / math.factorial(q) for q in range(m + 1))
        over_m = 1.0 - np.exp(-mu_cum) * partial_real
        tail_factor = over_m[:, None] - chi[None, :] * np.exp(-mu_cum)[:, None] \
            * _exp_tail(np.outer(mu_cum, x), m)
        atom = idle_mass * _poisson_tail(m, mu_cum)

    series_part = np.real(tail_factor * prefactor[None, :]).sum(axis=1)
    values = atom + series_part

    return CDFCurve(kind=kind, u=float(u), horizons=horizons.copy(),
                    values=values, source="series", order=roots.order)


def oracle_wait_cdf(spec: ModelSpec, dist: PeriodicDistribution, u: float,
                    horizons, kind: str = "queue") -> CDFCurve:
    """ODE-oracle route: condition on the truncated state at time u."""
    horizons = _horizons(kind, horizons)
    if dist.spec != spec:
        raise ValueError("distribution belongs to a different model")
    m = spec.m

    idle, levels = dist.states_at([u])
    idle_mass = float(idle[0].sum())
    levels = levels[0]                                 # (cap, km)
    by_stage = levels.reshape(dist.level_cap, spec.k, m).sum(axis=1)

    j_idx = np.arange(1, dist.level_cap + 1)
    thresholds = (m * j_idx[:, None] - np.arange(m)[None, :]).ravel()
    if kind == "sojourn":
        thresholds = thresholds + m

    mu_cum = spec.service.cumulative(u, u + horizons)
    tails = _poisson_tail(thresholds[None, :], mu_cum[:, None])
    values = tails @ by_stage.ravel()
    if kind == "queue":
        values = values + idle_mass
    else:
        values = values + idle_mass * _poisson_tail(m, mu_cum)

    return CDFCurve(kind=kind, u=float(u), horizons=horizons.copy(),
                    values=values, source="oracle")
