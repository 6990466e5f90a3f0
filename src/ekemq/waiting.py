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
_DIRECT_TAIL_RADIUS the bracket is summed directly, for every horizon and
root at once, as one matrix product

    sum_{q=m+1}^{Q} (M x)**q / q! = sum_q (M**q / q!) * x**q = (A @ B)[M, x],

A the real (horizons x terms) table of M**q / q! and B the complex
(terms x roots) table of x**q, each one cumulative product.

The root sum runs over the roots with n >= 0 only, with the level
series' fold weights (1 at n = 0, 2 at n > 0, `series`), and keeps the
real part.

The idle state contributes an atom at zero wait, or for the sojourn the
m-stage Erlang P{N >= m}, which each route takes from sums it already forms:
`wait_cdf` adds exp(-M) M**m / m! to its P{N > m}.

`oracle_wait_cdf` computes the same quantity from the ODE oracle's law
with no root in sight.  It reads the law at time u once (`states_at`, the
series of the idle states and the solved levels, built once per law) and
sums each level over arrival stage.  Its thresholds n = m j - s run
through the consecutive integers 1..n_max, n_max = m * solved_levels
(shifted by m for the sojourn), as the levels past solved_levels are exact
zeros, so with w_n the law's weight at threshold n, C_i = sum_{n <= i} w_n
and p_i the Poisson(M) pmf, summation by parts gives

    sum_n w_n P{N >= n} = sum_{i <= n_max} p_i C_i + C_{n_max} P{N > n_max}
                        = C_{n_max} - sum_{i <= n_max} p_i (C_{n_max} - C_i),

as P{N > n_max} = 1 - sum_{i <= n_max} p_i: one pmf table and one
matrix-vector product, and no incomplete gamma.  Every term of the product
is nonnegative, so nothing cancels in it.  Its sojourn atom is 1 minus the
table's first m terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._fourier import BoundaryFunctions
from .model import ModelSpec
from .oracle import PeriodicDistribution
from .roots import RootSet
from .series import SeriesEvaluator

_KINDS = ("queue", "sojourn")
_DIRECT_TAIL_RADIUS = 8.0
_EPS = np.finfo(float).eps

# means above which a pmf row cannot start from exp(-mean), which leaves the
# normal range past about 708 and is 0 past 745, zeroing the whole row
_SEED_LIMIT = 700.0


def _poisson_pmf_rows(mean: np.ndarray, top: int) -> np.ndarray:
    """p_i(M) = exp(-M) M**i / i! for i = 0..top, one row per mean M.

    A row is one cumulative product of the ratios p_i / p_{i-1} = M / i
    from p_0 = exp(-M).  For M above _SEED_LIMIT that seed underflows, so
    such a row starts at its mode a = min(floor(M), top) instead (1 for
    top = 0, a row of p_0 alone), where

        log p_a = a log1p((M - a) / a) - (M - a) - log(2 pi a) / 2
                  - (1/(12 a) - 1/(360 a**3) + 1/(1260 a**5))

    is Stirling's series for log a!, and takes the ratios outward both ways,
    every one of them at most 1.  The series is good to a few ulps for
    a >= 100 (the naive a log M - M - lgamma(a + 1) loses about 1e-12 to
    cancellation at M = 1000); a = top < 100 leaves every p_i of the row
    below 1e-170, where its error does not show.
    """
    rows = np.empty((mean.size, top + 1))
    rows[:, 0] = np.exp(-mean)
    np.divide(mean[:, None], np.arange(1, top + 1), out=rows[:, 1:])
    np.cumprod(rows, axis=1, out=rows)
    far = mean > _SEED_LIMIT
    if far.any():
        big = mean[far][:, None]
        a = np.minimum(np.floor(big), max(top, 1))
        i = np.arange(top + 1)
        log_mode = (a * np.log1p((big - a) / a) - (big - a) - 0.5 * np.log(2.0 * np.pi * a)
                    - (1.0 / 12.0 - (1.0 / 360.0 - 1.0 / (1260.0 * a * a)) / (a * a)) / a)
        up = np.cumprod(np.where(i > a, big / np.maximum(i, 1), 1.0), axis=1)
        down = np.cumprod(np.where(i < a, (i + 1.0) / big, 1.0)[:, ::-1], axis=1)[:, ::-1]
        rows[far] = np.exp(log_mode) * up * down
    return rows


def _exp_tail(mean: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """exp(z) - sum_{q=0}^{m} z**q / q! at z = outer(mean, x), x complex.

    Entries with |z| < _DIRECT_TAIL_RADIUS sum the terms q = m+1..Q
    directly, as one product of the tables mean**q / q! and x**q; Q is the
    first order at which no term can exceed eps times the first.  The
    others, if any, subtract.
    """
    z = np.outer(mean, x)
    modulus = np.abs(z)
    near = modulus < _DIRECT_TAIL_RADIUS
    radius = float(modulus[near].max(initial=0.0))
    top, ratio = m + 1, 1.0
    while ratio > _EPS:
        top += 1
        ratio *= radius / top
    scaled = np.cumprod(mean[:, None] / np.arange(1, top + 1), axis=1)[:, m:]
    powers = np.cumprod(np.broadcast_to(x, (top, x.size)), axis=0)[m:]
    # scaled is real, so the complex product is one real product with the
    # interleaved (real, imaginary) columns of powers
    out = (scaled @ powers.view(float)).view(complex)

    if not near.all():
        zf = z[~near]
        term = partial = np.ones_like(zf)
        for q in range(1, m + 1):
            term = term * zf * (1.0 / q)
            partial = partial + term
        out[~near] = np.exp(zf) - partial
    return out


@dataclass(frozen=True, eq=False)
class CDFCurve:
    """A waiting-time (or sojourn-time) CDF sampled on a horizon grid.

    Curves compare and hash by identity, as their arrays have no single
    truth value.
    """

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
    if not np.isfinite(horizons).all():
        raise ValueError("horizons must be finite")
    if np.any(horizons < 0):
        raise ValueError("horizons must be nonnegative")
    return horizons


def _check_u(u) -> None:
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u}")


def wait_cdf(spec: ModelSpec, roots: RootSet, boundary: BoundaryFunctions,
             u: float, horizons, kind: str = "queue") -> CDFCurve:
    """Series route to the waiting-time law of a virtual customer at time u."""
    horizons = _horizons(kind, horizons)
    _check_u(u)
    if roots.spec != spec:
        raise ValueError("root set belongs to a different model")
    m = spec.m

    # the half set n >= 0 with its fold weights, as in the level series
    ev = SeriesEvaluator(roots, boundary)
    factors = ev._factors
    x, chi = factors.yik, factors.chi                  # x = chi**(-1/m)
    prefactor = factors.weight * ev._coefficients([u])[0] * factors.stage_sum * x / (1.0 - x)

    mu_cum = spec.service.cumulative(u, u + horizons)
    idle_mass = float(boundary.idle_at([u])[0].sum())

    if kind == "queue":
        tail_factor = 1.0 - np.exp(np.outer(mu_cum, x - 1.0))
        atom = idle_mass * np.ones_like(mu_cum)
    else:
        decay = np.exp(-mu_cum)
        terms = [mu_cum ** q / math.factorial(q) for q in range(m + 1)]
        over_m = 1.0 - decay * sum(terms)              # P{N > m}
        tail_factor = over_m[:, None] - chi[None, :] * decay[:, None] \
            * _exp_tail(mu_cum, x, m)
        atom = idle_mass * (over_m + decay * terms[-1])  # P{N >= m}

    series_part = tail_factor.real @ prefactor.real - tail_factor.imag @ prefactor.imag
    values = atom + series_part

    return CDFCurve(kind=kind, u=float(u), horizons=horizons.copy(),
                    values=values, source="series", order=roots.order)


def oracle_wait_cdf(spec: ModelSpec, dist: PeriodicDistribution, u: float,
                    horizons, kind: str = "queue") -> CDFCurve:
    """ODE-oracle route: condition on the oracle's law at time u."""
    horizons = _horizons(kind, horizons)
    _check_u(u)
    if dist.spec != spec:
        raise ValueError("distribution belongs to a different model")
    m = spec.m

    idle, levels = dist.states_at([u])
    idle_mass = float(idle[0].sum())
    # each solved level summed over arrival stage, (solved_levels, m)
    by_stage = levels[0, :dist.solved_levels].reshape(-1, spec.k, m).sum(axis=1)

    # weight of threshold n = m*j - s, n = 1..m*solved_levels, cumulated
    # from n = 0; the sojourn's thresholds start m further on
    shift = m if kind == "sojourn" else 0
    top = m * len(by_stage) + shift
    cumulated = np.concatenate((np.zeros(shift + 1), np.cumsum(by_stage[:, ::-1])))

    mu_cum = spec.service.cumulative(u, u + horizons)
    pmf = _poisson_pmf_rows(mu_cum, top)
    values = cumulated[-1] - pmf @ (cumulated[-1] - cumulated)
    if kind == "queue":
        values = values + idle_mass
    else:
        values = values + idle_mass * (1.0 - pmf[:, :m].sum(axis=1))

    return CDFCurve(kind=kind, u=float(u), horizons=horizons.copy(),
                    values=values, source="oracle")
