"""Root-series representation of the periodic level probabilities.

For every outside characteristic root (frequency n, branch b) with variable
y and chi = y**(k*m), the probability of a busy level j >= 1 in phase (a, s)
is a finite truncation of

    p_j(t)[(a, s)] = sum over roots of
        f(t) * chi**(-j) * chi**(-a/k) * chi**(s/m)

where the coefficient attached to a root is the window integral

    f(t) = (1 / denom) * integral over u in [t-1, t] of
           exp(Lam(u,t) * (chi**(1/k) - 1) + M(u,t) * (chi**(-1/m) - 1))
           * drive(u) du,
    denom = m * lam_bar * chi**(1/k) - k * mu_bar * chi**(-1/m),
    drive(u) = idle[k-1](u) * chi * lam(u)
             - mu(u) * sum_a first[(a, m-1)](u) * chi**(a/k),

Lam and M being the cumulative rates over [u, t].  All fractional powers of
chi are integer powers of y (chi**(1/k) = y**m, chi**(-1/m) = y**(-k)), so
branch bookkeeping never leaves the root object.

Two evaluation routes are kept.  `root_coefficient` performs the literal
window quadrature for one root at one time.  `SeriesEvaluator` exploits the
fact that at an exact root the integrand times exp(-W0(u)) is 1-periodic
(the root condition makes the period factor exp(2 pi i n) exactly one), so
one period-integral per root serves every t; tests pin the two routes
against each other.

`SeriesEvaluator` computes each ingredient of that period integral once per
object whose data it depends on: the period rule once, at import of
`_quad`; the boundary at the rule's nodes once per boundary (boundaries are
immutable); the root-only factors once per root set; the period integral
itself once per root set and boundary; and the growth factors once per time
grid.

The module also carries the scalar transition coefficient of the free
(boundary-ignoring) process, `net_change_probability`; only tests call it,
as a reference for the busy-period module's transition weights.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from . import _quad
from ._quad import composite_gauss
from .model import ModelSpec
from .oracle import BoundaryFunctions
from .roots import CharacteristicRoot, RootSet

_DENOM_FLOOR = 1e-12


def phase_weights(root: CharacteristicRoot) -> np.ndarray:
    """Phase profile chi**(-a/k) * chi**(s/m) as a flat (km,) vector."""
    a_part = root.chi_root_k ** (-np.arange(root.k))
    s_part = root.chi_root_m ** (np.arange(root.m))
    return np.kron(a_part, s_part)


def _drive_values(spec: ModelSpec, u: np.ndarray, idle: np.ndarray,
                  first: np.ndarray, chi: np.ndarray,
                  arrival_pows: np.ndarray) -> np.ndarray:
    """drive(u) for a batch of roots, shape (len(u), n_roots).

    idle and first are the boundary slices sampled at u, chi has shape
    (n_roots,) and arrival_pows[a, r] = chi_r**(a/k).
    """
    lam = spec.arrival.value(u)
    mu = spec.service.value(u)
    idle_last = idle[:, spec.k - 1]
    cols = np.arange(spec.k) * spec.m + (spec.m - 1)
    first_last = first[:, cols]                         # (nu, k)
    return (idle_last * lam)[:, None] * chi[None, :] \
        - mu[:, None] * (first_last @ arrival_pows)


def _denominator(spec: ModelSpec, ym, yik):
    return spec.m * spec.arrival_mean * ym - spec.k * spec.service_mean * yik


def root_coefficient(root: CharacteristicRoot, t: float,
                     boundary: BoundaryFunctions, spec: ModelSpec) -> complex:
    """Window-integral coefficient of one root at one time, by quadrature
    over [t-1, t]."""
    if (root.k, root.m) != (spec.k, spec.m):
        raise ValueError("root does not belong to this model")
    ym = root.chi_root_k
    yik = 1.0 / root.chi_root_m
    chi = root.chi
    denom = _denominator(spec, ym, yik)
    if abs(denom) < _DENOM_FLOOR:
        raise RuntimeError(f"degenerate series denominator at n={root.n}")

    u, w = composite_gauss(t - 1.0, t)
    lam_cum = spec.arrival.accumulated(t) - spec.arrival.accumulated(u)
    mu_cum = spec.service.accumulated(t) - spec.service.accumulated(u)
    growth = np.exp(lam_cum * (ym - 1.0) + mu_cum * (yik - 1.0))
    apows = (ym ** np.arange(spec.k))[:, None]
    drive = _drive_values(spec, u, boundary.idle_at(u), boundary.first_at(u),
                          np.array([chi]), apows)[:, 0]
    return complex(np.dot(w, growth * drive) / denom)


class _RootFactors:
    """The factors of the series that depend on one root set alone.

    Built once per `RootSet` and kept in it: the root powers
    chi**(1/k) = y**m, chi**(-1/m) = y**(-k), chi and log chi, the
    denominators, the arrival powers chi**(a/k) and the phase rows, all
    read-only; and the period integral for the last boundary asked for.
    exp(-W0) at the rule's nodes, a (nodes, n_roots) array, is formed inside
    the period integral and not kept.
    """

    def __init__(self, roots: RootSet):
        spec = roots.spec
        ys = np.array([r.y for r in roots.roots], dtype=complex)
        k, m = spec.k, spec.m
        self.spec = spec
        self.ym = ys ** m
        self.yik = ys ** (-k)
        self.chi = ys ** (k * m)
        self.log_chi = np.log(self.chi)
        self.denom = _denominator(spec, self.ym, self.yik)
        if np.any(np.abs(self.denom) < _DENOM_FLOOR):
            raise RuntimeError("degenerate series denominator in root set")
        self.apows = self.ym[None, :] ** np.arange(k)[:, None]    # (k, n_roots)
        rows_a = self.ym[:, None] ** (-np.arange(k))[None, :]
        rows_s = (ys[:, None] ** k) ** np.arange(m)[None, :]
        self.rows = np.einsum("ra,rs->ras", rows_a, rows_s).reshape(len(ys), k * m)
        for arr in (self.ym, self.yik, self.chi, self.log_chi, self.denom,
                    self.apows, self.rows):
            arr.flags.writeable = False
        self._last = None

    def period_integral(self, boundary: BoundaryFunctions) -> np.ndarray:
        """Per-root (1/denom) * integral over [0, 1] of exp(-W0(u)) * drive(u),
        read-only, kept for the last boundary asked for.  A boundary is
        immutable, so its identity is a valid key."""
        if self._last is None or self._last[0] is not boundary:
            u, w = _quad.PERIOD_NODES, _quad.PERIOD_WEIGHTS
            lam0 = self.spec.arrival.accumulated(u)
            mu0 = self.spec.service.accumulated(u)
            decay = np.exp(-(np.outer(lam0, self.ym - 1.0)
                             + np.outer(mu0, self.yik - 1.0)))
            idle, first = boundary.period_samples
            drive = _drive_values(self.spec, u, idle, first, self.chi, self.apows)
            coef = (w @ (drive * decay)) / self.denom
            coef.flags.writeable = False
            self._last = (boundary, coef)
        return self._last[1]


def _root_factors(roots: RootSet) -> _RootFactors:
    """The factors of one root set, built once per root set and kept in its
    `_derived` slot."""
    factors = roots._derived.get(_RootFactors)
    if factors is None:
        factors = roots._derived[_RootFactors] = _RootFactors(roots)
    return factors


class SeriesEvaluator:
    """Evaluates the root series for many times and levels at once.

    The constructor pays one period-integral per root; every later time
    sweep is a closed-form exponential away.  Exactness of the underlying
    period shift (hence agreement with `root_coefficient`) rests on the root
    residual, which the root constructor already certifies.

    Nothing is computed per evaluator that an earlier one on the same data
    computed: the period rule is built once at import, the boundary is
    sampled at its nodes once per boundary, the root-only factors (powers,
    denominators, arrival powers, phase rows) once per root set, and the
    period integral once per root set and boundary.  An evaluator built again on a root set and boundary, as
    `waiting.wait_cdf` does for every epoch, does no quadrature at all.
    The growth factors exp(W0(t)) are kept for the last time array asked
    for (compared by value, against a private copy), so a level sweep on one
    grid computes them once; every call still returns a fresh array.
    """

    def __init__(self, roots: RootSet, boundary: BoundaryFunctions):
        spec = roots.spec
        if boundary.first.shape[1] != spec.phase_count or boundary.idle.shape[1] != spec.k:
            raise ValueError("boundary belongs to a different model")
        self.spec = spec
        factors = _root_factors(roots)
        self._ym, self._yik, self._chi = factors.ym, factors.yik, factors.chi
        self._log_chi, self._rows = factors.log_chi, factors.rows

        self._coef = factors.period_integral(boundary)
        self._memo_t = None
        self._memo_f = None

    def _coefficients(self, t) -> np.ndarray:
        """f(t) as kept for the last time array; callers must not write it."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self._memo_t is None or not np.array_equal(t, self._memo_t):
            lam0 = self.spec.arrival.accumulated(t)
            mu0 = self.spec.service.accumulated(t)
            growth = np.exp(np.outer(lam0, self._ym - 1.0)
                            + np.outer(mu0, self._yik - 1.0))
            self._memo_f = growth * self._coef[None, :]
            self._memo_t = t.copy()
        return self._memo_f

    def coefficients(self, t) -> np.ndarray:
        """Per-root coefficients f(t), shape (len(t), n_roots)."""
        return self._coefficients(t).copy()

    def level_matrix(self, level: int, t) -> np.ndarray:
        """Complex series values for one level, shape (len(t), km)."""
        if level < 1:
            raise ValueError("series levels start at 1; level 0 is the idle state")
        f = self._coefficients(t)
        # exp(-j log chi) instead of chi**(-j): the direct power overflows to
        # nan for far-out roots at deep levels, where the true value underflows
        with np.errstate(under="ignore"):
            shift = np.exp(-float(level) * self._log_chi)
        return (f * shift[None, :]) @ self._rows


def _log_poisson(counts: np.ndarray, rate: float) -> np.ndarray:
    """Log pmf of Poisson(rate) at integer counts >= 0; rate may be zero."""
    if rate <= 0.0:
        return np.where(counts == 0, 0.0, -np.inf)
    return counts * math.log(rate) - rate - gammaln(counts + 1.0)


def net_change_probability(spec: ModelSpec, u: float, t: float, n: int,
                           a1: int, s1: int, a2: int, s2: int) -> float:
    """Transition weight of the free phase process over [u, t].

    Ignoring the empty-system boundary, stage completions over the window
    are two independent Poisson streams with means Lam and M (the cumulative
    rates).  This returns the weight at net level change n between phases
    (a1, s1) and (a2, s2): with a = (a2 - a1) mod k and s = (s2 - s1) mod m,

        exp(-Lam - M) * sum_{l >= max(0, -n)}
            M**(l m + s) / (l m + s)!  *  Lam**((n+l) k + a) / ((n+l) k + a)!

    The sum is cut far beyond the mode of the service-side Poisson factor,
    where terms are below 1e-16 of the total.  At u = t the weight is
    exactly the identity's entry (1 when n = 0 and the phases match).
    """
    k, m = spec.k, spec.m
    if not (0 <= a1 < k and 0 <= a2 < k and 0 <= s1 < m and 0 <= s2 < m):
        raise ValueError("phase indices out of range")
    a = (a2 - a1) % k
    s = (s2 - s1) % m
    lam_cum = float(spec.arrival.cumulative(u, t))
    mu_cum = float(spec.service.cumulative(u, t))

    l_lo = max(0, -n)
    l_hi = l_lo + int((mu_cum + 12.0 * math.sqrt(mu_cum) + 45.0) / m) + 2
    ell = np.arange(l_lo, l_hi + 1)
    log_terms = (_log_poisson(ell * m + s, mu_cum)
                 + _log_poisson((n + ell) * k + a, lam_cum))
    with np.errstate(under="ignore"):
        return float(np.exp(log_terms).sum())
