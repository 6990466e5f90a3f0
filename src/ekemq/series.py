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

Lam and M being the cumulative rates over [u, t], and idle and first the
boundary: the idle and level-1 columns of the periodic law's solved Fourier
series (`oracle.extract_boundary`).  All fractional powers of
chi are integer powers of y (chi**(1/k) = y**m, chi**(-1/m) = y**(-k)), so
y alone carries the branch.

`SeriesEvaluator` exploits the fact that at an exact root the integrand
times exp(-W0(u)) is 1-periodic (the root condition makes the period factor
exp(2 pi i n) exactly one), so one period-integral per root serves every t.
The tests pin it against the literal window quadrature for one root at one
time, `root_coefficient` in `tests/reference.py`.

The law is real and the roots at -n are the exact conjugates of those at n
(`roots.build_root_set`), so each n < 0 root's term is the conjugate of its
mirror's.  `SeriesEvaluator` therefore sums over the n >= 0 roots only,
with weight 1 at n = 0 and 2 at n > 0 (an exact scaling), and takes the
real part: half the exponentials of the full sum, and a level sweep that
is one real matrix product per level.

`SeriesEvaluator` computes each ingredient of that period integral once per
object whose data it depends on: the period rule once, at import of
`_quad`; the boundary's series at the rule's nodes once per boundary
(boundaries are immutable); the root-only factors once per root set; the
period integral itself once per root set and boundary; and the growth
factors once per time grid.

A level sweep sums each level over the roots that can move it.  A root's
terms at level j are bounded by B = weight * max_t |f(t)| * max |row| *
|chi|**(-j), which falls with j fastest for the far roots, so past the
first levels the half set's far end carries nothing a double can hold
beside the near roots' terms: the sweep multiplies the half set, in the
root set's (n, branch) order, up to the last root whose B is within
2**-64 of the level's largest.  Deep levels then multiply a handful of
roots, not all 2q+1 frequencies.  Among the kept roots the sweep also
cuts every root whose smallest term or smallest level row entry would be
subnormal, where x86 multiplies in microcode at 10 to 100 times the
normal cost, and flushes to zero any subnormal real or imaginary part
left in the level rows, so that its product sees zeros and normal numbers
only.  `SeriesEvaluator.level_matrix` states both rules and their bounds.
"""

from __future__ import annotations

import numpy as np

from . import _quad
from ._fourier import BoundaryFunctions
from .model import ModelSpec, _as_index
from .roots import CharacteristicRoot, RootSet, _listing

_DENOM_FLOOR = 1e-12

# the smallest normal double, 2**-1022, and its log: a root is cut from a
# level when the log of its smallest term or level row entry falls below it
_TINY = np.finfo(float).tiny
_LOG_TINY = float(np.log(_TINY))

# log 2**-64: a level's sum stops at the last root whose term bound is at
# least 2**-64 (eps / 4096) of the level's largest
_LOG_KEEP_RATIO = -64.0 * float(np.log(2.0))


def phase_weights(root: CharacteristicRoot) -> np.ndarray:
    """Phase profile chi**(-a/k) * chi**(s/m) as a flat (km,) vector."""
    a_part = (root.y ** root.m) ** (-np.arange(root.k))
    s_part = (root.y ** root.k) ** (np.arange(root.m))
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


class _RootFactors:
    """The factors of the series that depend on one root set alone.

    Built once per `RootSet` and kept in it, for its half set of roots with
    n >= 0, in the order of `RootSet.y`: the root powers chi**(1/k) = y**m,
    chi**(-1/m) = y**(-k), chi and log chi, the denominators, the arrival
    powers chi**(a/k), the phase rows, the fold weights (1 at n = 0, 2 at
    n > 0), the log of each weighted row's smallest and largest modulus,
    the stage sums sum_a chi**(-a/k) of the wait series; and, per root of
    the whole set, `column`, the half-set column of the root or of its mirror,
    and `mirrored`, true at n < 0 (`roots._listing`).  All are read-only.
    The period integral is kept for the last boundary asked for; exp(-W0)
    at the rule's nodes, a (nodes, n_half) array, is formed inside it and
    not kept.
    """

    def __init__(self, roots: RootSet):
        spec = roots.spec
        ys = roots.y.ravel()
        k, m = spec.k, spec.m
        self.spec = spec
        self.column, self.mirrored, _ = _listing(roots.y)
        self.weight = np.where(np.arange(len(ys)) < m, 1.0, 2.0)
        self.ym = ys ** m
        self.yik = ys ** (-k)
        self.chi = ys ** (k * m)
        self.log_chi = np.log(self.chi)
        self.denom = _denominator(spec, self.ym, self.yik)
        if np.any(np.abs(self.denom) < _DENOM_FLOOR):
            raise RuntimeError("degenerate series denominator in root set")
        self.apows = self.ym[None, :] ** np.arange(k)[:, None]    # (k, n_half)
        rows_a = self.ym[:, None] ** (-np.arange(k))[None, :]
        rows_s = (ys[:, None] ** k) ** np.arange(m)[None, :]
        self.rows = np.einsum("ra,rs->ras", rows_a, rows_s).reshape(len(ys), k * m)
        size = np.abs(self.rows)
        self.log_row_min = np.log(self.weight * size.min(axis=1))
        self.log_row_max = np.log(self.weight * size.max(axis=1))
        self.stage_sum = rows_a.sum(axis=1)
        for arr in (self.column, self.mirrored, self.weight, self.ym, self.yik,
                    self.chi, self.log_chi, self.denom, self.apows, self.rows,
                    self.log_row_min, self.log_row_max, self.stage_sum):
            arr.flags.writeable = False
        self._last = None

    def period_integral(self, boundary: BoundaryFunctions) -> np.ndarray:
        """Per half-set root (1/denom) * integral over [0, 1] of exp(-W0(u))
        * drive(u), read-only, kept for the last boundary asked for.  A
        boundary is immutable, so its identity is a valid key."""
        if self._last is None or self._last[0] is not boundary:
            u, w = _quad.PERIOD_NODES, _quad.PERIOD_WEIGHTS
            lam0 = self.spec.arrival.accumulated(u)
            mu0 = self.spec.service.accumulated(u)
            decay = np.exp(-(np.outer(lam0, self.ym - 1.0)
                             + np.outer(mu0, self.yik - 1.0)))
            idle, first = boundary.period_samples
            drive = _drive_values(self.spec, u, idle, first, self.chi, self.apows)
            # summed node by node down each column, not by a BLAS product,
            # whose order of summation (and so its rounding) depends on the
            # column's place in the matrix and on the thread count
            coef = np.add.reduce(w[:, None] * (drive * decay), axis=0) / self.denom
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

    The constructor pays one period-integral per root of the half set
    n >= 0; every later time sweep is a closed-form exponential away.
    Exactness of the underlying period shift (hence agreement with the
    literal window quadrature) rests on the root residual, which the root
    constructor already certifies.

    Nothing is computed per evaluator that an earlier one on the same data
    computed: the period rule is built once at import, the boundary is
    evaluated at its nodes once per boundary, the root-only factors
    (powers, denominators, arrival powers, phase rows) once per root set,
    and the period integral once per root set and boundary.  An evaluator
    built again on a root set and boundary, as `waiting.wait_cdf` does for
    every epoch, does no quadrature at all.  A boundary of another model
    than the root set's is refused.
    The growth factors exp(W0(t)), and with them f(t) and the real matrix
    [Re f | Im f] of the level sweep, are kept for the last time array asked
    for (compared by value, against a private copy), so a level sweep on
    one grid computes them once; every call still returns a fresh array.
    """

    def __init__(self, roots: RootSet, boundary: BoundaryFunctions):
        spec = roots.spec
        if boundary.spec != spec:
            raise ValueError("boundary belongs to a different model")
        self.spec = spec
        self._factors = _root_factors(roots)
        self._coef = self._factors.period_integral(boundary)
        self._memo_t = None
        self._memo_f = None
        self._memo_sweep = None

    def _coefficients(self, t) -> np.ndarray:
        """f(t) of the half set, shape (len(t), n_half), as kept for the
        last time array; callers must not write it."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self._memo_t is None or not np.array_equal(t, self._memo_t):
            lam0 = self.spec.arrival.accumulated(t)
            mu0 = self.spec.service.accumulated(t)
            growth = np.exp(np.outer(lam0, self._factors.ym - 1.0)
                            + np.outer(mu0, self._factors.yik - 1.0))
            self._memo_f = growth * self._coef[None, :]
            self._memo_sweep = None
            self._memo_t = t.copy()
        return self._memo_f

    def coefficients(self, t) -> np.ndarray:
        """Per-root coefficients f(t), shape (len(t), n_roots), in the root
        set's order: each n < 0 column is the conjugate of its mirror's."""
        f = self._coefficients(t)[:, self._factors.column]
        mirrored = self._factors.mirrored
        f[:, mirrored] = f[:, mirrored].conj()
        return f

    def _level_operands(self, level: int, t) -> tuple[np.ndarray, np.ndarray]:
        """The two real operands of `level_matrix`'s product, over the first
        n roots of the half set: [Re f | Im f] of those roots, shape
        (len(t), 2 n), and [Re B; -Im B], shape (2 n, km), B = weight *
        chi**(-level) * rows on those roots, with the subnormally cut roots'
        rows zero and every subnormal part flushed to zero.  n is the place
        of the last root whose term bound is at least 2**-64 of the level's
        largest; when n is the whole half set, the left operand is the one
        kept with f(t).

        Kept with [Re f | Im f] on first use, per root: the log of min(1,
        min_t |f(t)|) over the nonzero f(t) (a zero f(t) makes zero terms,
        never subnormal ones; a root with no nonzero f(t) gets 0), and the
        log of max_t |f(t)| (-inf for a root with no nonzero f(t)).
        """
        level = _as_index(level, "level")
        if level < 1:
            raise ValueError("series levels start at 1; level 0 is the idle state")
        f = self._coefficients(t)
        if self._memo_sweep is None:
            size = np.abs(f)
            f_min = size.min(axis=0, where=size > 0.0, initial=np.inf)
            with np.errstate(divide="ignore"):
                log_f_max = np.log(size.max(axis=0, initial=0.0))
            self._memo_sweep = (np.hstack([f.real, f.imag]),
                                np.log(np.minimum(f_min, 1.0)), log_f_max)
        f_parts, log_f_floor, log_f_max = self._memo_sweep
        fac = self._factors
        half = len(fac.log_chi)
        # log |chi|**level; both cuts compare logs
        decay = float(level) * fac.log_chi.real
        log_bound = log_f_max + fac.log_row_max - decay
        top = log_bound.max(initial=-np.inf)
        kept = np.flatnonzero(log_bound >= top + _LOG_KEEP_RATIO)
        # no root passes only when a bound is nan: then all are summed
        n = kept[-1] + 1 if len(kept) else half
        # exp(-j log chi) instead of chi**(-j): the direct power overflows to
        # nan for far-out roots at deep levels, where the true value underflows
        with np.errstate(under="ignore"):
            shift = np.exp(-float(level) * fac.log_chi[:n]) * fac.weight[:n]
        # log_row_min has the weight in it
        shift[log_f_floor[:n] + fac.log_row_min[:n] - decay[:n] < _LOG_TINY] = 0.0
        b = shift[:, None] * fac.rows[:n]
        b_parts = np.vstack([b.real, -b.imag])
        b_parts[np.abs(b_parts) < _TINY] = 0.0
        if n < half:
            f_parts = np.hstack([f_parts[:, :n], f_parts[:, half:half + n]])
        return f_parts, b_parts

    def level_matrix(self, level: int, t) -> np.ndarray:
        """Series values for one level, real, shape (len(t), km).

        The value is the real part of the sum over the half set of
        weight * f(t) * chi**(-level) * row, which is the sum over every
        root: each n < 0 root's term is the conjugate of its mirror's, and
        the n = 0 roots are real or pair among themselves.  It is one real
        product, [Re f | Im f] @ [Re B; -Im B] with B = weight *
        chi**(-level) * rows, the level rows, over the roots the two cuts
        below keep.

        The sum stops at a root of the half set.  Every term of a root has
        modulus at most B_r = weight * max_t |f(t)| * max |row| *
        |chi|**(-level), and the sum runs over the half set in the root
        set's (n, branch) order up to the last root with B_r >= 2**-64 *
        max_r B_r, compared in logs; the roots after it are left out.  A
        value then moves by at most the sum of B_r over the roots left out,
        which is below (roots left out / 4096) * eps * max_r B_r, up to the
        rounding of the logs and of the product: the products over the kept
        roots and over the whole half set sum in different orders, and each
        rounds by at most about (roots summed) * eps * sum_r B_r.  A level
        that leaves no root out multiplies the whole half set as before; the
        far roots' B_r falls fastest with the level, so past the first
        levels the sum runs over a few near roots only.

        Among the kept roots, a root is cut (its row of B set to 0) when its
        smallest level row entry, weight * |chi|**(-level) * min |row|, times
        min(1, min_t |f(t)|) (the minimum over the nonzero f(t)) lies below
        2**-1022, the smallest normal double, compared in logs: then neither
        its smallest term nor its smallest entry of B is normal.  The row at
        phase (0, 0) is 1, so min |row| <= 1, and the entries of B and terms
        of every root not cut have modulus 2**-1022 or more.  A real or
        imaginary part of such an entry can still lie below 2**-1022 when its
        modulus does not; each such part is flushed to zero.  So the
        product's right operand holds zeros and normal numbers only and does
        no subnormal arithmetic, which on x86 runs in microcode at 10 to 100
        times the normal cost.  (A part of f far below its modulus could
        still be subnormal; none is on the reference sweep of levels 1-30.)
        Each term of a root whose row of B is cut or flushed moves by less
        than sqrt(2) * 2**-1022 * max_t |f| * (max |row| / min |row|) /
        min(1, min_t |f|), so a value moves by at most the sum of that bound
        over those roots, up to the rounding of the logs and of the sum.

        On the reference model at orders 3 to 40 and levels 1-30, levels 1
        and 2 keep every root, order 40 keeps 44 of its 164 half-set roots
        at level 4, 8 at level 10 and 4 from level 21 on, and no value moves
        by more than 5.1e-18 of its level's largest.
        """
        f_parts, rows = self._level_operands(level, t)
        return f_parts @ rows
