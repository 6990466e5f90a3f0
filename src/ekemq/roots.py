"""Characteristic roots of the periodic phase process.

Averaging the phase generator over one period and asking for solutions of
the form (level weight) * exp(2 pi i n t) leads, for each integer frequency
n, to the scalar equation

    lam_bar * y**(k+m) - (lam_bar + mu_bar + 2 pi i n) * y**k + mu_bar = 0

in an auxiliary variable y.  The transform variable actually carried by the
series is chi = y**(k*m); writing everything through integer powers of y is
what keeps the fractional powers chi**(1/k) = y**m and chi**(1/m) = y**k on
a consistent branch, so y is stored and chi is always derived.

For every n the equation has exactly k solutions with |y| <= 1 and m with
|y| > 1 (stability makes y = 1, which appears at n = 0, count as inside).
Only the m outside solutions enter the level series.  build_root_set
solves them by the companion-matrix eigenvalue route (numpy.roots' matrix,
built directly); the tests hold it against an independent solver, the
fixed-point iteration `outer_roots_by_iteration` in `tests/reference.py`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .model import ModelSpec, _as_index

# |y| <= 1 + _INSIDE_TOL counts as an inside root; y = 1 at n = 0 must land
# inside and no other root comes near the circle for stable models.
_INSIDE_TOL = 1e-9

_POLY_RESIDUAL_SCALE = 1e-10
_EXP_RESIDUAL_TOL = 1e-8
_NEWTON_STEPS = 3

# Outside roots of one frequency closer than this count as collided.
_COLLISION_GAP = 1e-8


def _poly(spec: ModelSpec, n: int) -> tuple:
    """(lam_bar, lam_bar + mu_bar + 2 pi i n, mu_bar, k, m): the
    characteristic polynomial of frequency n, read off the spec once."""
    lb = spec.arrival_mean
    mb = spec.service_mean
    return lb, lb + mb + 2j * math.pi * n, mb, spec.k, spec.m


def _poly_coeffs(poly: tuple) -> np.ndarray:
    """Coefficients of the degree k+m characteristic polynomial, leading first."""
    lb, b, mb, k, m = poly
    c = np.zeros(k + m + 1, dtype=complex)
    c[0] = lb
    c[m] = -b
    c[-1] = mb
    return c


def _poly_eval(poly: tuple, y: complex) -> complex:
    lb, b, mb, k, m = poly
    return lb * y ** (k + m) - b * y ** k + mb


def _poly_deriv(poly: tuple, y: complex) -> complex:
    lb, b, _, k, m = poly
    return (k + m) * lb * y ** (k + m - 1) - k * b * y ** (k - 1)


def _by_angle(ys) -> list:
    """ys sorted by arg(y) in [0, 2 pi), ties broken by |y|."""
    return sorted(ys, key=lambda y: (cmath.phase(y) % (2.0 * math.pi), abs(y)))


def _collision(ys):
    """The first pair (i, j), i < j, of ys closer than _COLLISION_GAP, or None."""
    return next(((i, j) for i in range(len(ys)) for j in range(i + 1, len(ys))
                 if abs(ys[i] - ys[j]) < _COLLISION_GAP), None)


def characteristic_roots(spec: ModelSpec, n: int):
    """All k+m roots for frequency n, split into (inside, outside) by |y|.

    Roots come from the companion matrix and are polished with
    _NEWTON_STEPS Newton steps.  Exactly k roots must satisfy
    |y| <= 1 + 1e-9 and m must lie strictly outside; any other split
    signals a bug or a broken model and raises RuntimeError.  Both groups
    are sorted by arg(y) in [0, 2 pi).  n must be an integer.
    """
    n = _as_index(n, "n")
    poly = _poly(spec, n)
    c = _poly_coeffs(poly)
    # numpy.roots' companion matrix, built here: c[0] and c[-1] are nonzero,
    # so numpy.roots would strip nothing, and the eigenvalues keep its bits
    companion = np.diag(np.ones(len(c) - 2, dtype=complex), -1)
    companion[0, :] = -c[1:] / c[0]
    ys = np.linalg.eigvals(companion)
    polished = []
    for y in ys:
        y = complex(y)
        for _ in range(_NEWTON_STEPS):
            d = _poly_deriv(poly, y)
            if d == 0:
                break
            y = y - _poly_eval(poly, y) / d
        polished.append(y)

    inside = [y for y in polished if abs(y) <= 1.0 + _INSIDE_TOL]
    outside = [y for y in polished if abs(y) > 1.0 + _INSIDE_TOL]
    if len(inside) != spec.k or len(outside) != spec.m:
        raise RuntimeError(
            f"root split failed at n={n}: {len(inside)} inside, "
            f"{len(outside)} outside (wanted {spec.k}/{spec.m})"
        )
    return _by_angle(inside), _by_angle(outside)


@dataclass(frozen=True)
class CharacteristicRoot:
    """One outside root y at frequency n, with its stage counts.

    chi = y**(k*m) is the series variable; every fractional power of chi the
    series needs is an integer power of y:

        chi**(1/k) = y**m,   chi**(1/m) = y**k,   chi**(-j) = y**(-j*k*m).
    """

    n: int
    branch: int
    y: complex
    k: int
    m: int
    poly_residual: float
    exp_residual: float

    @property
    def chi(self) -> complex:
        return self.y ** (self.k * self.m)

    @property
    def chi_root_k(self) -> complex:
        """chi**(1/k) on the branch carried by y."""
        return self.y ** self.m

    @property
    def chi_root_m(self) -> complex:
        """chi**(1/m) on the branch carried by y."""
        return self.y ** self.k


def _make_root(poly: tuple, n: int, branch: int, y: complex) -> CharacteristicRoot:
    lb, _, mb, k, m = poly
    scale = lb + mb + 2.0 * math.pi * abs(n)
    poly_res = abs(_poly_eval(poly, y))
    if poly_res > _POLY_RESIDUAL_SCALE * scale:
        raise RuntimeError(
            f"root residual {poly_res:.3e} too large at n={n} (scale {scale:.3e})"
        )
    exponent = lb * (y ** m - 1.0) + mb * (y ** (-k) - 1.0) - 2j * math.pi * n
    exp_res = abs(cmath.exp(exponent) - 1.0)
    if exp_res > _EXP_RESIDUAL_TOL:
        raise RuntimeError(f"exponential residual {exp_res:.3e} too large at n={n}")
    return CharacteristicRoot(
        n=n, branch=branch, y=complex(y), k=k, m=m,
        poly_residual=poly_res, exp_residual=exp_res,
    )


@dataclass(frozen=True)
class RootSet:
    """Outside roots for every frequency |n| <= order, ordered by (n, branch).

    `_derived` keeps what other modules compute from the roots alone (the
    series factors of `series.SeriesEvaluator`), filled on first use and
    living as long as the set; it takes no part in comparison or repr.
    """

    spec: ModelSpec
    order: int
    roots: tuple[CharacteristicRoot, ...]
    _derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __iter__(self):
        return iter(self.roots)

    def __len__(self) -> int:
        return len(self.roots)


def build_root_set(spec: ModelSpec, order: int) -> RootSet:
    """Collect the m outside roots for every n in [-order, order].

    Roots at -n are the conjugates of those at n (the polynomial's
    coefficients conjugate when n flips sign), so only n >= 0 is solved and
    the negative frequencies are filled by reflection.  Branch labels sort
    each frequency's roots by arg(y) in [0, 2 pi).  Pairwise distinctness
    within each frequency is enforced.
    """
    order = _as_index(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")

    collected: list[CharacteristicRoot] = []
    for n in range(order + 1):
        _, outside = characteristic_roots(spec, n)
        if _collision(outside) is not None:
            raise RuntimeError(f"outside roots collide at n={n}")
        poly = _poly(spec, n)
        collected.extend(
            _make_root(poly, n, b, y) for b, y in enumerate(outside)
        )
        if n > 0:
            mirrored = _by_angle(y.conjugate() for y in outside)
            poly = _poly(spec, -n)
            collected.extend(
                _make_root(poly, -n, b, y) for b, y in enumerate(mirrored)
            )

    collected.sort(key=lambda r: (r.n, r.branch))
    return RootSet(spec=spec, order=order, roots=tuple(collected))
