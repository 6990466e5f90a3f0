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
Only the m outside solutions enter the level series; those at -n are the
conjugates of those at n, so a `RootSet` stores the n >= 0 roots alone.

`characteristic_roots` solves any number of frequencies in one array pass:
numpy.roots' companion matrix of every frequency, built directly, goes into
one stacked `np.linalg.eigvals` call, and the Newton polish, the split by
modulus, the sort by angle and the residuals run on complex arrays in
numpy's own arithmetic.  build_root_set calls it once for n = 0..order.
The tests hold it against a Python loop over single frequencies
(`root_set_by_frequency` in `tests/reference.py`), within the forward
error that two backward-stable roots allow, and against an independent
solver, the fixed-point iteration `outer_roots_by_iteration`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._fourier import _read_only
from .model import ModelSpec, _as_index

# |y| <= 1 + _INSIDE_TOL counts as an inside root; y = 1 at n = 0 must land
# inside and no other root comes near the circle for stable models.
_INSIDE_TOL = 1e-9

# A root's |p(y)| is refused above _POLY_RESIDUAL_TOL times the sum of the
# moduli of p's terms at it, lam_bar |y|**(k+m) + |b| |y|**k + mu_bar: for
# small m the outside roots are large, and terms of 1e12 leave a rounding
# |p(y)| far above the coefficients' scale.  |exp(...) - 1| is refused above
# _EXP_RESIDUAL_TOL, unscaled, as the exponential is 1 at a root.
_POLY_RESIDUAL_TOL = 1e-13
_EXP_RESIDUAL_TOL = 1e-8
_NEWTON_STEPS = 3

# Outside roots of one frequency closer than this count as collided.
_COLLISION_GAP = 1e-8


def _shift(spec: ModelSpec, freqs: np.ndarray) -> np.ndarray:
    """lam_bar + mu_bar + 2 pi i n, the coefficient of -y**k, as a column
    with one row per n of freqs."""
    return (spec.arrival_mean + spec.service_mean + 2j * math.pi * freqs)[:, None]


def _angle_order(ys: np.ndarray) -> np.ndarray:
    """The order that sorts each row of ys by arg(y) in [0, 2 pi), ties
    broken by |y|, equal keys kept in their order."""
    angle = np.arctan2(ys.imag, ys.real) % (2.0 * math.pi)
    return np.lexsort((np.hypot(ys.real, ys.imag), angle), axis=-1)


def characteristic_roots(spec: ModelSpec, n):
    """The k+m roots of frequency n, split into (inside, outside) by |y|.

    n is an integer, or a 1-D integer array of frequencies.  For an integer
    the result is two lists of complex numbers; for an array it is two
    arrays, (len(n), k) and (len(n), m), row i holding frequency n[i].

    All frequencies' companion matrices (numpy.roots' matrix, built
    directly) go into one stacked `np.linalg.eigvals` call, so each row
    keeps numpy.roots' bits.  Each root is then polished with _NEWTON_STEPS
    Newton steps in numpy's complex arithmetic (a root whose derivative is
    zero stops there).  At n = 0, where the coefficients are real, a root
    within _COLLISION_GAP / 2 of the real axis is made real, so the
    positive real outside root has branch 0.  Exactly k roots must satisfy
    |y| <= 1 + 1e-9 and m must lie strictly outside; any other split
    signals a bug or a broken model and raises RuntimeError naming the
    first such frequency.  Both groups are sorted by arg(y) in [0, 2 pi),
    ties by |y|.
    """
    if np.ndim(n) == 0:
        inside, outside = characteristic_roots(spec, [_as_index(n, "n")])
        return inside[0].tolist(), outside[0].tolist()
    freqs = np.asarray(n)
    if freqs.ndim != 1 or freqs.dtype.kind not in "iu":
        raise TypeError(f"n must be an integer or a 1-D integer array, got {n!r}")
    lb, mb, k, m = spec.arrival_mean, spec.service_mean, spec.k, spec.m
    b = _shift(spec, freqs)

    # numpy.roots' companion matrix of each frequency: the coefficients
    # c[0] = lam_bar, c[m] = -b, c[k+m] = mu_bar are nonzero at both ends,
    # so numpy.roots would strip nothing
    c = np.zeros((len(freqs), k + m + 1), dtype=complex)
    c[:, 0] = lb
    c[:, m:m + 1] = -b
    c[:, -1] = mb
    below = np.arange(k + m - 1)
    companion = np.zeros((len(freqs), k + m, k + m), dtype=complex)
    companion[:, below + 1, below] = 1.0
    companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    ys = np.linalg.eigvals(companion)

    moving = np.ones(ys.shape, dtype=bool)
    for _ in range(_NEWTON_STEPS):
        d = (k + m) * lb * ys ** (k + m - 1) - k * b * ys ** (k - 1)
        moving &= d != 0
        step = (lb * ys ** (k + m) - b * ys ** k + mb) / np.where(moving, d, 1.0)
        ys = np.where(moving, ys - step, ys)
    # at n = 0 the coefficients are real: a root that rounding leaves within
    # _COLLISION_GAP / 2 of the real axis is real, as a conjugate pair that
    # close would collide
    ys.imag[(freqs == 0)[:, None] & (np.abs(ys.imag) < _COLLISION_GAP / 2)] = 0.0

    modulus = np.abs(ys)
    inside = modulus <= 1.0 + _INSIDE_TOL
    outside = modulus > 1.0 + _INSIDE_TOL
    counts = inside.sum(axis=1), outside.sum(axis=1)
    wrong = (counts[0] != k) | (counts[1] != m)
    if wrong.any():
        i = np.flatnonzero(wrong)[0]
        raise RuntimeError(
            f"root split failed at n={freqs[i]}: {counts[0][i]} inside, "
            f"{counts[1][i]} outside (wanted {k}/{m})"
        )
    return tuple(np.take_along_axis(z, _angle_order(z), axis=-1)
                 for z in (ys[inside].reshape(-1, k), ys[outside].reshape(-1, m)))


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


def _residuals(spec: ModelSpec, freqs: np.ndarray, ys: np.ndarray):
    """|p(y)|, the scale lam_bar |y**(k+m)| + |b| |y**k| + mu_bar of its
    check and |exp(lam_bar (y**m - 1) + mu_bar (y**-k - 1) - 2 pi i n) - 1|
    of each root, row i of ys at frequency freqs[i]."""
    lb, mb, k, m = spec.arrival_mean, spec.service_mean, spec.k, spec.m
    b = _shift(spec, freqs)
    top, yk = ys ** (k + m), ys ** k
    poly_res = np.abs(lb * top - b * yk + mb)
    scale = lb * np.abs(top) + np.abs(b) * np.abs(yk) + mb
    exponent = lb * (ys ** m - 1.0) + mb * (ys ** -k - 1.0) - 2j * math.pi * freqs[:, None]
    return poly_res, scale, np.abs(np.exp(exponent) - 1.0)


def _listing(y: np.ndarray):
    """For each root of n = -q..q in (n, branch) order, from the (q + 1, m)
    half set y of n = 0..q: its place in y.ravel(), whether it is the
    conjugate of the root there, and its y.  Row -n is row n conjugated
    (the coefficients conjugate when n flips sign) and sorted by angle."""
    place = np.arange(y.size).reshape(y.shape)
    mirrors = np.take_along_axis(place[1:], _angle_order(y[1:].conj()), axis=-1)[::-1]
    place = np.concatenate((mirrors, place)).ravel()
    conjugated = np.arange(len(place)) < mirrors.size
    listed = y.ravel()[place]
    listed.imag[conjugated] *= -1.0
    return place, conjugated, listed


@dataclass(frozen=True, eq=False)
class RootSet:
    """Outside roots for every frequency |n| <= order, stored for n >= 0:
    `y`, `poly_residual` and `exp_residual` are read-only (order + 1, m)
    copies, row n holding frequency n's roots in branch order and their
    residuals.  order is read off the rows; any other shape raises
    ValueError.  Row -n, row n conjugated and sorted by angle, is placed by
    `_listing`, not stored.  Iteration builds a `CharacteristicRoot` for each
    root of n = -order..order in (n, branch) order, an n < 0 root with its
    mirror's residuals.  Sets compare and hash by identity.  `_derived` keeps
    what other modules compute from the roots alone, filled on first use.
    """

    spec: ModelSpec
    y: np.ndarray
    poly_residual: np.ndarray
    exp_residual: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("y", complex), ("poly_residual", float),
                            ("exp_residual", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.ndim != 2 or arr.shape != (len(self.y), self.spec.m) or not arr.size:
                raise ValueError(f"{name} has shape {arr.shape}, "
                                 f"not (order + 1, {self.spec.m})")
            object.__setattr__(self, name, _read_only(arr))

    @property
    def order(self) -> int:
        return len(self.y) - 1

    def __iter__(self):
        place, _, y = _listing(self.y)
        k, m = self.spec.k, self.spec.m
        for i, (yi, j) in enumerate(zip(y.tolist(), place.tolist())):
            yield CharacteristicRoot(i // m - self.order, i % m, yi, k, m,
                                     self.poly_residual.item(j), self.exp_residual.item(j))

    def __len__(self) -> int:
        return (2 * len(self.y) - 1) * self.spec.m


def build_root_set(spec: ModelSpec, order: int) -> RootSet:
    """Collect the m outside roots for every n in [-order, order].

    Roots at -n are the conjugates of those at n (the polynomial's
    coefficients conjugate when n flips sign), so only n >= 0 is solved,
    in one call of characteristic_roots, and only n >= 0 is kept.  Branch
    labels sort each frequency's roots by arg(y) in [0, 2 pi).  The split,
    pairwise distinctness within each frequency and the residuals are
    enforced, in that order; each check names the first frequency n >= 0
    that fails it.  The residuals are checked on the stored rows alone: a
    root at -n has those of its mirror at n, so a failure at -n is named as
    n.
    """
    order = _as_index(order, "order")
    if order < 0:
        raise ValueError("order must be >= 0")

    _, outside = characteristic_roots(spec, np.arange(order + 1))
    gaps = outside[:, :, None] - outside[:, None, :]
    collided = np.triu(np.abs(gaps) < _COLLISION_GAP, 1).any(axis=(1, 2))
    if collided.any():
        raise RuntimeError(f"outside roots collide at n={np.flatnonzero(collided)[0]}")

    # each root at -n has the residuals of its mirror at n, bit for bit
    poly_res, scale, exp_res = _residuals(spec, np.arange(order + 1), outside)
    bad_poly = poly_res > _POLY_RESIDUAL_TOL * scale
    bad = bad_poly | (exp_res > _EXP_RESIDUAL_TOL)
    if bad.any():
        n, j = np.argwhere(bad)[0]
        if bad_poly[n, j]:
            raise RuntimeError(
                f"root residual {poly_res[n, j]:.3e} too large at n={n} "
                f"(scale {scale[n, j]:.3e})"
            )
        raise RuntimeError(f"exponential residual {exp_res[n, j]:.3e} too large at n={n}")
    return RootSet(spec, outside, poly_res, exp_res)
