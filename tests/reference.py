"""Reference routes that only the tests call.

Each is an independent computation of something the package computes
another way, kept to pin that route:

- `root_coefficient`: the window-integral coefficient of one root at one
  time by literal quadrature over [t-1, t], against `SeriesEvaluator`'s
  period integral;
- `net_change_probability`: the scalar transition weight of the free phase
  process, against the busy-period module's transition weights;
- `outer_roots_by_iteration`: the outside characteristic roots by a
  fixed-point iteration, against `build_root_set`'s companion-matrix
  eigenvalues;
- `uncut_level_matrix`: the level series with every root kept, against
  `SeriesEvaluator.level_matrix`, which cuts roots whose terms would be
  subnormal;
- `unflushed_busy_oracle`: the absorbing-ODE march with no entry of its
  state zeroed, against `busy_oracle`, which flushes entries below
  `oracle._STATE_FLOOR` at every record;
- `gammainc_oracle_wait_cdf`: the oracle wait route with one incomplete
  gamma per (horizon, threshold), against `oracle_wait_cdf`, which sums by
  parts over one Poisson pmf table;
- `looped_exp_tail`: the sojourn bracket summed term by term over the full
  array, against `waiting._exp_tail`, which forms the direct sum as one
  matrix product;
- `exact_exp_tail`: one entry of the sojourn bracket in exact rational
  arithmetic, against both;
- `write_csv_by_rows`: a CSV file written row tuple by row tuple, one
  Python `format` per value, against the CLI's `_write_csv`, which formats
  whole columns through `ekemq._g17`;
- `uncached_tail_constant`: the window constant C_n with its window
  integral formed at every call, against `bounds.tail_constant`, which
  forms it once per (spec, t).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from ekemq._quad import composite_gauss
from ekemq.model import ModelSpec, _normalize_phase
from ekemq.oracle import (BoundaryFunctions, PeriodicDistribution, _rk4_march,
                          _structure_matrices)
from ekemq.roots import _INSIDE_TOL, CharacteristicRoot, _by_angle, _collision
from ekemq.series import (_DENOM_FLOOR, SeriesEvaluator, _denominator,
                          _drive_values)
from ekemq.waiting import (_DIRECT_TAIL_RADIUS, CDFCurve, _horizons,
                           _poisson_tail)


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


def outer_roots_by_iteration(spec: ModelSpec, n: int, tol: float = 1e-13,
                             max_iter: int = 400) -> list:
    """Outside roots via the fixed-point map

        y <- w_m**b * ((2 pi i n + lam_bar + mu_bar * (1 - y**(-k))) / lam_bar)**(1/m)

    seeded at y0 = w_m**b * ((2 pi i n + lam_bar + mu_bar) / lam_bar)**(1/m)
    for b = 0..m-1, where w_m = exp(2 pi i / m) and the 1/m power is the
    principal branch.  For large |n| the seeds start close to the solutions
    and the map contracts.  Returns the roots sorted by arg.

    Raises RuntimeError when some seed fails to converge, when the
    converged points collide, or when one of them lies inside the circle.
    """
    lb = spec.arrival_mean
    mb = spec.service_mean
    k, m = spec.k, spec.m
    shift = 2j * math.pi * n + lb + mb

    def fail(reason: str) -> RuntimeError:
        return RuntimeError(f"outer-root iteration failed at n={n}: {reason}")

    found = []
    for b in range(m):
        phase = cmath.exp(2j * math.pi * b / m)
        y = phase * (shift / lb) ** (1.0 / m)
        for _ in range(max_iter):
            y_next = phase * ((shift - mb * y ** (-k)) / lb) ** (1.0 / m)
            converged = abs(y_next - y) <= tol * max(1.0, abs(y_next))
            y = y_next
            if converged:
                break
        else:
            raise fail(f"seed {b} did not converge in {max_iter} iterations")
        found.append(y)

    pair = _collision(found)
    if pair is not None:
        raise fail(f"seeds {pair[0]} and {pair[1]} collided")
    if any(abs(y) <= 1.0 + _INSIDE_TOL for y in found):
        raise fail("iteration landed on an inside root")
    return _by_angle(found)


def uncut_level_matrix(ev: SeriesEvaluator, level: int, t) -> np.ndarray:
    """Series values at one level with no root cut: every root's term, down
    to the subnormal ones, goes into the product."""
    f = ev.coefficients(t)
    with np.errstate(under="ignore"):
        shift = np.exp(-float(level) * ev._factors.log_chi)
    return (f * shift[None, :]) @ ev._factors.rows


def unflushed_busy_oracle(spec: ModelSpec, level: int, phase, u: float,
                          horizon: float, step: float, level_cap: int,
                          substeps: int):
    """(sink values per record, cap mass, subnormal transient entries seen
    at records) of `busy_oracle`'s march with no entry of the state zeroed;
    the arguments are taken as valid."""
    n_rec = int(round(horizon / step))
    k, km = spec.k, spec.phase_count
    op = _structure_matrices(k, spec.m, level_cap, absorbing=True)
    total_steps = n_rec * substeps
    nodes = u + (horizon / total_steps) * 0.5 * np.arange(2 * total_steps + 1)
    p = np.zeros(op[0].shape[0])
    p[k + (level - 1) * km + _normalize_phase(spec, phase)] = 1.0
    values = np.zeros((n_rec + 1, k))
    cap_mass, subnormal = 0.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        march = _rk4_march(op, spec.arrival.value(nodes), spec.service.value(nodes),
                           (horizon / n_rec) / substeps, p)
        for rec in range(1, n_rec + 1):
            for _ in range(substeps):
                p = next(march)
            mass = np.abs(p)
            values[rec] = p[:k]
            cap_mass = max(cap_mass, float(mass[k + (level_cap - 1) * km:].sum()))
            subnormal += np.count_nonzero((mass[k:] > 0.0)
                                          & (mass[k:] < np.finfo(float).tiny))
    return values, cap_mass, subnormal


def gammainc_oracle_wait_cdf(spec: ModelSpec, dist: PeriodicDistribution, u: float,
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


def looped_exp_tail(z: np.ndarray, m: int) -> np.ndarray:
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


def exact_exp_tail(mean: float, x: complex, m: int) -> tuple[Fraction, Fraction]:
    """(real, imaginary) part of sum_{q>m} (mean x)**q / q!, in exact
    rational arithmetic from the float inputs.

    The series is cut once the ratio |z| / (q+1) of consecutive terms is at
    most 1/2, so that the remainder is below the last term, and that term
    is below 2**-100 of the sum.
    """
    zr, zi = Fraction(mean) * Fraction(x.real), Fraction(mean) * Fraction(x.imag)
    tr, ti = Fraction(1), Fraction(0)
    sr = si = Fraction(0)
    q = 0
    while True:
        q += 1
        tr, ti = (tr * zr - ti * zi) / q, (tr * zi + ti * zr) / q
        if q <= m:
            continue
        sr, si = sr + tr, si + ti
        if (4 * (zr * zr + zi * zi) <= (q + 1) ** 2
                and tr * tr + ti * ti <= Fraction(1, 2 ** 200) * (sr * sr + si * si)):
            return sr, si


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv_by_rows(path, schema: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema: {schema}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def uncached_tail_constant(spec: ModelSpec, t: float, n: int) -> float:
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
