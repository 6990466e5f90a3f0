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
- `root_set_by_frequency` (with `roots_by_frequency`): the root set solved
  one frequency at a time, one `np.linalg.eigvals` call and a Python loop
  of Newton steps per frequency and Python's own sort, collision check and
  residuals per root, all in Python's complex arithmetic, against
  `build_root_set`, which solves all frequencies in one array pass in
  numpy's and must find the same roots within the forward error of two
  backward-stable roots;
- `uncut_level_matrix` and `uncut_level_rows`: the folded level series
  and its level rows with every root kept, against
  `SeriesEvaluator.level_matrix`, which leaves out the roots past the last
  one that can move the level, cuts roots whose terms or level rows would
  be subnormal and flushes subnormal parts; `log_term_bounds`, the log
  of each root's bound on its terms at a level, formed apart from the cut;
- `all_roots_coefficients` and `all_roots_level_matrix`: the coefficients
  and the complex level series of every root, n < 0 included, computed
  directly, against `SeriesEvaluator`, which computes the n >= 0 half and
  folds the rest in as conjugates;
- `unflushed_busy_oracle`: the absorbing-ODE march on the sparse folded
  generator (`_structure_matrices`, `_generator`, `_rk4_march`), arrivals
  blocked at the cap and no entry of its state zeroed, against
  `busy_oracle`, which marches dense level blocks, lets arrivals leave its
  top level and flushes entries below `oracle._STATE_FLOOR` at every
  record;
- `poisson_tail`: a Poisson tail as scipy's regularized incomplete gamma,
  against the tails both wait routes take from the Poisson sums they form;
- `gammainc_oracle_wait_cdf`: the oracle wait route with one incomplete
  gamma per (horizon, threshold), against `oracle_wait_cdf`, which sums by
  parts over one Poisson pmf table;
- `looped_exp_tail`: the sojourn bracket summed term by term over the full
  array, against `waiting._exp_tail`, which forms the direct sum as one
  matrix product;
- `rescanning_exp_tail`: `waiting._exp_tail` as it read eps at every step
  of its order search and |z| twice, against `_exp_tail`, which must give
  the same bits;
- `exact_exp_tail`: one entry of the sojourn bracket in exact rational
  arithmetic, against both;
- `write_csv_by_rows`: a CSV file written row tuple by row tuple, one
  Python `format` per value, against the CLI's `_write_csv`, which formats
  whole columns through `ekemq._g17`;
- `uncached_tail_constant`: the window constant C_n with its window
  integral formed at every call, against `bounds.tail_constant`, which
  forms it once per (spec, t);
- `time_domain_periodic`: the periodic law as the fixed point of the
  one-period RK4 map, on a ladder of grids with Anderson mixing, against
  `integrate_periodic`, which solves for the law's Fourier coefficients;
- `periodic_structure`: the folded unit-rate structure of the periodic
  truncated system, the killed one of `busy_oracle` with the empty states'
  arrival exits added, which the time-domain solve marches, against the
  slicing of `oracle._balance` and the generator blocks;
- `interpolating_series`: the Fourier series of the trigonometric
  interpolant of uniform samples, by rfft, through which samples (the
  time-domain solve's, and the tests' own) become a law: a law takes its
  series only, and its samples at the grid times are this series' values,
  the given samples to rounding.

The paper's building blocks, which the package computes another way:

- `generator_blocks` (`GeneratorBlocks`): the QBD blocks up, local, down
  and the boundary blocks at one time, against the folded structures, the
  Volterra march's brute-force assembly and its closed-form implicit
  solve;
- `net_change_matrix` (with `_poisson_table`): the net-change weights F_n
  as the literal sum of Kronecker products, against the Volterra lattice
  march, a Skellam law, Fourier inversion and `net_change_probability`;
- `conditional_wait_cdf`: the wait of one state (level, service stage)
  as a Poisson tail, against `gammainc`, the scalar case of the telescoped
  wait sums;
- `root_modulus_bracket`: the bracket of |chi**(1/k)| for the outside
  roots at frequency n, against `build_root_set`'s roots, with
  `bounds._bracket_edges` as its edges;
- `mean_rate_matrix`: the rate matrix R of the QBD at the mean rates by
  Neuts' iteration, whose spectral radius is the law's per-level decay,
  against the oracle's rate matrix at N = 0 (`oracle._rate_matrix`);
- `harmonic_operators`: the real harmonic-domain operators of the rates
  and of d/dt by quadrature of each coordinate's basis function, against
  `oracle._operators`, which forms them from the rates' Toeplitz
  matrices;
- `dense_interfaces`: the level block's inverse times the up and the down
  interface, the km H x km H level block formed by Kronecker products and
  solved in full, against `oracle._rate_matrix`, which substitutes forward
  over the phases with one H x H solve.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from scipy.special import gammainc, gammaln

from ekemq import _quad
from ekemq._quad import composite_gauss
from ekemq.bounds import _bracket_edges
from ekemq.busy import _table_width
from ekemq.model import ModelSpec, RateFunction, _as_index, _normalize_phase, _stage_blocks
from ekemq._fourier import BoundaryFunctions
from ekemq.oracle import _CAP_MASS_LIMIT, _NORM_SLACK, PeriodicDistribution
from ekemq.roots import (_COLLISION_GAP, _EXP_RESIDUAL_TOL, _INSIDE_TOL, _NEWTON_STEPS,
                         _POLY_RESIDUAL_TOL, CharacteristicRoot, RootSet)
from ekemq.series import (_DENOM_FLOOR, SeriesEvaluator, _denominator,
                          _drive_values)
from ekemq.waiting import _DIRECT_TAIL_RADIUS, CDFCurve, _horizons


def interpolating_series(samples: np.ndarray) -> np.ndarray:
    """c_0..c_{n // 2} of the trigonometric interpolant of n samples of a
    period at the times i / n (rows), for `TrigInterpolant`: exact at the
    samples, and for even n the top (Nyquist) harmonic halved to a pure
    cosine, the usual convention for real data."""
    n = len(samples)
    coef = np.fft.rfft(np.asarray(samples, dtype=float), axis=0) / n
    if n % 2 == 0:
        coef[-1] *= 0.5
    return coef


def root_coefficient(root: CharacteristicRoot, t: float,
                     boundary: BoundaryFunctions, spec: ModelSpec) -> complex:
    """Window-integral coefficient of one root at one time, by quadrature
    over [t-1, t]."""
    if (root.k, root.m) != (spec.k, spec.m):
        raise ValueError("root does not belong to this model")
    ym = root.y ** root.m
    yik = 1.0 / root.y ** root.k
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


# `build_root_set` one frequency at a time: one companion matrix and one
# `np.linalg.eigvals` call per frequency, a Python loop of Newton steps
# over its roots, then Python's own sort, collision check and residuals
# per root


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


def roots_by_frequency(spec: ModelSpec, n: int):
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


def _make_root(poly: tuple, n: int, branch: int, y: complex) -> CharacteristicRoot:
    lb, b, mb, k, m = poly
    scale = lb * abs(y ** (k + m)) + abs(b) * abs(y ** k) + mb
    poly_res = abs(_poly_eval(poly, y))
    if poly_res > _POLY_RESIDUAL_TOL * scale:
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


def root_set_by_frequency(spec: ModelSpec, order: int) -> tuple[CharacteristicRoot, ...]:
    """Collect the m outside roots for every n in [-order, order], ordered
    by (n, branch).

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
        _, outside = roots_by_frequency(spec, n)
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
    return tuple(collected)


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


def uncut_level_rows(ev: SeriesEvaluator, level: int) -> np.ndarray:
    """The right operand [Re B; -Im B] of `level_matrix`'s product with no
    root cut and no part flushed: every root's level row, down to the
    subnormal entries."""
    fac = ev._factors
    with np.errstate(under="ignore"):
        b = (np.exp(-float(level) * fac.log_chi) * fac.weight)[:, None] * fac.rows
    return np.vstack([b.real, -b.imag])


def uncut_level_matrix(ev: SeriesEvaluator, level: int, t) -> np.ndarray:
    """Series values at one level with no root cut: the folded sum over the
    half set as one real product, with `uncut_level_rows` on the right."""
    f = ev._coefficients(t)
    return np.hstack([f.real, f.imag]) @ uncut_level_rows(ev, level)


def log_term_bounds(ev: SeriesEvaluator, level: int, t) -> np.ndarray:
    """Per half-set root, the log of the bound weight * max_t |f(t)| *
    max |row| * |chi|**(-level) on the modulus of its terms at the level,
    formed from the roots' moduli, not from `_RootFactors`' logs."""
    fac = ev._factors
    f_max = np.abs(ev._coefficients(t)).max(axis=0, initial=0.0)
    with np.errstate(divide="ignore"):
        return (np.log(fac.weight * f_max * np.abs(fac.rows).max(axis=1))
                - float(level) * np.log(np.abs(fac.chi)))


def _all_roots_factors(roots: RootSet):
    """(y**m, y**(-k), chi, phase rows) of every root of the set."""
    k, m = roots.spec.k, roots.spec.m
    ys = np.array([r.y for r in roots], dtype=complex)
    ym = ys ** m
    rows_a = ym[:, None] ** (-np.arange(k))[None, :]
    rows_s = (ys[:, None] ** k) ** np.arange(m)[None, :]
    rows = np.einsum("ra,rs->ras", rows_a, rows_s).reshape(len(ys), k * m)
    return ym, ys ** (-k), ys ** (k * m), rows


def all_roots_coefficients(roots: RootSet, boundary: BoundaryFunctions,
                           t) -> np.ndarray:
    """f(t) of every root of the set, shape (len(t), n_roots), each computed
    directly in complex arithmetic, the n < 0 roots like their mirrors."""
    spec = roots.spec
    ym, yik, chi, _ = _all_roots_factors(roots)
    apows = ym[None, :] ** np.arange(spec.k)[:, None]
    u, w = _quad.PERIOD_NODES, _quad.PERIOD_WEIGHTS
    decay = np.exp(-(np.outer(spec.arrival.accumulated(u), ym - 1.0)
                     + np.outer(spec.service.accumulated(u), yik - 1.0)))
    idle, first = boundary.period_samples
    terms = _drive_values(spec, u, idle, first, chi, apows) * decay
    denom = _denominator(spec, ym, yik)
    coef = np.add.reduce(w[:, None] * terms, axis=0) / denom
    t = np.atleast_1d(np.asarray(t, dtype=float))
    growth = np.exp(np.outer(spec.arrival.accumulated(t), ym - 1.0)
                    + np.outer(spec.service.accumulated(t), yik - 1.0))
    return growth * coef[None, :]


def all_roots_level_matrix(roots: RootSet, boundary: BoundaryFunctions, level: int,
                           t) -> np.ndarray:
    """The complex level series summed over every root, with no root cut and
    no real part taken, shape (len(t), km)."""
    _, _, chi, rows = _all_roots_factors(roots)
    with np.errstate(under="ignore"):
        shift = np.exp(-float(level) * np.log(chi))
    return (all_roots_coefficients(roots, boundary, t) * shift[None, :]) @ rows


def _structure_matrices(k: int, m: int, level_cap: int):
    """Unit-rate generator structure of the killed process on one folded
    sparsity pattern.

    State order: k empty states (arrival stage a), then levels 1..level_cap
    with km phases each, phase (a, s) flattened as a*m + s.  Returned as
    (pattern, parts): pattern is the dim x dim canonical CSR of the union of
    the transposed arrival and service parts AT and MT, with zero data, and
    parts the (2, nnz) values of AT and MT on it.  The transposed generator
    at rates lam, mu, lam * AT + mu * MT, is pattern with the data
    np.dot((lam, mu), parts); every part value is 0 or +-1, so each entry is
    rounded at most once.  The empty states have no exits: they are the
    sinks of the process killed at its first visit to the empty level.
    """
    km = k * m
    dim = k + level_cap * km
    # an arrival advances the stage: a busy state x goes to x + m ((j, a, s)
    # to (j, a + 1, s), or (j, k-1, s) to (j + 1, 0, s)); the final stage at
    # the cap is blocked
    busy = np.arange(k, dim - m)
    arr_r = np.concatenate([busy, busy])
    arr_c = np.concatenate([busy, busy + m])
    arr_v = np.repeat([-1.0, 1.0], len(busy))
    # a service advances the stage, and the last stage completes it: level
    # j > 1 goes to (j - 1, a, 0), level 1 to the empty state a
    x = np.arange(k, dim)
    s = (x - k) % m
    done = np.where(x - k >= km, x - km - (m - 1), (x - k) // m)
    srv_r = np.concatenate([x, x])
    srv_c = np.concatenate([x, np.where(s < m - 1, x + 1, done)])
    srv_v = np.repeat([-1.0, 1.0], len(x))

    # entry (r, c) of the generator is entry (c, r) of its transpose; each
    # part has at most one entry per position, and sorted keys c * dim + r
    # are the row-major order of a canonical CSR
    keys, at = np.unique(np.concatenate([arr_c, srv_c]) * dim
                         + np.concatenate([arr_r, srv_r]), return_inverse=True)
    parts = np.zeros((2, len(keys)))
    parts[0, at[:len(arr_v)]] = arr_v
    parts[1, at[len(arr_v):]] = srv_v
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    pattern = sp.csr_matrix((np.zeros(len(keys)), keys % dim, indptr),
                            shape=(dim, dim))
    return pattern, parts


def _generator(op, lam: float, mu: float):
    """The transposed generator lam * AT + mu * MT of op =
    `_structure_matrices(...)`, a CSR sharing the pattern's indices and
    indptr."""
    pattern, parts = op
    return sp.csr_matrix((np.dot((lam, mu), parts), pattern.indices,
                          pattern.indptr), shape=pattern.shape)


def _rk4_march(op, lam: np.ndarray, mu: np.ndarray, h: float, p: np.ndarray):
    """Yield the state after each classical RK4 step of p' = G(t) p from p.

    G(t) is the folded generator of op = `_structure_matrices(...)` at the
    rates lam(t), mu(t).  lam and mu hold the rates at half-step nodes, so
    step i runs from node 2i through node 2i+1 to node 2i+2, and the march
    makes (len(lam) - 1) // 2 steps.  Three CSR generators, for nodes 2i,
    2i+1 and 2i+2, share the pattern's indices and indptr; the one at node
    2i+2 becomes the next step's node 2i, so a step refreshes the values of
    two and makes four products G @ v.  The yielded state is a buffer that
    the next step overwrites; p itself is not written.  The caller may edit
    the yielded state in place, and the march continues from the edited
    state.
    """
    parts = op[1]
    g0, gh, g1 = (_generator(op, lam[0], mu[0]) for _ in range(3))
    p = p.copy()
    q = np.empty_like(p)
    for i in range((len(lam) - 1) // 2):
        np.dot((lam[2 * i + 1], mu[2 * i + 1]), parts, out=gh.data)
        np.dot((lam[2 * i + 2], mu[2 * i + 2]), parts, out=g1.data)
        k1 = g0 @ p
        np.multiply(k1, 0.5 * h, out=q)
        q += p
        k2 = gh @ q
        np.multiply(k2, 0.5 * h, out=q)
        q += p
        k3 = gh @ q
        np.multiply(k3, h, out=q)
        q += p
        k4 = g1 @ q
        # p + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        p += k2
        yield p
        g0, g1 = g1, g0


def unflushed_busy_oracle(spec: ModelSpec, level: int, phase, u: float,
                          horizon: float, step: float, level_cap: int,
                          substeps: int):
    """(sink values per record, cap mass, subnormal transient entries seen
    at records) of `busy_oracle`'s march with no entry of the state zeroed;
    the arguments are taken as valid."""
    n_rec = int(round(horizon / step))
    k, km = spec.k, spec.phase_count
    op = _structure_matrices(k, spec.m, level_cap)
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


def poisson_tail(threshold, mean):
    """P{Poisson(mean) >= threshold} by the regularized incomplete gamma;
    thresholds <= 0 give 1 exactly."""
    threshold = np.asarray(threshold, dtype=float)
    mean = np.asarray(mean, dtype=float)
    return np.where(threshold <= 0, 1.0, gammainc(np.maximum(threshold, 1.0), mean))


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
    tails = poisson_tail(thresholds[None, :], mu_cum[:, None])
    values = tails @ by_stage.ravel()
    if kind == "queue":
        values = values + idle_mass
    else:
        values = values + idle_mass * poisson_tail(m, mu_cum)

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


def rescanning_exp_tail(mean: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """exp(z) - sum_{q=0}^{m} z**q / q! at z = outer(mean, x), x complex,
    reading eps at every step of the order search, |z| twice and running
    the subtracting branch on no entries as on some.

    Entries with |z| < _DIRECT_TAIL_RADIUS sum the terms q = m+1..Q
    directly, as one product of the tables mean**q / q! and x**q; Q is the
    first order at which no term can exceed eps times the first.  The
    others subtract.
    """
    z = np.outer(mean, x)
    near = np.abs(z) < _DIRECT_TAIL_RADIUS
    radius = float(np.abs(z[near]).max(initial=0.0))
    top, ratio = m + 1, 1.0
    while ratio > np.finfo(float).eps:
        top += 1
        ratio *= radius / top
    scaled = np.cumprod(mean[:, None] / np.arange(1, top + 1), axis=1)[:, m:]
    powers = np.cumprod(np.broadcast_to(x, (top, x.size)), axis=0)[m:]
    # scaled is real, so the complex product is one real product with the
    # interleaved (real, imaginary) columns of powers
    out = (scaled @ powers.view(float)).view(complex)

    zf = z[~near]
    term = partial = np.ones_like(zf)
    for q in range(1, m + 1):
        term = term * zf * (1.0 / q)
        partial = partial + term
    out[~near] = np.exp(zf) - partial
    return out


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


# The paper's building blocks, which the package computes another way: the
# QBD generator blocks, the net-change weights F_n, the conditional wait of
# one state and the root-modulus bracket.
@dataclass(frozen=True)
class GeneratorBlocks:
    """Instantaneous generator of the queue, split by level movement.

    up, local, down act on busy levels (km x km); idle is the k x k block of
    the empty system; idle_up injects level 0 -> 1 on an arrival completion;
    down_to_idle drains level 1 -> 0 on a service completion.  Rows of the
    assembled generator sum to zero.
    """

    t: float
    up: np.ndarray
    local: np.ndarray
    down: np.ndarray
    idle: np.ndarray
    idle_up: np.ndarray
    down_to_idle: np.ndarray


def generator_blocks(spec: ModelSpec, t: float) -> GeneratorBlocks:
    """Evaluate all generator blocks at time t."""
    k, m = spec.k, spec.m
    lam = float(spec.arrival.value(t))
    mu = float(spec.service.value(t))
    arr_local, arr_done = _stage_blocks(k, lam)
    srv_local, srv_done = _stage_blocks(m, mu)

    up = np.kron(arr_done, np.eye(m))
    local = np.kron(arr_local, np.eye(m)) + np.kron(np.eye(k), srv_local)
    down = np.kron(np.eye(k), srv_done)

    idle = arr_local.copy()
    idle_up = np.zeros((k, k * m))
    idle_up[k - 1, 0] = lam
    down_to_idle = np.zeros((k * m, k))
    for a in range(k):
        down_to_idle[a * m + m - 1, a] = mu

    return GeneratorBlocks(
        t=float(t),
        up=up,
        local=local,
        down=down,
        idle=idle,
        idle_up=idle_up,
        down_to_idle=down_to_idle,
    )


def _poisson_table(means: np.ndarray, width: int) -> np.ndarray:
    """pmf(Poisson(means[i]), x) for x = 0..width-1, shape (len(means), width).

    Log-space keeps large means stable; means equal to zero reduce to the
    unit mass at x = 0.
    """
    counts = np.arange(width, dtype=float)
    log_fact = gammaln(counts + 1.0)
    means = np.asarray(means, dtype=float)[:, None]
    safe = np.maximum(means, 1e-300)
    with np.errstate(under="ignore"):
        return np.exp(counts[None, :] * np.log(safe) - means - log_fact[None, :])


def net_change_matrix(spec: ModelSpec, u: float, t: float, n: int) -> np.ndarray:
    """Free-process transition weights at net level change n, (km, km).

    The literal sum F_n = sum over A - D = n of P_A kron P_D, with cycle
    counts cut where the pmf tables end.  Each Toeplitz block is indexed from
    a pmf row padded with k - 1 (m - 1) leading zeros, which supply the zero
    weights of negative stage counts.
    """
    lam_cum = float(spec.arrival.cumulative(u, t))
    mu_cum = float(spec.service.cumulative(u, t))
    k, m = spec.k, spec.m
    a_max = _table_width(lam_cum) // k + 1
    d_max = _table_width(mu_cum) // m + 1
    pa = _poisson_table(np.array([lam_cum]), a_max * k + k)[0]
    pd = _poisson_table(np.array([mu_cum]), d_max * m + m)[0]
    # P_A[a1, a2] = pa[A k + a2 - a1] is read at A k + (a2 - a1 + k - 1)
    # from the padded row, likewise P_D
    pa = np.pad(pa, (k - 1, 0))
    pd = np.pad(pd, (m - 1, 0))
    da = np.arange(k)[None, :] - np.arange(k)[:, None] + k - 1
    ds = np.arange(m)[None, :] - np.arange(m)[:, None] + m - 1
    out = np.zeros((k * m, k * m))
    for a_cnt in range(max(0, n), min(a_max, d_max + n) + 1):
        out += np.kron(pa[a_cnt * k + da], pd[(a_cnt - n) * m + ds])
    return out


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
    out = poisson_tail(spec.m * level - s, mu_cum)
    return out if out.ndim else float(out)


def root_modulus_bracket(spec: ModelSpec, n: int) -> tuple[float, float]:
    """Interval certain to contain |chi**(1/k)| for outside roots at frequency n.

    Reads (2 pi |n| +- (lam_bar + 2 mu_bar) / sqrt(2)) / lam_bar.  The lower
    edge is only informative once it clears 1, which happens for |n| of a
    few at typical rates.
    """
    lower, upper = _bracket_edges(spec, abs(n))
    return lower / spec.arrival_mean, upper / spec.arrival_mean


def mean_rate_matrix(spec: ModelSpec, tol: float = 1e-16,
                     max_iterations: int = 100_000) -> np.ndarray:
    """The minimal solution R of Up + R Loc + R^2 Dn = 0, the QBD blocks of
    `generator_blocks` at the mean rates, by Neuts' iteration R = -(Up +
    R^2 Dn) Loc^-1 from R = 0 (Neuts, Matrix-Geometric Solutions in
    Stochastic Models, 1981), until no entry moves by more than tol."""
    mean = ModelSpec(spec.k, spec.m, RateFunction(spec.arrival.mean()),
                     RateFunction(spec.service.mean()))
    blocks = generator_blocks(mean, 0.0)
    local_inverse = np.linalg.inv(blocks.local)
    r = np.zeros_like(blocks.up)
    for _ in range(max_iterations):
        step = -(blocks.up + r @ r @ blocks.down) @ local_inverse
        if np.abs(step - r).max() <= tol:
            return step
        r = step
    raise RuntimeError(f"Neuts' iteration did not settle in {max_iterations} steps")


def harmonic_operators(spec: ModelSpec, count: int, spacing: int = 1) -> list[np.ndarray]:
    """[Lam, Mu, D] on the real coordinates (Re c_0, Re c_d, Im c_d, ...,
    Re c_nd, Im c_nd), n = count - 1, d = spacing, of a real 1-periodic
    function: column i holds the coordinates of the arrival rate times, the
    service rate times, and the derivative of the function whose only
    coordinate is the i-th, projected on harmonics 0..nd by a uniform rule
    exact for its degree."""
    harmonics = spacing * np.arange(1, count)
    top = max((j for rate in (spec.arrival, spec.service) for j, _ in rate.cos + rate.sin),
              default=0)
    points = 2 * (2 * spacing * count + top) + 1
    angle = 2.0 * np.pi * np.outer(np.arange(points) / points, harmonics)
    cos, sin = np.cos(angle), np.sin(angle)

    def columns(first, cos_part, sin_part):
        out = np.empty((points, 2 * count - 1))
        out[:, 0], out[:, 1::2], out[:, 2::2] = first, cos_part, sin_part
        return out

    # f = Re c_0 + 2 sum (Re c_n cos - Im c_n sin); Re c_n = mean(f cos)
    # and Im c_n = -mean(f sin)
    basis = columns(1.0, 2.0 * cos, -2.0 * sin)
    slope = columns(0.0, -4.0 * np.pi * harmonics * sin, -4.0 * np.pi * harmonics * cos)
    project = columns(1.0, cos, -sin).T / points
    t = np.arange(points) / points
    return [project @ (rate.value(t)[:, None] * basis)
            for rate in (spec.arrival, spec.service)] + [project @ slope]


def dense_interfaces(k: int, m: int, ops) -> np.ndarray:
    """B_loc^-1 [B_up | B_dn] of the harmonic-balance level blocks on the
    coordinates of ops = [Lam, Mu, D], (km H, (m + k) H): B_loc is formed
    in full from the unit-rate stage blocks by Kronecker products and
    solved densely.  B_up's columns are the final arrival stages (k - 1, s)
    of the level below, B_dn's the final service stages (a, m - 1) of the
    level above."""
    lam, mu, deriv = ops
    arr_local, arr_done = _stage_blocks(k, 1.0)
    srv_local, srv_done = _stage_blocks(m, 1.0)
    local = (np.kron(np.kron(arr_local, np.eye(m)).T, lam)
             + np.kron(np.kron(np.eye(k), srv_local).T, mu) - np.kron(np.eye(k * m), deriv))
    up = np.kron(np.kron(arr_done, np.eye(m)).T[:, (k - 1) * m:], lam)
    down = np.kron(np.kron(np.eye(k), srv_done).T[:, m - 1::m], mu)
    return np.linalg.solve(local, np.hstack([up, down]))


# The time-domain periodic solve: the period map's fixed point by RK4 on a
# ladder of grids.
# The periodic solve mixes the last _ANDERSON_DEPTH period residual
# differences, and runs plain periods once a period moves its start by at
# most _PLAIN_FRACTION * tol, so that the plain check of two consecutive
# periods usually passes at once and the fixed point is resolved below tol.
_ANDERSON_DEPTH = 8
_PLAIN_FRACTION = 0.1

# The solve on grid N starts from the t = 0 state of the fixed point on the
# ladder's grid N // _COARSEN, while that grid has at least _COARSE_MIN_GRID
# points and keeps h * 2 max(lam + mu) <= _RK4_REAL_LIMIT: by Gershgorin the
# generator's spectrum lies in [-2 max(lam + mu), 0], and RK4's real
# stability interval is [-2.78, 0].
_COARSEN = 4
_COARSE_MIN_GRID = 8
_RK4_REAL_LIMIT = 2.5


def periodic_structure(k: int, m: int, level_cap: int):
    """`_structure_matrices` of the periodic system, (pattern, parts) in its
    folded form: the killed structure with the k empty states' arrival
    exits added, -1 at (a, a) and +1 at (a + 1, a) of AT (the last empty
    state's arrival starts level 1, phase (0, 0), which is state k), and
    both parts refolded onto the union of their patterns."""
    pattern, parts = _structure_matrices(k, m, level_cap)
    dim = pattern.shape[0]
    a = np.arange(k)
    rows = np.concatenate([np.repeat(np.arange(dim), np.diff(pattern.indptr)), a, a + 1])
    cols = np.concatenate([pattern.indices, a, a])
    values = np.hstack([parts, [np.repeat([-1.0, 1.0], k), np.zeros(2 * k)]])
    keys, at = np.unique(rows * dim + cols, return_inverse=True)
    folded = np.zeros((2, len(keys)))
    for part, vals in zip(folded, values):
        np.add.at(part, at, vals)
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    return sp.csr_matrix((np.zeros(len(keys)), keys % dim, indptr),
                         shape=(dim, dim)), folded


def _averaged_stationary(op, spec: ModelSpec, level_cap: int) -> np.ndarray:
    """Stationary law of the period-averaged generator lam*S_arr + mu*S_srv,
    lam and mu the mean rates.

    The generator is level-tridiagonal, so linear level reduction from the
    cap down writes each level as a linear image of the one below,
    p_j = R_j p_{j-1}; the censored k x k system on the empty level then
    fixes p_0 up to scale and the levels follow upwards.  The blocks are
    sliced from the CSR and solved densely with numpy.
    """
    k, km = spec.k, spec.phase_count
    g = _generator(op, spec.arrival.mean(), spec.service.mean())
    edges = [0] + [k + j * km for j in range(level_cap + 1)]

    def block(i: int, j: int) -> np.ndarray:
        return g[edges[i]:edges[i + 1], edges[j]:edges[j + 1]].toarray()

    maps = {}
    diag = block(level_cap, level_cap)
    for j in range(level_cap, 0, -1):
        maps[j] = -np.linalg.solve(diag, block(j, j - 1))
        diag = block(j - 1, j - 1) + block(j - 1, j) @ maps[j]
    # the censored columns sum to zero; trade one equation for a scale
    diag[-1] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    parts = [np.linalg.solve(diag, rhs)]
    for j in range(1, level_cap + 1):
        parts.append(maps[j] @ parts[-1])
    p = np.concatenate(parts)
    return p / p.sum()


def _half_step_rates(spec: ModelSpec, grid_size: int):
    """lam and mu at the half-step nodes i / (2 grid_size), i = 0..2 grid_size."""
    nodes = np.arange(2 * grid_size + 1) / (2.0 * grid_size)
    return spec.arrival.value(nodes), spec.service.value(nodes)


def _periodic_samples(op, spec: ModelSpec, grid_size: int, p: np.ndarray,
                      tol: float, max_periods: int):
    """(samples at the grid times, periods, last residual) of the fixed point
    on grid_size steps started at p, by the iteration and checks of
    `integrate_periodic`."""
    k, km, dim = spec.k, spec.phase_count, op[0].shape[0]
    lam, mu = _half_step_rates(spec, grid_size)
    h = 1.0 / grid_size
    samples = np.empty((grid_size, dim))
    prev = None  # samples of the plain period that ended where this one starts
    ends, moves = [], []  # Anderson history: Phi(x) and Phi(x) - x
    residual = np.inf

    for period in range(1, max_periods + 1):
        start = p
        samples[0] = p
        with np.errstate(over="ignore", invalid="ignore"):
            march = _rk4_march(op, lam, mu, h, p)
            for row in samples[1:]:
                row[:] = next(march)
            p = next(march)
        norm = np.abs(p).sum()
        if not norm <= 1.0 + _NORM_SLACK:
            raise RuntimeError(f"grid_size {grid_size} is too coarse for RK4 at "
                               f"these rates: a period ended with L1 norm "
                               f"{norm:.3e}; raise grid_size")
        if prev is not None:
            residual = float(np.abs(samples - prev).max())
            if residual <= tol:
                cap_mass = float(samples[:, -km:].sum(axis=1).max())
                if cap_mass > _CAP_MASS_LIMIT:
                    raise RuntimeError(f"probability {cap_mass:.3e} sits at the "
                                       f"level cap {(dim - k) // km}; raise level_cap")
                return samples, period, residual
        move = p - start
        if moves and np.linalg.norm(move) >= np.linalg.norm(moves[-1]):
            ends, moves = [], []
        ends = (ends + [p])[-(_ANDERSON_DEPTH + 1):]
        moves = (moves + [move])[-(_ANDERSON_DEPTH + 1):]
        if len(moves) == 1 or np.abs(move).max() <= _PLAIN_FRACTION * tol:
            prev = samples.copy()
            continue
        d_move = np.diff(np.array(moves), axis=0).T
        d_end = np.diff(np.array(ends), axis=0).T
        gamma = np.linalg.lstsq(d_move, move, rcond=None)[0]
        p = p - d_end @ gamma
        p = p / p.sum()
        prev = None

    raise RuntimeError(f"periodic regime not reached in {max_periods} periods "
                       f"on grid {grid_size} (last residual {residual:.3e}); "
                       f"raise max_periods or loosen tol")


def time_domain_periodic(spec: ModelSpec, level_cap: int = 50, grid_size: int = 512,
                       tol: float = 1e-10, max_periods: int = 500) -> PeriodicDistribution:
    """Solve for the periodic regime of the truncated queue.

    The periodic law is the fixed point of the one-period map Phi (grid_size
    RK4 steps over one period), solved on a ladder of grids that share one
    structure operator: below grid N comes grid N // _COARSEN while that has
    at least _COARSE_MIN_GRID steps and its step times 2 max(lam + mu), over
    the half-step rates of grid N, is within _RK4_REAL_LIMIT.  The coarsest
    grid starts from the stationary law of the period-averaged generator,
    each finer one from the t = 0 state of the fixed point below it.  Every
    grid applies Anderson mixing of depth _ANDERSON_DEPTH to Phi,
    renormalizing each mixed start to mass 1 and restarting the mixing
    history whenever the period residual stops falling.  Once a period moves
    its start by at most _PLAIN_FRACTION * tol, the periods run plainly, each
    from where the last one ended, and the grid has converged when two
    consecutive plain periods, sampled at its grid points, differ by at most
    tol in sup norm.  The law of the samples on grid_size is returned, with
    the samples' `interpolating_series`, so that its own samples are theirs
    to rounding; `periods` counts every application of Phi on grid_size
    steps, mixed or plain, and none of the coarser grids'.  On every grid,
    RuntimeError is raised when max_periods periods are exhausted first
    (naming the grid), when a period
    ends non-finite or with an L1 norm past 1 + _NORM_SLACK (the grid is too
    coarse for RK4 at these rates; raise grid_size), or when the converged
    law puts more than _CAP_MASS_LIMIT = 1e-6 on the level cap at some grid
    time (raise level_cap).  tol must be > 0 and max_periods >= 1.
    """
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    if grid_size < 4:
        raise ValueError("grid_size must be >= 4")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    op = periodic_structure(spec.k, spec.m, level_cap)
    ladder = [grid_size]
    while (coarse := ladder[-1] // _COARSEN) >= _COARSE_MIN_GRID:
        lam, mu = _half_step_rates(spec, ladder[-1])
        if coarse * _RK4_REAL_LIMIT < 2.0 * (lam + mu).max():
            break
        ladder.append(coarse)
    p = _averaged_stationary(op, spec, level_cap)
    for grid in reversed(ladder[1:]):
        # a copy, else the coarse samples live through the finer periods
        p = _periodic_samples(op, spec, grid, p, tol, max_periods)[0][0].copy()
    samples, periods, residual = _periodic_samples(op, spec, grid_size, p, tol,
                                                   max_periods)
    return PeriodicDistribution(spec=spec, series=interpolating_series(samples),
                                grid_size=grid_size, periods=periods, residual=residual)
