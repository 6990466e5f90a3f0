"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Every test here builds on the reference configuration (Erlang-7 arrivals,
Erlang-4 service, rates 3 - 2 sin 2 pi t and 5 + 4 sin 2 pi t) or on the
stationary M/M/1 reduction.  Tests with a runtime budget construct all of
their inputs inside the timed block instead of using session fixtures, so
the measured time covers the full computation.
"""

import time

import numpy as np
import pytest

from ekemq import (
    ModelSpec,
    RateFunction,
    SeriesEvaluator,
    build_root_set,
    busy_oracle,
    busy_period_cdf,
    characteristic_roots,
    extract_boundary,
    integrate_periodic,
    oracle_wait_cdf,
    truncation_error_bound,
    wait_cdf,
)
from reference import (net_change_matrix, net_change_probability,
                       root_modulus_bracket)


def test_acceptance_mm1_reduction():
    # closed forms: p_j = 0.4 * 0.6**j, queue wait 1 - 0.6 exp(-2 t)
    t0 = time.perf_counter()
    spec = ModelSpec(1, 1, RateFunction(3.0), RateFunction(5.0))
    dist = integrate_periodic(spec, level_cap=60, grid_size=64, tol=1e-12)
    boundary = extract_boundary(dist)
    roots = build_root_set(spec, 0)
    ev = SeriesEvaluator(roots, boundary)
    ts = np.linspace(0.0, 1.0, 9)

    worst_level = 0.0
    for j in range(1, 21):
        err = np.abs(ev.level_matrix(j, ts).real.sum(axis=1)
                     - 0.4 * 0.6 ** j).max()
        worst_level = max(worst_level, err)

    horizons = np.linspace(0.0, 5.0, 51)
    curve = wait_cdf(spec, roots, boundary, 0.0, horizons)
    wait_err = np.abs(curve.values - (1.0 - 0.6 * np.exp(-2.0 * horizons))).max()
    elapsed = time.perf_counter() - t0

    assert worst_level <= 1e-8
    assert wait_err <= 1e-6
    assert elapsed < 1.0


def test_acceptance_root_structure():
    t0 = time.perf_counter()
    spec = ModelSpec(7, 4,
                     RateFunction(3.0, sin=((1, -2.0),)),
                     RateFunction(5.0, sin=((1, 4.0),)))
    for n in range(-20, 21):
        inside, outside = characteristic_roots(spec, n)
        assert len(inside) == 7
        assert len(outside) == 4
        assert all(abs(y) <= 1.0 + 1e-9 for y in inside)
        assert all(abs(y) > 1.0 for y in outside)

    rs = build_root_set(spec, 20)
    assert max(r.poly_residual for r in rs) <= 1e-10
    assert max(r.exp_residual for r in rs) <= 1e-10
    # the unit root at n = 0 sits on the circle, so it lands in the inside group
    inside0, _ = characteristic_roots(spec, 0)
    assert min(abs(y - 1.0) for y in inside0) <= 1e-12

    for r in rs:
        if abs(r.n) < 3:
            continue
        lo, hi = root_modulus_bracket(spec, r.n)
        assert lo <= abs(r.y) ** 4 <= hi
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0


def test_acceptance_level_one_series_vs_oracle():
    t0 = time.perf_counter()
    spec = ModelSpec(7, 4,
                     RateFunction(3.0, sin=((1, -2.0),)),
                     RateFunction(5.0, sin=((1, 4.0),)))
    dist = integrate_periodic(spec, level_cap=50, grid_size=512, tol=1e-10)
    boundary = extract_boundary(dist)
    target = dist.levels[:, 0, :]

    sup = {}
    for q in (1, 5, 10):
        ev = SeriesEvaluator(build_root_set(spec, q), boundary)
        sup[q] = np.abs(ev.level_matrix(1, dist.grid).real - target).max()
    elapsed = time.perf_counter() - t0

    assert sup[1] > sup[5] > sup[10]
    assert sup[10] <= 1e-3, f"q=10 sup error {sup[10]:.3e}"
    assert elapsed < 120.0


def test_acceptance_tail_bounds_hold(periodic74_spec, periodic74_roots40,
                                     periodic74_boundary, grid16):
    ref = SeriesEvaluator(periodic74_roots40, periodic74_boundary)
    violations = 0
    for j in (3, 4, 5):
        ref_vals = ref.level_matrix(j, grid16).real
        for q in (3, 5, 10):
            ev = SeriesEvaluator(build_root_set(periodic74_spec, q),
                                 periodic74_boundary)
            err = np.abs(ev.level_matrix(j, grid16).real - ref_vals).max(axis=1)
            for i, t in enumerate(grid16):
                budget = truncation_error_bound(periodic74_spec, t, j, q)
                assert budget.applicable
                if err[i] > budget.bound:
                    violations += 1
    assert violations == 0


def test_acceptance_transition_weights_stochastic(periodic74_spec):
    spec = periodic74_spec
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.uniform(0.0, 1.0)
        t = u + rng.uniform(0.0, 1.5)
        a1 = int(rng.integers(0, 7))
        s1 = int(rng.integers(0, 4))
        mu_cum = spec.service.cumulative(u, t)
        lam_cum = spec.arrival.cumulative(u, t)
        n_lo = -int(mu_cum + 12.0 * np.sqrt(mu_cum) + 45.0) // 4 - 2
        n_hi = int(lam_cum + 12.0 * np.sqrt(lam_cum) + 45.0) // 7 + 2
        total = sum(
            net_change_probability(spec, u, t, n, a1, s1, a2, s2)
            for n in range(n_lo, n_hi + 1)
            for a2 in range(7) for s2 in range(4)
        )
        assert abs(total - 1.0) <= 1e-10

    # at u = t the weights are the exact identity
    for a1 in range(7):
        for s1 in range(4):
            assert net_change_probability(spec, 0.3, 0.3, 0,
                                          a1, s1, a1, s1) == 1.0
            assert net_change_probability(spec, 0.3, 0.3, 0,
                                          a1, s1, a1, (s1 + 1) % 4) == 0.0
    eye = np.eye(28)
    assert np.abs(net_change_matrix(spec, 0.3, 0.3, 0) - eye).max() <= 1e-12


def test_acceptance_waiting_cross_check(periodic74_spec, periodic74_dist,
                                        periodic74_boundary):
    spec = periodic74_spec
    horizons = np.linspace(0.0, 3.0, 61)
    roots0 = build_root_set(spec, 0)
    roots2 = build_root_set(spec, 2)
    for u in (0.2, 0.7):
        reference = oracle_wait_cdf(spec, periodic74_dist, u, horizons)
        err2 = np.abs(
            wait_cdf(spec, roots2, periodic74_boundary, u, horizons).values
            - reference.values).max()
        err0 = np.abs(
            wait_cdf(spec, roots0, periodic74_boundary, u, horizons).values
            - reference.values).max()
        assert err2 <= 5e-3, f"u={u}: q=2 sup error {err2:.3e}"
        assert err2 < err0


def test_acceptance_busy_period_cross_method():
    t0 = time.perf_counter()
    spec = ModelSpec(7, 4,
                     RateFunction(3.0, sin=((1, -2.0),)),
                     RateFunction(5.0, sin=((1, 4.0),)))
    for level in (1, 2):
        vol = busy_period_cdf(spec, level, 0, u=0.0, horizon=5.0,
                              step=1 / 128)
        ode = busy_oracle(spec, level, 0, u=0.0, horizon=5.0, step=1 / 128,
                          level_cap=40, substeps=4)
        sup = np.abs(vol.total() - ode.total()).max()
        assert sup <= 1e-4, f"level {level}: sup {sup:.3e}"

    # raw-march self convergence; the coarsest stable step for these rates
    sols = [busy_period_cdf(spec, 1, 0, horizon=2.0, step=s,
                            refine=False).total()
            for s in (1 / 64, 1 / 128, 1 / 256)]
    e1 = np.abs(sols[0] - sols[1][::2]).max()
    e2 = np.abs(sols[1] - sols[2][::2]).max()
    order = np.log2(e1 / e2)
    elapsed = time.perf_counter() - t0
    assert order >= 1.9, f"observed order {order:.3f}"
    assert elapsed < 120.0


def test_acceptance_mass_closure(periodic74_spec, periodic74_dist,
                                 periodic74_boundary):
    # Sixteen uniformly spaced phases of the period, on the grid and at the
    # grid midpoints.  The defect is series truncation error: at q=20 it
    # measures 2.64e-6 on the grid and 2.49e-6 at the midpoints (at q=10,
    # 1.21e-4 and 9.6e-5).
    ts = np.concatenate([np.arange(16), np.arange(16) + 0.5]) / 16.0
    ev = SeriesEvaluator(build_root_set(periodic74_spec, 20),
                         periodic74_boundary)
    total = periodic74_dist.idle_at(ts).sum(axis=1)
    for j in range(1, 31):
        total = total + ev.level_matrix(j, ts).real.sum(axis=1)
    defect = np.abs(total - 1.0).max()
    assert defect <= 1e-5, f"closure defect {defect:.3e}"
