"""Spectral level series: closed forms, oracle agreement, coefficient checks.

The free-process transition weight tests live here because the scalar
entry point is part of this module; the matrix assembly and its busy-period
use are covered in test_busy.
"""

import numpy as np
import pytest
from scipy.stats import poisson, skellam

from ekemq import (
    ModelSpec,
    RateFunction,
    SeriesEvaluator,
    build_root_set,
)
from ekemq import _quad
from ekemq.series import net_change_probability, phase_weights, root_coefficient


def test_mm1_series_is_geometric(mm1_spec, mm1_roots, mm1_boundary):
    ev = SeriesEvaluator(mm1_roots, mm1_boundary)
    ts = np.linspace(0.0, 1.0, 9)
    for j in (1, 2, 5, 10, 20):
        vals = ev.level_matrix(j, ts)
        assert np.abs(vals.real.sum(axis=1) - 0.4 * 0.6 ** j).max() < 1e-8
        assert np.abs(vals.imag).max() < 1e-12


def test_mm1_single_coefficient_value(mm1_spec, mm1_roots, mm1_boundary):
    f = root_coefficient(mm1_roots.roots[0], 0.37, mm1_boundary, mm1_spec)
    assert f.real == pytest.approx(0.4, abs=1e-8)
    assert abs(f.imag) < 1e-12


def test_literal_window_matches_fast_path(periodic74_spec, periodic74_roots10,
                                          periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    rng = np.random.default_rng(3)
    for _ in range(6):
        t = rng.uniform(1.0, 3.0)
        idx = rng.integers(0, len(periodic74_roots10))
        root = periodic74_roots10.roots[idx]
        literal = root_coefficient(root, t, periodic74_boundary, periodic74_spec)
        fast = ev.coefficients(np.array([t]))[0, idx]
        assert literal == pytest.approx(fast, rel=1e-8, abs=1e-12)


def test_series_tracks_oracle_with_increasing_order(periodic74_spec,
                                                    periodic74_dist,
                                                    periodic74_boundary):
    ts = periodic74_dist.grid
    target = periodic74_dist.levels[:, 0, :]
    errors = []
    for q in (1, 5, 10, 20):
        ev = SeriesEvaluator(build_root_set(periodic74_spec, q),
                             periodic74_boundary)
        errors.append(np.abs(ev.level_matrix(1, ts).real - target).max())
    assert errors[0] > errors[1] > errors[2] > errors[3]
    assert errors[2] < 1e-3
    assert errors[3] < 1e-4


def test_deep_levels_match_oracle(periodic74_dist, periodic74_boundary,
                                  periodic74_roots40):
    ev = SeriesEvaluator(periodic74_roots40, periodic74_boundary)
    ts = periodic74_dist.grid
    for j in (2, 3, 6):
        diff = np.abs(ev.level_matrix(j, ts).real
                      - periodic74_dist.levels[:, j - 1, :]).max()
        assert diff < 1e-9


def test_series_values_are_real(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    ts = np.linspace(0.0, 1.0, 7)
    for j in (1, 3, 12, 30):
        vals = ev.level_matrix(j, ts)
        scale = max(np.abs(vals.real).max(), 1e-30)
        assert np.abs(vals.imag).max() < 1e-9 * max(scale, 1.0)


def test_quadrature_self_convergence(periodic74_spec, periodic74_roots10,
                                     periodic74_boundary, monkeypatch):
    base = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    # the same series under a finer rule: 12 nodes on 128 panels
    monkeypatch.setattr(_quad, "NODES", 12)
    monkeypatch.setattr(_quad, "PANELS", 128)
    rich = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    ts = np.arange(8) / 8.0
    a = base.level_matrix(1, ts).real
    b = rich.level_matrix(1, ts).real
    assert np.abs(a - b).max() < 1e-10


def test_level_estimate_scalar_path(periodic74_spec, periodic74_roots10,
                                    periodic74_boundary, periodic74_dist):
    est = SeriesEvaluator(periodic74_roots10,
                          periodic74_boundary).level_estimate(1, 0.25)
    assert est.level == 1
    assert est.order == 10
    assert est.values.shape == (28,)
    oracle_vals = periodic74_dist.levels_at(np.array([0.25]))[0, 0, :]
    assert np.abs(est.values - oracle_vals).max() < 1e-3
    assert est.total() == pytest.approx(oracle_vals.sum(), abs=1e-3)
    assert est.imag_residual < 1e-12


def test_level_zero_is_rejected(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    with pytest.raises(ValueError):
        ev.level_matrix(0, np.array([0.0]))


def test_mismatched_root_set_rejected(mm1_spec, periodic74_roots10,
                                      mm1_boundary):
    with pytest.raises(ValueError, match="different model"):
        SeriesEvaluator(periodic74_roots10, mm1_boundary).level_estimate(1, 0.0)


def test_phase_weight_table():
    spec = ModelSpec(2, 3, RateFunction(1.0), RateFunction(2.0))
    rs = build_root_set(spec, 0)
    root = max(rs.roots, key=lambda r: abs(r.y))
    w = phase_weights(root)
    y = root.y
    expected = np.array([
        (y ** 3) ** 0 * (y ** 2) ** 0,
        (y ** 3) ** 0 * (y ** 2) ** 1,
        (y ** 3) ** 0 * (y ** 2) ** 2,
        (y ** 3) ** -1 * (y ** 2) ** 0,
        (y ** 3) ** -1 * (y ** 2) ** 1,
        (y ** 3) ** -1 * (y ** 2) ** 2,
    ])
    assert np.allclose(w, expected, rtol=1e-12)


def test_net_change_identity_at_equal_times(periodic74_spec):
    for a1 in range(7):
        for s1 in range(4):
            same = net_change_probability(periodic74_spec, 0.4, 0.4, 0,
                                          a1, s1, a1, s1)
            assert same == 1.0
            other = net_change_probability(periodic74_spec, 0.4, 0.4, 0,
                                           a1, s1, (a1 + 1) % 7, s1)
            assert other == 0.0


def test_net_change_skellam_reduction(mm1_spec):
    u, t = 0.2, 1.7
    lam_c, mu_c = 3.0 * (t - u), 5.0 * (t - u)
    for n in range(-12, 15):
        mine = net_change_probability(mm1_spec, u, t, n, 0, 0, 0, 0)
        assert mine == pytest.approx(skellam.pmf(n, lam_c, mu_c), abs=1e-13)


def test_net_change_poisson_convolution(mm1_spec):
    u, t = 0.1, 0.8
    lam_c, mu_c = 3.0 * (t - u), 5.0 * (t - u)
    ell = np.arange(0, 300)
    for n in (-4, -1, 0, 2, 6):
        direct = float(np.sum(poisson.pmf(ell + max(0, n), lam_c)
                              * poisson.pmf(ell + max(0, -n), mu_c)))
        mine = net_change_probability(mm1_spec, u, t, n, 0, 0, 0, 0)
        assert mine == pytest.approx(direct, abs=1e-14)


def test_net_change_stochasticity(periodic74_spec):
    rng = np.random.default_rng(42)
    for _ in range(50):
        u = rng.uniform(0.0, 1.0)
        t = u + rng.uniform(0.0, 2.0)
        lam_c = periodic74_spec.arrival.cumulative(u, t)
        mu_c = periodic74_spec.service.cumulative(u, t)
        n_hi = int((lam_c + 12 * np.sqrt(lam_c) + 40) // 7 + 2)
        n_lo = -int((mu_c + 12 * np.sqrt(mu_c) + 40) // 4 + 2)
        a1 = int(rng.integers(0, 7))
        s1 = int(rng.integers(0, 4))
        total = 0.0
        for n in range(n_lo, n_hi + 1):
            for a2 in range(7):
                for s2 in range(4):
                    total += net_change_probability(periodic74_spec, u, t, n,
                                                    a1, s1, a2, s2)
        assert abs(total - 1.0) < 1e-10


def test_net_change_rejects_reversed_times(periodic74_spec):
    with pytest.raises(ValueError):
        net_change_probability(periodic74_spec, 1.0, 0.5, 0, 0, 0, 0, 0)
