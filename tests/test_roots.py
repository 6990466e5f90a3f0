"""Characteristic roots: counts, residuals, symmetry, and the dual solvers."""

import numpy as np
import pytest

from ekemq import ModelSpec, RateFunction, build_root_set, characteristic_roots
from ekemq.roots import outer_roots_by_iteration


def _sorted_by_arg(values):
    return sorted(values, key=lambda y: (np.angle(y) % (2 * np.pi), abs(y)))


def test_mm1_single_outer_root(mm1_spec):
    inside, outside = characteristic_roots(mm1_spec, 0)
    assert len(inside) == 1 and len(outside) == 1
    assert inside[0] == pytest.approx(1.0)
    assert outside[0] == pytest.approx(5.0 / 3.0)


def test_unit_root_present_at_zero_frequency(periodic74_spec):
    inside, _ = characteristic_roots(periodic74_spec, 0)
    assert min(abs(y - 1.0) for y in inside) < 1e-12


def test_split_counts_across_frequencies(periodic74_spec):
    for n in range(-20, 21):
        inside, outside = characteristic_roots(periodic74_spec, n)
        assert len(inside) == 7
        assert len(outside) == 4


def test_root_set_size_and_residuals(periodic74_spec):
    rs = build_root_set(periodic74_spec, 20)
    assert len(rs) == 41 * 4
    assert max(r.poly_residual for r in rs.roots) < 1e-10
    assert max(r.exp_residual for r in rs.roots) < 1e-8


def test_root_set_conjugate_symmetry(periodic74_roots40):
    rs = periodic74_roots40
    for n in (1, 7, 25, 40):
        pos = _sorted_by_arg([r.y for r in rs if r.n == n])
        neg = _sorted_by_arg([np.conj(r.y) for r in rs if r.n == -n])
        neg_matched = sorted(neg, key=lambda y: (y.real, y.imag))
        pos_matched = sorted(pos, key=lambda y: (y.real, y.imag))
        assert max(abs(a - b) for a, b in zip(pos_matched, neg_matched)) < 1e-12


def test_roots_distinct_within_frequency(periodic74_roots40):
    for n in range(-40, 41):
        ys = [r.y for r in periodic74_roots40 if r.n == n]
        for i in range(len(ys)):
            for j in range(i + 1, len(ys)):
                assert abs(ys[i] - ys[j]) > 1e-8


def test_branch_labels_sorted_by_argument(periodic74_roots10):
    for n in (-10, -3, 0, 4, 10):
        rs = sorted((r for r in periodic74_roots10 if r.n == n),
                    key=lambda r: r.branch)
        args = [np.angle(r.y) % (2 * np.pi) for r in rs]
        assert all(args[i] <= args[i + 1] + 1e-12 for i in range(len(args) - 1))


def test_fractional_powers_are_integer_powers(periodic74_roots10):
    for r in periodic74_roots10.roots:
        assert r.chi == pytest.approx(r.y ** 28, rel=1e-12)
        assert r.chi_root_k == pytest.approx(r.y ** 4, rel=1e-12)
        assert r.chi_root_m == pytest.approx(r.y ** 7, rel=1e-12)
        assert r.chi_root_k ** 7 == pytest.approx(r.chi, rel=1e-9)
        assert r.chi_root_m ** 4 == pytest.approx(r.chi, rel=1e-9)


def test_iteration_agrees_with_companion(periodic74_spec):
    for n in (0, 1, 2, 3, 5, 10, 20):
        _, outside = characteristic_roots(periodic74_spec, n)
        iterated = outer_roots_by_iteration(periodic74_spec, n)
        a = _sorted_by_arg(outside)
        b = _sorted_by_arg(iterated)
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-9


def test_iteration_seeds_close_at_high_frequency(periodic74_spec):
    n = 50
    _, outside = characteristic_roots(periodic74_spec, n)
    lam_bar = periodic74_spec.arrival_mean
    mu_bar = periodic74_spec.service_mean
    seed_mag = (abs(2j * np.pi * n + lam_bar + mu_bar) / lam_bar) ** (1.0 / 4)
    for y in outside:
        assert abs(abs(y) - seed_mag) / seed_mag < 0.1


def test_iteration_disallowed_fallback_raises(periodic74_spec):
    with pytest.raises(RuntimeError, match="did not converge"):
        outer_roots_by_iteration(periodic74_spec, 0, max_iter=1)


def test_residual_scale_for_tight_frequencies():
    spec = ModelSpec(2, 3, RateFunction(1.0, sin=((1, 0.5),)),
                     RateFunction(2.0, cos=((1, 0.3),)))
    rs = build_root_set(spec, 15)
    assert len(rs) == 31 * 3
    assert max(r.poly_residual for r in rs.roots) < 1e-10
