"""A-priori bounds: bracket containment, window constants, tail budgets."""

import math

import numpy as np
import pytest
from reference import root_modulus_bracket, uncached_tail_constant

from ekemq import (
    ModelSpec,
    RateFunction,
    SeriesEvaluator,
    bounds,
    build_root_set,
    extract_boundary,
    integrate_periodic,
    tail_constant,
    truncation_error_bound,
)


def test_bracket_closed_form(periodic74_spec):
    lo, hi = root_modulus_bracket(periodic74_spec, 10)
    half = 13.0 / math.sqrt(2.0)
    assert lo == pytest.approx((20.0 * math.pi - half) / 3.0, rel=1e-14)
    assert hi == pytest.approx((20.0 * math.pi + half) / 3.0, rel=1e-14)
    assert lo == pytest.approx(17.8798, abs=1e-4)
    assert hi == pytest.approx(24.0081, abs=1e-4)


def test_bracket_width_does_not_depend_on_frequency(periodic74_spec):
    widths = {n: np.diff(root_modulus_bracket(periodic74_spec, n))[0]
              for n in (0, 1, 5, 17)}
    vals = list(widths.values())
    assert max(vals) - min(vals) < 1e-12
    assert root_modulus_bracket(periodic74_spec, -5) == \
        root_modulus_bracket(periodic74_spec, 5)


def test_bracket_contains_outer_moduli(periodic74_spec, periodic74_roots40):
    m = periodic74_spec.m
    for root in periodic74_roots40:
        if abs(root.n) < 3:
            continue
        lo, hi = root_modulus_bracket(periodic74_spec, root.n)
        val = abs(root.y) ** m
        assert lo <= val <= hi


def test_tail_constant_frozen_value(periodic74_spec):
    assert tail_constant(periodic74_spec, 0.0, 10) == \
        pytest.approx(1.96650334798778, rel=1e-10)


def test_tail_constant_matches_uncached_bits(periodic74_spec):
    # the CLI passes its times as numpy floats; both kinds hit one entry
    bounds._window_integral.cache_clear()
    times = np.arange(16) / 16.0
    for t in [*times, *times.tolist()]:
        for n in range(3, 41):
            assert tail_constant(periodic74_spec, t, n) == \
                uncached_tail_constant(periodic74_spec, t, n)


def test_one_window_integral_per_time(periodic74_spec, monkeypatch):
    bounds._window_integral.cache_clear()
    rules, gauss = [], bounds.composite_gauss

    def counted(a, b):
        rules.append(b)
        return gauss(a, b)

    monkeypatch.setattr(bounds, "composite_gauss", counted)
    times = np.arange(16) / 16.0
    for level in (3, 4, 5):
        for order in (3, 5, 10, 20, 40):
            for t in times:
                assert truncation_error_bound(periodic74_spec, t, level, order).applicable
    assert sorted(rules) == times.tolist()


def test_window_cache_keeps_models_apart(periodic74_spec):
    # the same model with one service amplitude changed
    other = ModelSpec(7, 4, periodic74_spec.arrival,
                      RateFunction(5.0, sin=((1, 3.0),)))
    for t in (0.0, 0.25):
        mine = tail_constant(periodic74_spec, t, 10)
        theirs = tail_constant(other, t, 10)
        assert mine != theirs
        assert mine == uncached_tail_constant(periodic74_spec, t, 10)
        assert theirs == uncached_tail_constant(other, t, 10)


def test_tail_constant_decreases_in_frequency(periodic74_spec):
    vals = [tail_constant(periodic74_spec, 0.25, n) for n in range(2, 41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_tail_constant_low_frequency_not_applicable(periodic74_spec,
                                                    flat74_spec):
    for spec in (periodic74_spec, flat74_spec):
        with pytest.raises(ValueError, match="denominator -23"):
            tail_constant(spec, 0.0, 0)
        with pytest.raises(ValueError):
            tail_constant(spec, 0.3, 1)


def test_window_constant_dominates_coefficients(periodic74_spec,
                                                periodic74_roots40,
                                                periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots40, periodic74_boundary)
    for t in (0.0, 0.25):
        f_abs = np.abs(ev.coefficients([t])[0])
        for root, size in zip(periodic74_roots40, f_abs):
            if abs(root.n) < 2:
                continue
            cap = tail_constant(periodic74_spec, t, root.n) * abs(root.chi)
            assert size <= cap * (1.0 + 1e-12)


def test_budget_inapplicable_reasons(periodic74_spec, mm1_spec):
    low_level = truncation_error_bound(periodic74_spec, 0.25, 2, 10)
    assert not low_level.applicable
    assert low_level.bound is None
    assert "level" in low_level.reason

    slow_decay = truncation_error_bound(mm1_spec, 0.25, 3, 10)
    assert not slow_decay.applicable
    assert "k*(level-2)" in slow_decay.reason

    small_order = truncation_error_bound(periodic74_spec, 0.25, 3, 1)
    assert not small_order.applicable
    assert "order too small" in small_order.reason


def test_budget_shrinks_with_order_and_level(periodic74_spec):
    t = 0.25
    by_order = [truncation_error_bound(periodic74_spec, t, 3, q).bound
                for q in (3, 5, 10, 20)]
    assert all(b is not None for b in by_order)
    assert all(a > b for a, b in zip(by_order, by_order[1:]))
    by_level = [truncation_error_bound(periodic74_spec, t, j, 10).bound
                for j in (3, 4, 5)]
    assert all(a > b for a, b in zip(by_level, by_level[1:]))


def test_budget_dominates_measured_truncation(periodic74_spec,
                                              periodic74_roots40,
                                              periodic74_boundary, grid16):
    ref = SeriesEvaluator(periodic74_roots40, periodic74_boundary)
    for q in (3, 10):
        ev = SeriesEvaluator(build_root_set(periodic74_spec, q),
                             periodic74_boundary)
        measured = np.abs(ev.level_matrix(3, grid16).real
                          - ref.level_matrix(3, grid16).real).max()
        worst = max(truncation_error_bound(periodic74_spec, t, 3, q).bound
                    for t in grid16)
        assert measured <= worst


def _coefficient_sizes(roots, boundary, t):
    """Largest |f(t)| over the branches at each frequency n, keyed by n."""
    f_abs = np.abs(SeriesEvaluator(roots, boundary).coefficients([t])[0])
    sizes = {}
    for root, size in zip(roots, f_abs):
        sizes[root.n] = max(sizes.get(root.n, 0.0), float(size))
    return sizes


def test_empirical_decay_shape_and_symmetry(periodic74_roots40,
                                            periodic74_boundary):
    sizes = _coefficient_sizes(periodic74_roots40, periodic74_boundary, 0.25)
    assert sorted(sizes) == list(range(-40, 41))
    for n in range(1, 41):
        assert sizes[n] == pytest.approx(sizes[-n], rel=1e-10)
    tail = [sizes[n] for n in range(20, 41)]
    assert all(a > b for a, b in zip(tail, tail[1:]))


def test_flat_rates_concentrate_at_frequency_zero(flat74_spec,
                                                  periodic74_roots40,
                                                  periodic74_boundary):
    flat_dist = integrate_periodic(flat74_spec, level_cap=40, grid_size=128,
                                   tol=1e-10)
    flat_boundary = extract_boundary(flat_dist)
    flat_roots = build_root_set(flat74_spec, 10)
    flat_table = _coefficient_sizes(flat_roots, flat_boundary, 0.25)
    periodic_table = _coefficient_sizes(periodic74_roots40,
                                        periodic74_boundary, 0.25)
    assert flat_table[0] > 1e-3
    for n in range(1, 11):
        assert flat_table[n] < 1e-5 * periodic_table[n]
