"""Model construction, rate functions, and generator blocks."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from reference import generator_blocks

from ekemq import (
    ModelSpec,
    RateFunction,
    SeriesEvaluator,
    build_root_set,
    busy_oracle,
    busy_period_cdf,
    characteristic_roots,
    ergodic_margin,
    integrate_periodic,
    tail_constant,
    truncation_error_bound,
)


def test_rate_values_match_hand_formula():
    lam = RateFunction(3.0, sin=((1, -2.0),))
    ts = np.linspace(0.0, 2.0, 41)
    expected = 3.0 - 2.0 * np.sin(2 * np.pi * ts)
    assert np.allclose(lam.value(ts), expected, atol=1e-14)
    assert lam.value(0.25) == pytest.approx(1.0)
    assert lam.mean() == pytest.approx(3.0)


def test_rate_with_cosine_terms():
    r = RateFunction(4.0, cos=((2, 1.5),), sin=((1, -1.0),))
    t = 0.37
    expected = 4.0 + 1.5 * math.cos(4 * math.pi * t) - math.sin(2 * math.pi * t)
    assert r.value(t) == pytest.approx(expected, abs=1e-14)


def test_cumulative_matches_numerical_quadrature():
    r = RateFunction(5.0, sin=((1, 4.0),), cos=((3, 0.7),))
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.uniform(0.0, 2.0)
        t = u + rng.uniform(0.0, 3.0)
        ref, _ = quad(r.value, u, t, limit=200)
        assert r.cumulative(u, t) == pytest.approx(ref, abs=1e-10)


def test_cumulative_additivity():
    r = RateFunction(3.0, sin=((1, -2.0),))
    assert r.cumulative(0.1, 0.9) + r.cumulative(0.9, 2.3) == pytest.approx(
        r.cumulative(0.1, 2.3), abs=1e-12
    )
    assert r.cumulative(0.0, 1.0) == pytest.approx(r.mean(), abs=1e-12)


def test_rate_rejects_negative_minimum():
    with pytest.raises(ValueError):
        RateFunction(1.0, sin=((1, 2.0),))
    with pytest.raises(ValueError):
        RateFunction(-3.0)


def test_rate_rejects_dip_between_coarse_grid_points():
    # sin(2 pi 4096 t) vanishes at every point of a 4096-point grid, so the
    # rate reads 1 there while its true minimum is -1
    grid = np.arange(4096) / 4096
    assert np.min(1.0 + 2.0 * np.sin(2 * np.pi * 4096 * grid)) > 0.99
    with pytest.raises(ValueError, match="dips negative"):
        RateFunction(1.0, sin=((4096, 2.0),))
    RateFunction(2.5, sin=((4096, 2.0),))


def test_rate_rejects_dip_between_fine_grid_points():
    # base - R cos(2 pi t - theta) with its minimum, -5e-7, halfway between
    # two points of the 4096-point grid, where it reads about +6.8e-7
    R = 4.0
    theta = 2 * np.pi * (0.5 / 4096 + 0.5)
    cos, sin = ((1, -R * np.cos(theta)),), ((1, -R * np.sin(theta)),)
    grid = np.arange(4096) / 4096
    assert np.min(R - 5e-7 - R * np.cos(2 * np.pi * grid - theta)) > 6e-7
    with pytest.raises(ValueError, match=r"dips negative \(min -5"):
        RateFunction(R - 5e-7, cos=cos, sin=sin)
    RateFunction(R + 5e-7, cos=cos, sin=sin)


def test_rate_accepts_minimum_touching_zero():
    # on a grid point, and between grid points
    RateFunction(1.0, cos=((1, -1.0),))
    theta = 2 * np.pi * (0.5 / 4096 + 0.25)
    RateFunction(1.0, cos=((1, -np.cos(theta)),), sin=((1, -np.sin(theta)),))


def test_rate_rejects_non_finite_values():
    # nan slips past a sign check, since nan < 0 and nan > 0 are both False
    for base in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite mean"):
            RateFunction(base)
    for amp in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite amplitude"):
            RateFunction(3.0, sin=((1, amp),))
        with pytest.raises(ValueError, match="non-finite amplitude"):
            RateFunction(3.0, cos=((2, amp),))


def test_cumulative_rejects_reversed_interval():
    r = RateFunction(2.0)
    with pytest.raises(ValueError):
        r.cumulative(1.0, 0.5)


def test_ergodic_margin_values():
    assert ergodic_margin(7, 4, 3.0, 5.0) == pytest.approx(-23.0)
    assert ergodic_margin(1, 1, 3.0, 5.0) == pytest.approx(-2.0)
    assert ergodic_margin(1, 1, 5.0, 5.0) == pytest.approx(0.0)


def test_spec_rejects_bad_stage_counts():
    lam, mu = RateFunction(3.0), RateFunction(5.0)
    with pytest.raises(ValueError):
        ModelSpec(4, 2, lam, mu)
    with pytest.raises(ValueError):
        ModelSpec(0, 1, lam, mu)
    with pytest.raises(ValueError):
        ModelSpec(1, 1, RateFunction(5.0), RateFunction(5.0))


def test_spec_properties(periodic74_spec):
    assert periodic74_spec.phase_count == 28
    assert periodic74_spec.arrival_mean == pytest.approx(3.0)
    assert periodic74_spec.service_mean == pytest.approx(5.0)
    assert periodic74_spec.load == pytest.approx(12.0 / 35.0)


def test_generator_rows_sum_to_zero(periodic74_spec):
    for t in (0.0, 0.3, 0.77):
        b = generator_blocks(periodic74_spec, t)
        busy = b.up.sum(axis=1) + b.local.sum(axis=1) + b.down.sum(axis=1)
        assert np.abs(busy).max() < 1e-12
        idle_full = b.idle.sum(axis=1) + b.idle_up.sum(axis=1)
        assert np.abs(idle_full).max() < 1e-12
        level_one = (b.up.sum(axis=1) + b.local.sum(axis=1)
                     + b.down_to_idle.sum(axis=1))
        assert np.abs(level_one).max() < 1e-12


def test_generator_off_diagonals_nonnegative(periodic74_spec):
    b = generator_blocks(periodic74_spec, 0.6)
    for block in (b.up, b.down, b.idle_up, b.down_to_idle):
        assert block.min() >= 0.0
    off = b.local - np.diag(np.diag(b.local))
    assert off.min() >= 0.0
    assert np.diag(b.local).max() <= 0.0


def test_down_block_structure(periodic74_spec):
    b = generator_blocks(periodic74_spec, 0.0)
    mu0 = periodic74_spec.service.value(0.0)
    expected = np.zeros((28, 28))
    for a in range(7):
        expected[a * 4 + 3, a * 4 + 0] = mu0
    assert np.allclose(b.down, expected)
    expected_idle = np.zeros((28, 7))
    for a in range(7):
        expected_idle[a * 4 + 3, a] = mu0
    assert np.allclose(b.down_to_idle, expected_idle)


def test_up_block_advances_arrival_stage(periodic74_spec):
    b = generator_blocks(periodic74_spec, 0.25)
    lam0 = periodic74_spec.arrival.value(0.25)
    assert b.up[6 * 4 + 2, 0 * 4 + 2] == pytest.approx(lam0)
    assert b.up[:5 * 4].max() == 0.0
    assert b.idle_up[6, 0] == pytest.approx(lam0)


# (argument name, call with that argument set to x); the series evaluator
# is the M/M/1 one, at order 0
INTEGER_ARGUMENTS = {
    "ModelSpec k": ("k", lambda spec, ev, x: ModelSpec(x, 1, RateFunction(1.0),
                                                       RateFunction(5.0))),
    "ModelSpec m": ("m", lambda spec, ev, x: ModelSpec(1, x, RateFunction(1.0),
                                                       RateFunction(5.0))),
    "RateFunction harmonic": ("harmonic index",
                              lambda spec, ev, x: RateFunction(3.0, cos=((x, 1.0),))),
    "characteristic_roots n": ("n", lambda spec, ev, x: characteristic_roots(spec, x)),
    "build_root_set order": ("order", lambda spec, ev, x: build_root_set(spec, x)),
    "tail_constant n": ("n", lambda spec, ev, x: tail_constant(spec, 0.0, x)),
    "truncation_error_bound level": (
        "level", lambda spec, ev, x: truncation_error_bound(spec, 0.0, x, 10)),
    "truncation_error_bound order": (
        "order", lambda spec, ev, x: truncation_error_bound(spec, 0.0, 3, x)),
    "level_matrix level": ("level", lambda spec, ev, x: ev.level_matrix(x, [0.1])),
    "busy_period_cdf level": ("level", lambda spec, ev, x: busy_period_cdf(
        spec, x, 0, horizon=0.5, step=1 / 64)),
    "busy_oracle level": ("level", lambda spec, ev, x: busy_oracle(
        spec, x, 0, horizon=0.5, step=1 / 64)),
    # a multiple of x: a float x stays a float, and an integer one is a
    # cap or grid the call accepts
    "busy_oracle level_cap": ("level_cap", lambda spec, ev, x: busy_oracle(
        spec, 1, 0, horizon=0.5, step=1 / 64, level_cap=20 * x)),
    "busy_oracle substeps": ("substeps", lambda spec, ev, x: busy_oracle(
        spec, 1, 0, horizon=0.5, step=1 / 64, substeps=x)),
    "integrate_periodic level_cap": ("level_cap", lambda spec, ev, x: integrate_periodic(
        spec, level_cap=30 * x, grid_size=8)),
    "integrate_periodic grid_size": ("grid_size", lambda spec, ev, x: integrate_periodic(
        spec, level_cap=40, grid_size=4 * x)),
}


@pytest.fixture(scope="module")
def mm1_evaluator(mm1_roots, mm1_boundary):
    return SeriesEvaluator(mm1_roots, mm1_boundary)


@pytest.mark.parametrize("bad", [1.5, 2.0, np.float64(2.7)], ids=repr)
@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_arguments_refuse_floats(mm1_spec, mm1_evaluator, case, bad):
    # a float is neither truncated (harmonic 2.7 read as 2) nor used as a
    # fraction (level 1.5 between levels 1 and 2)
    name, call = INTEGER_ARGUMENTS[case]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got "):
        call(mm1_spec, mm1_evaluator, bad)


@pytest.mark.parametrize("case", INTEGER_ARGUMENTS)
def test_integer_arguments_take_numpy_integers(mm1_spec, mm1_evaluator, case):
    call = INTEGER_ARGUMENTS[case][1]
    for x in (np.int64(3), np.uint8(3)):
        assert repr(call(mm1_spec, mm1_evaluator, x)) == repr(
            call(mm1_spec, mm1_evaluator, 3))
    # a bool is an integer too
    assert repr(call(mm1_spec, mm1_evaluator, True)) == repr(
        call(mm1_spec, mm1_evaluator, 1))
