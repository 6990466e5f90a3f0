"""Waiting and sojourn laws: closed forms, dual-route agreement, edge cases."""

import math
from fractions import Fraction

import numpy as np
import pytest
from reference import (conditional_wait_cdf, exact_exp_tail,
                       gammainc_oracle_wait_cdf, looped_exp_tail, rescanning_exp_tail)
from scipy.special import gammainc

from ekemq import (
    ModelSpec,
    PeriodicDistribution,
    RateFunction,
    SeriesEvaluator,
    _quad,
    build_root_set,
    busy_oracle,
    busy_period_cdf,
    extract_boundary,
    oracle,
    oracle_wait_cdf,
    wait_cdf,
    waiting,
)
from ekemq._fourier import TrigInterpolant


def test_conditional_wait_is_poisson_tail(periodic74_spec):
    spec = periodic74_spec
    ts = np.array([0.0, 0.05, 0.3, 1.2, 4.0])
    mu_cum = spec.service.cumulative(0.3, 0.3 + ts)
    for level, s in ((1, 0), (1, 3), (2, 1), (5, 2)):
        got = conditional_wait_cdf(spec, level, s, 0.3, ts)
        expected = gammainc(4 * level - s, mu_cum)
        assert np.abs(got - expected).max() < 1e-14
        assert got[0] == 0.0
        assert np.all(np.diff(got) > 0)
        assert got[-1] < 1.0


def test_conditional_wait_scalar_and_limits(mm1_spec):
    val = conditional_wait_cdf(mm1_spec, 1, 0, 0.0, 0.5)
    assert isinstance(val, float)
    assert val == pytest.approx(1.0 - np.exp(-2.5), rel=1e-14)
    assert conditional_wait_cdf(mm1_spec, 1, 0, 0.0, 200.0) == \
        pytest.approx(1.0, abs=1e-15)


def test_conditional_wait_argument_checks(periodic74_spec):
    with pytest.raises(ValueError):
        conditional_wait_cdf(periodic74_spec, 0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        conditional_wait_cdf(periodic74_spec, 1, 4, 0.0, 1.0)
    with pytest.raises(ValueError):
        conditional_wait_cdf(periodic74_spec, 1, 0, 0.0, -0.1)


def test_mm1_queue_wait_closed_form(mm1_spec, mm1_roots, mm1_boundary,
                                    mm1_dist):
    # stationary M/M/1: P{wait <= t} = 1 - rho exp(-(mu - lam) t)
    ts = np.linspace(0.0, 6.0, 41)
    closed = 1.0 - 0.6 * np.exp(-2.0 * ts)
    series = wait_cdf(mm1_spec, mm1_roots, mm1_boundary, 0.25, ts)
    oracle = oracle_wait_cdf(mm1_spec, mm1_dist, 0.25, ts)
    assert np.abs(series.values - closed).max() < 1e-10
    assert np.abs(oracle.values - closed).max() < 1e-10


def test_mm1_sojourn_closed_form(mm1_spec, mm1_roots, mm1_boundary, mm1_dist):
    # stationary M/M/1: sojourn is exponential with rate mu - lam
    ts = np.linspace(0.0, 6.0, 41)
    closed = 1.0 - np.exp(-2.0 * ts)
    series = wait_cdf(mm1_spec, mm1_roots, mm1_boundary, 0.8, ts,
                      kind="sojourn")
    oracle = oracle_wait_cdf(mm1_spec, mm1_dist, 0.8, ts, kind="sojourn")
    assert np.abs(series.values - closed).max() < 1e-10
    assert np.abs(oracle.values - closed).max() < 1e-10


def test_periodic_routes_agree(periodic74_spec, periodic74_dist,
                               periodic74_boundary):
    ts = np.linspace(0.0, 5.0, 26)
    roots2 = build_root_set(periodic74_spec, 2)
    roots10 = build_root_set(periodic74_spec, 10)
    for u, tol2 in ((0.2, 2e-3), (0.7, 1e-3)):
        oracle = oracle_wait_cdf(periodic74_spec, periodic74_dist, u, ts)
        coarse = wait_cdf(periodic74_spec, roots2, periodic74_boundary, u, ts)
        fine = wait_cdf(periodic74_spec, roots10, periodic74_boundary, u, ts)
        err2 = np.abs(coarse.values - oracle.values).max()
        err10 = np.abs(fine.values - oracle.values).max()
        assert err2 < tol2
        assert err10 < err2


def test_periodic_sojourn_routes_agree(periodic74_spec, periodic74_dist,
                                       periodic74_boundary):
    ts = np.linspace(0.0, 5.0, 26)
    roots10 = build_root_set(periodic74_spec, 10)
    oracle = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.2, ts,
                             kind="sojourn")
    series = wait_cdf(periodic74_spec, roots10, periodic74_boundary, 0.2, ts,
                      kind="sojourn")
    assert np.abs(series.values - oracle.values).max() < 2e-3


def test_periodic_sojourn_high_order(periodic74_spec, periodic74_dist,
                                     periodic74_boundary, periodic74_roots40):
    # far roots have small |M x| and huge |chi|: forming the sojourn factor
    # by subtraction put 6e-2 of rounding error into this curve
    ts = np.linspace(0.0, 3.0, 61)
    oracle = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.2, ts,
                             kind="sojourn")
    series = wait_cdf(periodic74_spec, periodic74_roots40, periodic74_boundary,
                      0.2, ts, kind="sojourn")
    assert np.abs(series.values - oracle.values).max() < 1e-6


def test_atom_at_zero(periodic74_spec, periodic74_dist):
    idle = float(periodic74_dist.idle_at([0.4])[0].sum())
    queue = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.4,
                            np.array([0.0]))
    sojourn = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.4,
                              np.array([0.0]), kind="sojourn")
    assert queue.values[0] == pytest.approx(idle, rel=1e-12)
    # the sojourn requires a full service even from an empty system
    assert sojourn.values[0] == 0.0


def test_sojourn_never_exceeds_queue_wait(periodic74_spec, periodic74_dist):
    ts = np.linspace(0.0, 4.0, 33)
    queue = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.6, ts)
    sojourn = oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.6, ts,
                              kind="sojourn")
    assert np.all(sojourn.values <= queue.values + 1e-12)
    assert np.all(np.diff(queue.values) >= -1e-12)
    assert np.all(np.diff(sojourn.values) >= -1e-12)
    assert queue.values[-1] <= 1.0 + 1e-10
    assert sojourn.values[-1] > 0.99


def test_curve_metadata_and_checks(periodic74_spec, periodic74_dist,
                                   periodic74_boundary, periodic74_roots10,
                                   mm1_roots, mm1_spec):
    ts = np.array([0.0, 1.0])
    curve = wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary,
                     0.1, ts)
    assert curve.source == "series"
    assert curve.order == 10
    assert curve.kind == "queue"
    assert oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.1, ts).source \
        == "oracle"
    with pytest.raises(ValueError):
        wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary,
                 0.1, ts, kind="total")
    with pytest.raises(ValueError):
        oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.1, ts,
                        kind="response")
    with pytest.raises(ValueError):
        wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary,
                 0.1, np.array([-1.0]))
    with pytest.raises(ValueError):
        wait_cdf(mm1_spec, periodic74_roots10, periodic74_boundary, 0.1, ts)


def test_oracle_route_rejects_a_law_of_another_model(mm1_spec, mm1_dist):
    # the law is solved at rates 3 and 5; read with rates 1 and 9 it gave
    # [0.901, 0.984], neither model's wait (rates 1 and 9: [0.998, 1.000])
    other = ModelSpec(1, 1, RateFunction(1.0), RateFunction(9.0))
    t = np.array([0.5, 1.0])
    with pytest.raises(ValueError, match="different model"):
        oracle_wait_cdf(other, mm1_dist, 0.0, t)
    curve = oracle_wait_cdf(mm1_spec, mm1_dist, 0.0, t)
    assert np.abs(curve.values - (1.0 - 0.6 * np.exp(-2.0 * t))).max() < 1e-8


def test_series_routes_reject_a_boundary_of_another_model(periodic74_spec,
                                                          periodic74_boundary):
    # load 0.8 with the reference's k and m, so every width agrees: its
    # order-10 roots read with the reference boundary gave a level-2 mass of
    # 1.24 at t = 0 and a queue-wait "CDF" of 3.46 at horizon 1
    other = ModelSpec(7, 4, RateFunction(7.0, sin=((1, -2.0),)),
                      periodic74_spec.service)
    roots = build_root_set(other, 10)
    with pytest.raises(ValueError, match="boundary belongs to a different model"):
        SeriesEvaluator(roots, periodic74_boundary)
    with pytest.raises(ValueError, match="boundary belongs to a different model"):
        wait_cdf(other, roots, periodic74_boundary, 0.0, [1.0])


def test_horizons_are_one_dimensional(periodic74_spec, periodic74_dist,
                                       periodic74_boundary, periodic74_roots10):
    for kind in ("queue", "sojourn"):
        curves = (
            (wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary,
                      0.2, 1.0, kind=kind),
             wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary,
                      0.2, [1.0], kind=kind)),
            (oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.2, 1.0, kind=kind),
             oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.2, [1.0], kind=kind)),
        )
        for scalar, vector in curves:
            assert scalar.horizons.shape == scalar.values.shape == (1,)
            assert np.array_equal(scalar.values, vector.values)
    grid = np.ones((2, 3))
    with pytest.raises(ValueError, match="1-D"):
        wait_cdf(periodic74_spec, periodic74_roots10, periodic74_boundary, 0.2, grid)
    with pytest.raises(ValueError, match="1-D"):
        oracle_wait_cdf(periodic74_spec, periodic74_dist, 0.2, grid)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("route, argument", [
    ("wait_cdf", "u"), ("wait_cdf", "horizons"),
    ("oracle_wait_cdf", "u"), ("oracle_wait_cdf", "horizons"),
    ("busy_period_cdf", "u"), ("busy_period_cdf", "horizon"),
    ("busy_period_cdf", "step"),
    ("busy_oracle", "u"), ("busy_oracle", "horizon"), ("busy_oracle", "step"),
])
def test_non_finite_times_are_refused(mm1_spec, mm1_dist, mm1_boundary, mm1_roots,
                                      route, argument, value):
    # unchecked, a nan gives nan values or a misleading error, and an inf a
    # RuntimeWarning or an OverflowError
    busy = {"horizon": 0.5, "step": 1 / 64}
    routes = {
        "wait_cdf": lambda u=0.2, horizons=1.0:
            wait_cdf(mm1_spec, mm1_roots, mm1_boundary, u, horizons),
        "oracle_wait_cdf": lambda u=0.2, horizons=1.0:
            oracle_wait_cdf(mm1_spec, mm1_dist, u, horizons),
        "busy_period_cdf": lambda **kw: busy_period_cdf(mm1_spec, 1, 0, **{**busy, **kw}),
        "busy_oracle": lambda **kw: busy_oracle(mm1_spec, 1, 0, **{**busy, **kw}),
    }
    given = [1.0, value] if argument == "horizons" else value
    with pytest.raises(ValueError, match=f"{argument} must be finite"):
        routes[route](**{argument: given})


@pytest.mark.parametrize("route", ["wait_cdf", "oracle_wait_cdf", "busy_period_cdf",
                                   "busy_oracle"])
def test_results_compare_by_identity(mm1_spec, mm1_dist, mm1_boundary, mm1_roots, route):
    # a wait curve and a busy-period solution hold arrays, whose == has no
    # single truth value: both hash, serve as dict keys and compare equal
    # only to themselves, even to a result of the same call
    run = {
        "wait_cdf": lambda: wait_cdf(mm1_spec, mm1_roots, mm1_boundary, 0.2, [0.5, 1.0]),
        "oracle_wait_cdf": lambda: oracle_wait_cdf(mm1_spec, mm1_dist, 0.2, [0.5, 1.0]),
        "busy_period_cdf": lambda: busy_period_cdf(mm1_spec, 1, 0, horizon=0.5, step=1 / 64),
        "busy_oracle": lambda: busy_oracle(mm1_spec, 1, 0, horizon=0.5, step=1 / 64),
    }[route]
    one, twin = run(), run()
    assert np.array_equal(one.values, twin.values)
    keys = {one: "one", twin: "twin"}
    assert [keys[x] for x in (one, twin)] == ["one", "twin"]
    assert hash(one) == hash(one)
    assert one == one and not one == twin and one != twin


def test_repeated_wait_cdf_matches_fresh_objects(periodic74_spec, periodic74_dist):
    spec = periodic74_spec
    roots = build_root_set(spec, 10)
    boundary = extract_boundary(periodic74_dist)
    ts = np.linspace(0.0, 3.0, 31)
    for kind in ("queue", "sojourn"):
        first = wait_cdf(spec, roots, boundary, 0.3, ts, kind=kind)
        wait_cdf(spec, roots, boundary, 0.8, ts, kind=kind)
        again = wait_cdf(spec, roots, boundary, 0.3, ts, kind=kind)
        fresh = wait_cdf(spec, build_root_set(spec, 10),
                         extract_boundary(periodic74_dist), 0.3, ts, kind=kind)
        assert np.array_equal(first.values, fresh.values)
        assert np.array_equal(again.values, fresh.values)


def test_wait_cdf_samples_boundary_once(periodic74_spec, periodic74_dist,
                                        periodic74_roots10, monkeypatch):
    rule_size = _quad.NODES * _quad.PANELS
    calls = []
    evaluate = TrigInterpolant.__call__

    def counted(self, u):
        if np.size(u) >= rule_size:
            calls.append(np.size(u))
        return evaluate(self, u)

    # extract_boundary checks the boundary's series at the law's grid, of
    # the rule's size, so it is set up before the count
    boundary = extract_boundary(periodic74_dist)
    monkeypatch.setattr(TrigInterpolant, "__call__", counted)
    ts = np.linspace(0.0, 2.0, 11)
    for u in np.arange(10) / 10.0:
        wait_cdf(periodic74_spec, periodic74_roots10, boundary, u, ts)
    # the boundary's one series, once at the rule's nodes
    assert calls == [rule_size]


def test_oracle_wait_matches_gammainc_route(periodic74_spec, periodic74_dist):
    # summation by parts over one pmf table against one incomplete gamma per
    # (horizon, threshold); every term is nonnegative, so only rounding
    # separates them
    ts = np.linspace(0.0, 3.0, 61)
    worst = 0.0
    for u in np.arange(64) / 64.0:
        for kind in ("queue", "sojourn"):
            got = oracle_wait_cdf(periodic74_spec, periodic74_dist, u, ts, kind=kind)
            ref = gammainc_oracle_wait_cdf(periodic74_spec, periodic74_dist, u, ts,
                                           kind=kind)
            worst = max(worst, float(np.abs(got.values - ref.values).max()))
    assert worst <= 1e-15


def test_oracle_wait_table_stops_at_the_solved_levels(periodic74_spec, periodic74_dist,
                                                      monkeypatch):
    # the law's levels 9..50 are exact zeros, so the pmf table spans the
    # m * 8 = 32 thresholds of the solved levels (36 for the sojourn), not
    # the cap's 200; the dropped terms of the full-width sum are exact zeros
    spec, dist, m = periodic74_spec, periodic74_dist, 4
    ts = np.linspace(0.0, 3.0, 61)
    tops = []
    pmf_rows = waiting._poisson_pmf_rows

    def spy(mean, top):
        tops.append(top)
        return pmf_rows(mean, top)
    monkeypatch.setattr(waiting, "_poisson_pmf_rows", spy)
    for u in (0.0, 0.3, 0.75):
        idle, levels = dist.states_at([u])
        by_stage = levels[0].reshape(dist.level_cap, spec.k, m).sum(axis=1)
        mu_cum = spec.service.cumulative(u, u + ts)
        for kind, shift in (("queue", 0), ("sojourn", m)):
            got = oracle_wait_cdf(spec, dist, u, ts, kind=kind).values
            cumulated = np.concatenate((np.zeros(shift + 1),
                                        np.cumsum(by_stage[:, ::-1])))
            pmf = pmf_rows(mu_cum, m * dist.level_cap + shift)
            full = cumulated[-1] - pmf @ (cumulated[-1] - cumulated)
            full += idle[0].sum() * (1.0 if kind == "queue" else
                                     1.0 - pmf[:, :m].sum(axis=1))
            assert np.abs(got - full).max() <= 1e-16
    assert tops == [32, 36] * 3


def test_oracle_wait_builds_one_state_interpolant_per_law(periodic74_spec,
                                                          periodic74_dist, monkeypatch):
    # a fresh law, so that no earlier test has built its interpolant
    dist = PeriodicDistribution(spec=periodic74_spec, series=periodic74_dist.series,
                                grid_size=periodic74_dist.grid_size,
                                periods=periodic74_dist.periods,
                                residual=periodic74_dist.residual)
    built = []

    def counted(coef):
        built.append(np.shape(coef))
        return TrigInterpolant(coef)
    monkeypatch.setattr(oracle, "TrigInterpolant", counted)
    ts = np.linspace(0.0, 3.0, 61)
    for u in (0.0, 0.3, 0.75):
        for kind in ("queue", "sojourn"):
            oracle_wait_cdf(periodic74_spec, dist, u, ts, kind=kind)
    # the series of the 7 idle states and the 8 solved levels' 28 phases,
    # built once; no grid samples
    assert built == [(13, 7 + 8 * 28)]
    assert "_interp" in vars(dist)
    assert not {"samples", "_samples"} & set(vars(dist))


def test_oracle_wait_long_horizon():
    # thresholds up to m * cap = 1600 with weight 0.998**n, horizons up to a
    # mean of 1000 stage completions: exp(-M) underflows past M ~ 745, and
    # pmf rows seeded with it put the wait up to 0.81 off
    spec = ModelSpec(1, 4, RateFunction(1.0), RateFunction(5.0))
    cap, grid = 400, 4
    n = 4 * np.arange(1, cap + 1)[:, None] - np.arange(4)[None, :]
    weights = 0.998 ** n.astype(float)
    # a constant law: its series is c_0 alone
    series = np.concatenate([[0.1], (0.9 * weights / weights.sum()).ravel()])[None]
    dist = PeriodicDistribution(spec=spec, series=series, grid_size=grid, periods=0,
                                residual=0.0)
    ts = np.linspace(0.0, 200.0, 41)
    assert spec.service.cumulative(0.0, ts[-1]) == pytest.approx(1000.0)
    for kind in ("queue", "sojourn"):
        got = oracle_wait_cdf(spec, dist, 0.0, ts, kind=kind).values
        ref = gammainc_oracle_wait_cdf(spec, dist, 0.0, ts, kind=kind).values
        assert np.abs(got - ref).max() <= 1e-13, kind


def test_erlang_atom_alone_matches_gammainc(periodic74_spec, periodic74_roots10):
    # a constant law with all its mass on idle stage 0 has no busy mass and
    # a boundary of zero drive, so each route's CDF is that mass times its
    # own Erlang atom: the mass at zero wait, and P{N >= m} for the sojourn
    spec, mass = periodic74_spec, 0.75
    series = np.zeros((1, spec.k + spec.phase_count))
    series[0, 0] = mass
    dist = PeriodicDistribution(spec=spec, series=series, grid_size=8, periods=0,
                                residual=0.0)
    boundary = extract_boundary(dist)
    ts = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 300)))
    for u in (0.0, 0.2, 0.7):
        mean = spec.service.cumulative(u, u + ts)
        assert mean[-1] == pytest.approx(1000.0)
        for kind, atom in (("queue", mass), ("sojourn", mass * gammainc(spec.m, mean))):
            series_route = wait_cdf(spec, periodic74_roots10, boundary, u, ts, kind=kind)
            oracle_route = oracle_wait_cdf(spec, dist, u, ts, kind=kind)
            assert np.abs(series_route.values - atom).max() <= 1e-15, kind
            assert np.abs(oracle_route.values - atom).max() <= 1e-15, kind


def test_sojourn_series_matches_looped_tail(periodic74_spec, periodic74_boundary,
                                            periodic74_roots10, periodic74_roots40,
                                            monkeypatch):
    # with the term-by-term loop in place of the product, wait_cdf is the
    # route as it was before the product; the terms carry |chi| up to 3e13
    ts = np.linspace(0.0, 3.0, 61)

    def looped(mean, x, m):
        return looped_exp_tail(np.outer(mean, x), m)

    for roots in (periodic74_roots10, periodic74_roots40):
        for u in (0.2, 0.7):
            got, ref = {}, {}
            for kind in ("queue", "sojourn"):
                got[kind] = wait_cdf(periodic74_spec, roots, periodic74_boundary,
                                     u, ts, kind=kind).values
                with monkeypatch.context() as patch:
                    patch.setattr(waiting, "_exp_tail", looped)
                    ref[kind] = wait_cdf(periodic74_spec, roots, periodic74_boundary,
                                         u, ts, kind=kind).values
            assert np.abs(got["sojourn"] - ref["sojourn"]).max() <= 5e-13
            assert np.array_equal(got["queue"], ref["queue"])


@pytest.mark.parametrize("scale, far", [(0.5, "none"), (4.0, "some"), (40.0, "all")])
@pytest.mark.parametrize("m", [1, 4])
def test_exp_tail_keeps_its_bits(scale, far, m):
    # all-near, mixed and all-far tables: the hoisted eps, the one |z| and
    # the skipped subtraction leave every bit where it was
    mean = scale * np.linspace(0.25, 1.0, 13)
    x = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 9)) * np.linspace(1.2, 2.0, 9)
    near = np.abs(np.outer(mean, x)) < waiting._DIRECT_TAIL_RADIUS
    assert {"none": near.all(), "some": 0 < near.sum() < near.size,
            "all": not near.any()}[far]
    got, ref = waiting._exp_tail(mean, x, m), rescanning_exp_tail(mean, x, m)
    assert got.tobytes() == ref.tobytes()


def _exact_tail_errors(spec, roots, boundary, u, ts, every_root=1):
    """(relative errors, |M x|) of `_exp_tail` at each horizon and every
    `every_root`-th root, against exact rational arithmetic on the same
    floats."""
    x = SeriesEvaluator(roots, boundary)._factors.yik[::every_root]
    mean = spec.service.cumulative(u, u + ts)
    tail = waiting._exp_tail(mean, x, spec.m)
    errors, size = [], []
    for h, big in enumerate(mean):
        for r, root in enumerate(x):
            sr, si = exact_exp_tail(big, root, spec.m)
            gap = ((Fraction(tail[h, r].real) - sr) ** 2
                   + (Fraction(tail[h, r].imag) - si) ** 2)
            errors.append(math.sqrt(gap / (sr * sr + si * si)))
            size.append(abs(big * root))
    return np.array(errors), np.array(size)


def test_exp_tail_in_exact_arithmetic(periodic74_spec, periodic74_boundary,
                                      periodic74_roots40, mm1_spec, mm1_roots,
                                      mm1_boundary):
    # the reference model at order 40 (every 6th horizon, every 27th root),
    # where every entry is summed by the product; and the M/M/1 sojourn,
    # whose one root takes the product below |M x| = 8 and the subtraction
    # above it
    ref_errors, _ = _exact_tail_errors(periodic74_spec, periodic74_roots40,
                                       periodic74_boundary, 0.2,
                                       np.linspace(0.0, 3.0, 61)[1::6], every_root=27)
    mm1_errors, size = _exact_tail_errors(mm1_spec, mm1_roots, mm1_boundary,
                                          0.8, np.linspace(0.0, 6.0, 41)[1:])
    assert np.any(size < 8.0) and np.any(size >= 8.0)
    assert ref_errors.max() <= 2e-15
    assert mm1_errors.max() <= 2e-15
