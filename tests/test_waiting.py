"""Waiting and sojourn laws: closed forms, dual-route agreement, edge cases."""

import numpy as np
import pytest
from scipy.special import gammainc

from ekemq import (
    ModelSpec,
    RateFunction,
    _quad,
    build_root_set,
    conditional_wait_cdf,
    extract_boundary,
    oracle_wait_cdf,
    wait_cdf,
)
from ekemq.oracle import TrigInterpolant


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

    monkeypatch.setattr(TrigInterpolant, "__call__", counted)
    boundary = extract_boundary(periodic74_dist)
    ts = np.linspace(0.0, 2.0, 11)
    for u in np.arange(10) / 10.0:
        wait_cdf(periodic74_spec, periodic74_roots10, boundary, u, ts)
    # the idle slice and the level-1 slice, each once at the rule's nodes
    assert calls == [rule_size, rule_size]
