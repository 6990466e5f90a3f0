"""Spectral level series: closed forms, oracle agreement, coefficient checks.

The free-process transition weight tests live here because the scalar
entry point is part of this module; the matrix assembly and its busy-period
use are covered in test_busy.
"""

import warnings

import numpy as np
import pytest
from scipy.stats import poisson, skellam

from ekemq import (
    BoundaryFunctions,
    ModelSpec,
    RateFunction,
    SeriesEvaluator,
    build_root_set,
    extract_boundary,
    integrate_periodic,
    wait_cdf,
)
from ekemq import _quad
from ekemq.roots import CharacteristicRoot, RootSet
from ekemq.series import phase_weights
from reference import (all_roots_coefficients, all_roots_level_matrix, log_term_bounds,
                       net_change_probability, root_coefficient, uncut_level_matrix,
                       uncut_level_rows)

_SWEEP_ORDERS = (3, 5, 10, 20, 40)
_TINY = np.finfo(float).tiny
_EPS = np.finfo(float).eps


def _subnormal_count(arr: np.ndarray) -> int:
    parts = np.abs(arr.view(float))
    return int(np.count_nonzero((parts > 0.0) & (parts < _TINY)))


def _assert_folded_sum_is_the_full_sum(roots, boundary, ev, level, ts, imag_gate):
    """The full complex sum over every root is real to imag_gate times its
    scale (at least 1), and its real part is the folded value: to 1e-10 at
    level 1, where the coefficients cancel, and to 1e-15 deeper."""
    vals = ev.level_matrix(level, ts)
    assert vals.dtype == np.float64
    full = all_roots_level_matrix(roots, boundary, level, ts)
    scale = max(np.abs(full.real).max(), 1e-30)
    assert np.abs(full.imag).max() < imag_gate * max(scale, 1.0), level
    assert np.abs(full.real - vals).max() <= (1e-10 if level == 1 else 1e-15), level


def test_mm1_series_is_geometric(mm1_spec, mm1_roots, mm1_boundary):
    ev = SeriesEvaluator(mm1_roots, mm1_boundary)
    ts = np.linspace(0.0, 1.0, 9)
    for j in (1, 2, 5, 10, 20):
        vals = ev.level_matrix(j, ts)
        assert np.abs(vals.sum(axis=1) - 0.4 * 0.6 ** j).max() < 1e-8
        _assert_folded_sum_is_the_full_sum(mm1_roots, mm1_boundary, ev, j, ts, 1e-12)


def test_mm1_single_coefficient_value(mm1_spec, mm1_roots, mm1_boundary):
    f = root_coefficient(next(iter(mm1_roots)), 0.37, mm1_boundary, mm1_spec)
    assert f.real == pytest.approx(0.4, abs=1e-8)
    assert abs(f.imag) < 1e-12


def test_literal_window_matches_fast_path(periodic74_spec, periodic74_roots10,
                                          periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    rng = np.random.default_rng(3)
    for _ in range(6):
        t = rng.uniform(1.0, 3.0)
        idx = rng.integers(0, len(periodic74_roots10))
        root = list(periodic74_roots10)[idx]
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


def test_levels_two_to_five_match_the_harmonic_balance_law(periodic74_spec):
    # the oracle's law is 1e-13 from the truncated system's, so the order-20
    # series on its boundary meets it to rounding (4.4e-16 at level 2, where
    # the RK4 ladder's law at grid 256 stood 2.9e-12 off)
    dist = integrate_periodic(periodic74_spec, level_cap=50, grid_size=256, tol=1e-12)
    ev = SeriesEvaluator(build_root_set(periodic74_spec, 20), extract_boundary(dist))
    for j in (2, 3, 4, 5):
        diff = np.abs(ev.level_matrix(j, dist.grid).real - dist.levels[:, j - 1]).max()
        assert diff <= 1e-14, (j, diff)


def test_series_values_are_real(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    ts = np.linspace(0.0, 1.0, 7)
    for j in (1, 3, 12, 30):
        _assert_folded_sum_is_the_full_sum(periodic74_roots10, periodic74_boundary,
                                           ev, j, ts, 1e-9)


@pytest.fixture(scope="module")
def harmonic2_model():
    """k=2, m=3, arrival 1.5 + 0.5 cos 2 pi t + 0.3 cos 6 pi t, service
    3 + sin 4 pi t: harmonics 1, 2 and 3, and k, m unlike the reference."""
    spec = ModelSpec(2, 3, RateFunction(1.5, cos=((1, 0.5), (3, 0.3))),
                     RateFunction(3.0, sin=((2, 1.0),)))
    return spec, extract_boundary(integrate_periodic(spec, level_cap=60, grid_size=64,
                                                     tol=1e-12))


@pytest.mark.parametrize("model", ["reference", "harmonic-2"])
def test_fold_premise_conjugate_roots(model, periodic74_spec, periodic74_boundary,
                                      harmonic2_model):
    # the fold rests on the n < 0 roots being exact conjugates of their
    # mirrors; coefficients() rebuilds their columns as conjugates, which is
    # the direct all-roots value bit for bit: both sum the period rule node
    # by node down each column, so a column rounds alike wherever it sits
    spec, boundary = ((periodic74_spec, periodic74_boundary) if model == "reference"
                      else harmonic2_model)
    ts = np.linspace(0.0, 1.0, 33)
    for q in (0, 3, 10, 40):
        roots = build_root_set(spec, q)
        mirror = {(r.n, r.y) for r in roots if r.n > 0}
        negative = [r for r in roots if r.n < 0]
        assert len(negative) == len(mirror) == q * spec.m
        assert all((-r.n, r.y.conjugate()) in mirror for r in negative), q
        folded = SeriesEvaluator(roots, boundary).coefficients(ts)
        direct = all_roots_coefficients(roots, boundary, ts)
        assert np.array_equal(folded, direct), q


def test_quadrature_self_convergence(periodic74_spec, periodic74_dist,
                                     periodic74_roots10, periodic74_boundary,
                                     monkeypatch):
    base = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    # the same series under a finer period rule, 12 nodes on 128 panels; the
    # root set and boundary are fresh, as the fixtures keep base-rule values
    xi, wi = np.polynomial.legendre.leggauss(12)
    half = 0.5 / 128
    mid = (2 * np.arange(128) + 1) * half
    monkeypatch.setattr(_quad, "PERIOD_NODES", (mid[:, None] + half * xi).ravel())
    monkeypatch.setattr(_quad, "PERIOD_WEIGHTS", np.tile(half * wi, 128))
    rich = SeriesEvaluator(build_root_set(periodic74_spec, 10),
                           extract_boundary(periodic74_dist))
    ts = np.arange(8) / 8.0
    a = base.level_matrix(1, ts).real
    b = rich.level_matrix(1, ts).real
    # a rule bound at import would hand rich the base values
    assert not np.array_equal(a, b)
    assert np.abs(a - b).max() < 1e-10


def test_time_memo_sees_in_place_edits(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    ts = np.linspace(0.0, 1.0, 9)
    ev.level_matrix(2, ts)
    ts[3] = 0.123
    fresh = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    assert np.array_equal(ev.level_matrix(2, ts), fresh.level_matrix(2, ts.copy()))
    ts[5] = 0.777
    fresh = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    assert np.array_equal(ev.coefficients(ts), fresh.coefficients(ts.copy()))


def test_period_integral_follows_the_boundary(periodic74_spec, periodic74_roots10,
                                              periodic74_boundary):
    # the coefficients are linear in the boundary, and halving is exact
    b = periodic74_boundary
    half = BoundaryFunctions(spec=b.spec, series=0.5 * b.series)
    ts = np.linspace(0.0, 1.0, 5)
    full = SeriesEvaluator(periodic74_roots10, b).coefficients(ts)
    halved = SeriesEvaluator(periodic74_roots10, half).coefficients(ts)
    again = SeriesEvaluator(periodic74_roots10, b).coefficients(ts)
    assert np.array_equal(halved, 0.5 * full)
    assert np.array_equal(again, full)


def test_level_one_rounding_floor(periodic74_dist, periodic74_roots10,
                                  periodic74_boundary):
    # at order 10 coefficients |f| up to 3.4e4 cancel to level-1 values of
    # at most 0.095, so level 1 shows the boundary's rounding magnified: a
    # 1e-16 relative perturbation of the boundary's series moves it by
    # 8.7e-13 to 1.4e-11 over seven seeds (8.7e-13 for this one), as a
    # change of BLAS thread count can
    b = periodic74_boundary
    rng = np.random.default_rng(2026)
    moved = BoundaryFunctions(
        spec=b.spec, series=b.series * (1.0 + 1e-16 * rng.standard_normal(b.series.shape)))
    assert not np.array_equal(moved.series, b.series)
    ts = periodic74_dist.grid
    base = SeriesEvaluator(periodic74_roots10, b)
    assert np.abs(base.coefficients(ts)).max() > 1e4
    diff = np.abs(SeriesEvaluator(periodic74_roots10, moved).level_matrix(1, ts).real
                  - base.level_matrix(1, ts).real).max()
    assert 0.0 < diff <= 1e-10


def test_returned_arrays_are_fresh(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    ts = np.linspace(0.0, 1.0, 5)
    coef = ev.coefficients(ts)
    expected_coef = coef.copy()
    coef[:] = 0.0
    values = ev.level_matrix(1, ts)
    expected_values = values.copy()
    values[:] = 0.0
    assert np.array_equal(ev.coefficients(ts), expected_coef)
    assert np.array_equal(ev.level_matrix(1, ts), expected_values)


def test_series_route_builds_no_root_object(periodic74_spec, periodic74_boundary,
                                            monkeypatch):
    # the series route reads the root set's arrays: a root object is built
    # only for a caller that iterates the set
    built = []
    init = CharacteristicRoot.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CharacteristicRoot, "__init__", spy)
    roots = build_root_set(periodic74_spec, 10)
    ev = SeriesEvaluator(roots, periodic74_boundary)
    ts = np.linspace(0.0, 1.0, 9)
    for level in range(1, 31):
        ev.level_matrix(level, ts)
    for kind in ("queue", "sojourn"):
        wait_cdf(periodic74_spec, roots, periodic74_boundary, 0.3,
                 np.linspace(0.0, 2.0, 5), kind=kind)
    assert built == []
    assert len(list(roots)) == len(built) == 21 * 4

    for name in ("y", "poly_residual", "exp_residual"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(roots, name)[0, 0] = 0.0
    # a y of m - 1 branches, a y of no rows, and residuals of fewer rows than y
    for cut in (np.s_[:, :3], np.s_[:0], np.s_[:]):
        with pytest.raises(ValueError, match="not \\(order \\+ 1, 4\\)"):
            RootSet(periodic74_spec, np.vstack([roots.y, roots.y])[cut],
                    roots.poly_residual, roots.exp_residual)


@pytest.fixture(scope="module")
def sweep_evaluators(periodic74_spec, periodic74_boundary):
    return {q: SeriesEvaluator(build_root_set(periodic74_spec, q), periodic74_boundary)
            for q in _SWEEP_ORDERS}


def _kept(ev, level, ts) -> int:
    """How many half-set roots the level's product runs over."""
    return len(ev._level_operands(level, ts)[1]) // 2


def _assert_within_cut_bound(ev, level, ts, moved_by_subnormal_cut=0.0):
    """The level's values against the uncut product: bit for bit where no
    root is left out; else every root left out is below 2**-64 of the
    largest term bound, the last kept root is not, and the values move
    by at most the left-out roots' bounds, besides moved_by_subnormal_cut
    and the two products' rounding, (roots summed) * eps * sum of bounds
    each.  Returns the largest move and the largest uncut value."""
    log_bound = log_term_bounds(ev, level, ts)
    half, n = len(log_bound), _kept(ev, level, ts)
    values, uncut = ev.level_matrix(level, ts), uncut_level_matrix(ev, level, ts)
    if n == half:
        assert np.array_equal(values, uncut), level
        return 0.0, np.abs(uncut).max()
    # the cut's test, to the rounding of two routes to the logs
    top = log_bound.max() - 64.0 * np.log(2.0)
    assert log_bound[n - 1] >= top - 1e-9 and log_bound[n:].max() < top + 1e-9, level
    with np.errstate(under="ignore"):
        bound = np.exp(log_bound)
    diff = np.abs(values - uncut).max()
    rounding = (n + half) * _EPS * bound.sum()
    assert diff <= bound[n:].sum() + moved_by_subnormal_cut + rounding, level
    return diff, np.abs(uncut).max()


def test_level_cut_keeps_every_value(sweep_evaluators, periodic74_dist):
    # bit for bit wherever no root is left out, within the bound elsewhere;
    # the largest move over the sweep is 5.1e-18 of its level's largest value
    ts = periodic74_dist.grid
    cut = 0
    for q, ev in sweep_evaluators.items():
        for j in range(1, 31):
            diff, scale = _assert_within_cut_bound(ev, j, ts)
            assert diff <= 1e-17 * scale, (q, j)
            cut += _kept(ev, j, ts) < len(ev._factors.weight)
    assert cut > 100


def test_level_sweep_does_no_subnormal_arithmetic(sweep_evaluators, periodic74_dist):
    ts = periodic74_dist.grid
    uncut = 0
    for q, ev in sweep_evaluators.items():
        assert _subnormal_count(ev._factors.rows) == 0
        half = len(ev._factors.weight)
        for j in range(1, 31):
            f_parts, rows = ev._level_operands(j, ts)
            n = len(rows) // 2
            assert f_parts.shape == (len(ts), 2 * n) and rows.shape[1] == 28, (q, j)
            assert _subnormal_count(f_parts) == 0, (q, j)
            assert _subnormal_count(rows) == 0, (q, j)
            full = uncut_level_rows(ev, j)
            uncut += _subnormal_count(full)
            # a multiplied root keeps its row of B only if every entry's
            # modulus is normal
            kept = rows.any(axis=1)
            kept = kept[:n] | kept[n:]
            assert np.hypot(full[:n], full[half:half + n])[kept].min() >= _TINY, (q, j)
    # without the cuts, the sweep's level rows hold subnormal entries
    assert uncut > 5_000


def test_deep_level_cut_is_within_bound(sweep_evaluators, periodic74_dist):
    # past level 100 the values approach 1e-300: the sum keeps one root,
    # whose level row the subnormal cut drops or flushes at some levels;
    # each term of a root whose level row is cut or flushed moves by less
    # than sqrt(2) * 2**-1022 * max |f| * (max |row| / min |row|) / min(1,
    # min |f|), and both cuts' bounds add up
    ev = sweep_evaluators[40]
    ts = periodic74_dist.grid
    size = np.abs(ev._coefficients(ts))
    rows = np.abs(ev._factors.rows)
    term_bound = np.sqrt(2.0) * _TINY * size.max(axis=0) / np.minimum(size.min(axis=0), 1.0) \
        * (rows.max(axis=1) / rows.min(axis=1))
    assert term_bound.max() < 1e-281
    half = len(rows)
    moved = 0
    for j in range(100, 131):
        operands = ev._level_operands(j, ts)[1]
        n = len(operands) // 2
        full = uncut_level_rows(ev, j)
        changed = (operands != np.vstack([full[:n], full[half:half + n]])).any(axis=1)
        touched = changed[:n] | changed[n:]
        moved += _assert_within_cut_bound(ev, j, ts, term_bound[:n][touched].sum())[0] > 0.0
    assert moved > 0


def test_empty_time_array_gives_no_rows(periodic74_spec, sweep_evaluators,
                                        periodic74_dist):
    ev = SeriesEvaluator(build_root_set(periodic74_spec, 10),
                         extract_boundary(periodic74_dist))
    for j in (1, 5, 30):
        assert ev.level_matrix(j, np.array([])).shape == (0, 28)
    ts = periodic74_dist.grid
    assert np.array_equal(ev.level_matrix(5, ts),
                          sweep_evaluators[10].level_matrix(5, ts))


def test_zero_boundary_gives_zeros_without_warnings(periodic74_roots10,
                                                     periodic74_boundary):
    b = periodic74_boundary
    ev = SeriesEvaluator(periodic74_roots10,
                         BoundaryFunctions(spec=b.spec, series=np.zeros_like(b.series)))
    ts = np.linspace(0.0, 1.0, 9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for j in (1, 5, 30, 120):
            values = ev.level_matrix(j, ts)
            assert values.shape == (9, 28) and not values.any(), j


def test_reference_kept_counts(sweep_evaluators, periodic74_dist):
    ts = periodic74_dist.grid
    ev = sweep_evaluators[40]
    assert [_kept(ev, j, ts) for j in (1, 2)] == [164, 164]
    assert _kept(ev, 10, ts) <= 12
    assert max(_kept(ev, j, ts) for j in range(21, 31)) <= 4


def test_deep_levels_need_no_far_roots(periodic74_roots40, sweep_evaluators,
                                       periodic74_dist):
    # from level 4 on order 40 keeps only roots with n <= 20, so orders 20
    # and 40 multiply the same operands
    ts = periodic74_dist.grid
    half = [r for r in periodic74_roots40 if r.n >= 0]
    for j in range(4, 31):
        n = _kept(sweep_evaluators[40], j, ts)
        assert n <= 44 and half[n - 1].n <= 20, j
        assert np.array_equal(sweep_evaluators[40].level_matrix(j, ts),
                              sweep_evaluators[20].level_matrix(j, ts)), j


def test_order_80_stays_within_the_cut_bound(periodic74_spec, periodic74_boundary,
                                             periodic74_dist):
    ev = SeriesEvaluator(build_root_set(periodic74_spec, 80), periodic74_boundary)
    ts = periodic74_dist.grid
    for j in range(1, 61):
        _assert_within_cut_bound(ev, j, ts)
    assert _kept(ev, 60, ts) < 5


def test_level_zero_is_rejected(periodic74_roots10, periodic74_boundary):
    ev = SeriesEvaluator(periodic74_roots10, periodic74_boundary)
    with pytest.raises(ValueError):
        ev.level_matrix(0, np.array([0.0]))


def test_mismatched_root_set_rejected(mm1_spec, periodic74_roots10,
                                      mm1_boundary):
    with pytest.raises(ValueError, match="different model"):
        SeriesEvaluator(periodic74_roots10, mm1_boundary)


def test_phase_weight_table():
    spec = ModelSpec(2, 3, RateFunction(1.0), RateFunction(2.0))
    rs = build_root_set(spec, 0)
    root = max(rs, key=lambda r: abs(r.y))
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
