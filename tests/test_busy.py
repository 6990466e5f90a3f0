"""Busy-period first passage: free-process weights, Volterra march, ODE oracle.

The free-process weight matrices get a route-independent check here: the
generating function in the level variable solves a small matrix ODE, so
integrating it around the unit circle and inverting by FFT recovers every
weight at once without a Poisson table in sight.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.stats import skellam

from ekemq import (
    ModelSpec,
    RateFunction,
    busy_oracle,
    busy_period_cdf,
    oracle,
)
from ekemq.busy import (
    _BlockedLayout,
    _causal_index,
    _inverse_kernels,
    _poisson_taps,
)
from reference import (generator_blocks, net_change_matrix,
                       net_change_probability, unflushed_busy_oracle)


@pytest.fixture(scope="module")
def tight_spec():
    return ModelSpec(2, 3,
                     RateFunction(1.0, sin=((1, 0.5),)),
                     RateFunction(2.0, cos=((1, 0.3),)))


def _fourier_inversion_weights(spec, u, t, n_points=128, rk_steps=320):
    """All net-change weight matrices at once, via the unit circle.

    The z-transform G(z) of the weights solves dG/dtau = G * (local(tau)
    + z * up(tau) + down(tau) / z) from the identity, so an RK4 sweep at
    the n_points-th roots of unity followed by a DFT yields the weights.
    """
    km = spec.k * spec.m
    zs = np.exp(2j * np.pi * np.arange(n_points) / n_points)

    def bundle(tau):
        b = generator_blocks(spec, tau)
        return (b.local[None, :, :]
                + zs[:, None, None] * b.up[None, :, :]
                + (1.0 / zs)[:, None, None] * b.down[None, :, :])

    g = np.tile(np.eye(km, dtype=complex), (n_points, 1, 1))
    h = (t - u) / rk_steps
    for i in range(rk_steps):
        tau = u + i * h
        b0 = bundle(tau)
        bh = bundle(tau + 0.5 * h)
        b1 = bundle(tau + h)
        k1 = g @ b0
        k2 = (g + 0.5 * h * k1) @ bh
        k3 = (g + 0.5 * h * k2) @ bh
        k4 = (g + h * k3) @ b1
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return np.fft.fft(g, axis=0) / n_points


def test_weights_reduce_to_identity(periodic74_spec):
    eye = np.eye(28)
    assert np.abs(net_change_matrix(periodic74_spec, 0.4, 0.4, 0) - eye).max() \
        < 1e-12
    for n in (-2, -1, 1, 3):
        assert np.abs(net_change_matrix(periodic74_spec, 0.4, 0.4, n)).max() \
            < 1e-15


def test_weight_rows_are_stochastic(periodic74_spec):
    total = sum(net_change_matrix(periodic74_spec, 0.15, 0.95, n)
                for n in range(-25, 15))
    assert np.abs(total.sum(axis=1) - 1.0).max() < 3e-15
    assert total.min() >= 0.0


def test_weights_reduce_to_skellam(mm1_spec):
    u, t = 0.3, 1.9
    for n in range(-10, 11):
        got = net_change_matrix(mm1_spec, u, t, n)[0, 0]
        want = skellam.pmf(n, 3.0 * (t - u), 5.0 * (t - u))
        assert got == pytest.approx(want, abs=1e-14)


def test_weights_match_fourier_inversion(tight_spec):
    u, t = 0.2, 1.1
    coeffs = _fourier_inversion_weights(tight_spec, u, t)
    assert np.abs(coeffs.imag).max() < 1e-12
    for n in range(-6, 7):
        mine = net_change_matrix(tight_spec, u, t, n)
        assert np.abs(mine - coeffs[n % 128].real).max() < 1e-10


def test_weights_match_scalar_route(periodic74_spec):
    spec = periodic74_spec
    u, t = 0.1, 0.7
    rng = np.random.default_rng(11)
    mats = {n: net_change_matrix(spec, u, t, n) for n in range(-6, 7)}
    for _ in range(120):
        n = int(rng.integers(-5, 6))
        a1, a2 = rng.integers(0, 7, size=2)
        s1, s2 = rng.integers(0, 4, size=2)
        # the scalar route counts whole cycles, so a backward phase step
        # inside the window moves one cycle across the boundary
        shift = n + (1 if s2 < s1 else 0) - (1 if a2 < a1 else 0)
        scalar = net_change_probability(spec, u, t, shift,
                                        int(a1), int(s1), int(a2), int(s2))
        entry = mats[n][a1 * 4 + s1, a2 * 4 + s2]
        assert entry == pytest.approx(scalar, abs=1e-16)


# Reference CDF values for the stationary M/M/1 busy period started by one
# customer (lam = 3, mu = 5), from adaptive quadrature of the classical
# modified-Bessel density, accurate to ~1e-13.
_MM1_BUSY_REF = {0.1: 0.35121381324630, 0.5: 0.75571793104732,
                 1.0: 0.87397158130974}


def test_mm1_volterra_frozen_values(mm1_spec):
    sol = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.01)
    total = sol.total()
    for t_ref, want in _MM1_BUSY_REF.items():
        i = int(round((t_ref - sol.u) / sol.step))
        assert total[i] == pytest.approx(want, abs=2e-5)


@pytest.mark.parametrize("u, step", [(0.0, 1.0 / 128), (0.5, 1.0 / 128),
                                     (0.0, 1.0 / 512)],
                         ids=["bench-u0", "bench-u0.5", "cli-defaults"])
def test_flush_keeps_oracle_values(periodic74_spec, u, step, monkeypatch):
    # the benchmark's busy-period settings at two start times half a period
    # apart, and the CLI defaults: the flushed march reads the values and
    # cap_mass of the same march with no entry zeroed, and its values are
    # within rounding of the CSR march on all 40 levels (5.6e-17 measured)
    sol = busy_oracle(periodic74_spec, 1, (0, 0), u=u, horizon=5.0, step=step,
                      level_cap=40, substeps=4)
    monkeypatch.setattr(oracle, "_STATE_FLOOR", 0.0)
    plain = busy_oracle(periodic74_spec, 1, (0, 0), u=u, horizon=5.0, step=step,
                        level_cap=40, substeps=4)
    assert sol.solved_levels == plain.solved_levels == 10
    assert np.array_equal(sol.values, plain.values)
    assert sol.cap_mass == plain.cap_mass
    values, _, subnormal = unflushed_busy_oracle(
        periodic74_spec, 1, (0, 0), u=u, horizon=5.0, step=step, level_cap=40,
        substeps=4)
    assert np.abs(sol.values - values).max() <= 1e-15
    # without the flush, the march carries subnormal entries
    assert subnormal > 1000


_REFERENCE = ModelSpec(7, 4, RateFunction(3.0, sin=((1, -2.0),)),
                       RateFunction(5.0, sin=((1, 4.0),)))
_LOAD_08 = ModelSpec(7, 4, RateFunction(7.0, sin=((1, -2.0),)),
                     RateFunction(5.0, sin=((1, 4.0),)))
_LOAD_095 = ModelSpec(7, 4, RateFunction(8.3125, sin=((1, -2.0),)),
                      RateFunction(5.0, sin=((1, 4.0),)))
_LOAD_099 = ModelSpec(7, 4, RateFunction(8.6625, sin=((1, -2.0),)),
                      RateFunction(5.0, sin=((1, 4.0),)))
_K2_M3 = ModelSpec(2, 3, RateFunction(1.5, cos=((1, 0.5), (3, 0.3))),
                   RateFunction(3.0, sin=((2, 1.0),)))


@pytest.mark.parametrize("spec, level, cap, solved", [
    (_LOAD_08, 1, 40, 16), (_LOAD_095, 1, 120, 18), (_LOAD_099, 1, 120, 18),
    (_REFERENCE, 3, 40, 12), (_K2_M3, 1, 40, 24), (_K2_M3, 1, 120, 24)],
    ids=["load-0.8", "load-0.95-cap-120", "load-0.99-cap-120", "start-level-3",
         "k2-m3", "k2-m3-cap-120"])
def test_march_on_the_levels_that_hold_mass_keeps_values(spec, level, cap, solved):
    # L = min(cap, level + ceil(n* / k)) from the start stage 0: n* is 63 at
    # the reference model's arrival mass 15 over the horizon, 102 at load
    # 0.8, 113 and 116 at loads 0.95 and 0.99, 45 for k = 2, m = 3; the
    # march on levels 1..L reads the values of the unflushed CSR march on
    # every level to rounding, whatever the load
    sol = busy_oracle(spec, level, 0, u=0.3, horizon=5.0, step=1 / 128,
                      level_cap=cap, substeps=4)
    values, _, _ = unflushed_busy_oracle(spec, level, 0, u=0.3, horizon=5.0,
                                         step=1 / 128, level_cap=cap, substeps=4)
    assert sol.solved_levels == solved
    assert np.abs(sol.values - values).max() <= 1e-15
    assert sol.cap_mass <= sol.reach_bound < 1e-18


@pytest.mark.parametrize("k, m, lam, mu, level, phase, horizon", [
    (7, 4, 3.0, 5.0, 1, (2, 3), 1.5), (1, 1, 3.0, 5.0, 1, 0, 2.0),
    (1, 4, 3.0, 20.0, 2, (0, 3), 2.0), (4, 1, 12.0, 5.0, 1, (3, 0), 2.0)],
    ids=["phase-2-3", "mm1", "k1-m4", "k4-m1"])
def test_level_march_matches_the_csr_march(k, m, lam, mu, level, phase, horizon):
    # a start phase off stage 0 at horizon 1.5, and the window of three
    # levels at its k = 1 and m = 1 edges, where every arrival or every
    # service crosses a level
    spec = ModelSpec(k, m, RateFunction(lam, sin=((1, -2.0),)),
                     RateFunction(mu, sin=((1, 4.0),)))
    sol = busy_oracle(spec, level, phase, u=0.3, horizon=horizon, step=1 / 128,
                      level_cap=60, substeps=4)
    values, _, _ = unflushed_busy_oracle(spec, level, phase, u=0.3, horizon=horizon,
                                         step=1 / 128, level_cap=60, substeps=4)
    assert sol.solved_levels < 60
    assert sol.total()[-1] > 0.5
    assert np.abs(sol.values - values).max() <= 1e-15


def test_arrivals_leave_the_bound_cap_within_its_mass():
    # level_cap 5 binds (the rule's L is 8 over [0, 3]), and level 5 peaks
    # at 6.5e-11, just below the refusal: arrivals out of level 5 leave the
    # march where the CSR march blocks them, and the values stay within the
    # refusal's 1e-10 of it (5.6e-17 measured)
    sol = busy_oracle(_REFERENCE, 1, 0, horizon=3.0, step=1 / 128, level_cap=5,
                      substeps=4)
    values, cap_mass, _ = unflushed_busy_oracle(_REFERENCE, 1, 0, u=0.0, horizon=3.0,
                                                step=1 / 128, level_cap=5, substeps=4)
    assert (sol.solved_levels, sol.reach_bound) == (5, None)
    assert 1e-11 < sol.cap_mass <= cap_mass <= 1e-10
    assert np.abs(sol.values - values).max() <= 1e-10


def test_busy_oracle_marches_once_with_no_rate_matrix(periodic74_spec, monkeypatch):
    # the reach needs only the arrival rate's integral, 4.5 - 2 / pi over
    # [0, 1.5] (n* = 33): one march per call, on 1 + ceil(33 / 7) levels
    # from stage 0 at level 1 and 3 + ceil(35 / 7) from stage 2 at level 3,
    # and no periodic solve, not even the rate matrix at the mean rates
    def refuse(*args):
        raise AssertionError("busy_oracle built a rate matrix")
    monkeypatch.setattr(oracle, "_rate_matrix", refuse)
    caps = []
    original = oracle._level_march

    def spy(parts, m, lam, mu, h, levels):
        caps.append(len(levels))
        return original(parts, m, lam, mu, h, levels)
    monkeypatch.setattr(oracle, "_level_march", spy)
    for level, phase in ((1, (0, 0)), (3, (2, 3))):
        sol = busy_oracle(periodic74_spec, level, phase, horizon=1.5, step=1 / 128,
                          level_cap=40, substeps=4)
        assert caps[-1] == sol.solved_levels
    assert caps == [6, 8]


def test_reach_bound_is_reported_where_the_rule_sets_the_levels(periodic74_spec):
    # the arrival mass over [0, 5] is 15 and n* = 63: level 1 + ceil(63 / 7)
    # = 10 holds at most e^-15 (15 e / 63)^63 = 3.8e-19 at any record.  At a
    # level_cap of 9 the cap binds and the march reports no bound; at 10 it
    # is the rule's own L.  The Volterra route reports none.
    bound = math.exp(63 * (1.0 + math.log(15.0 / 63)) - 15.0)
    for cap, levels, want in ((40, 10, bound), (10, 10, bound), (9, 9, None)):
        sol = busy_oracle(periodic74_spec, 1, (0, 0), horizon=5.0, step=1 / 128,
                          level_cap=cap, substeps=1)
        assert (sol.solved_levels, sol.reach_bound) == (levels, want)
    assert busy_period_cdf(periodic74_spec, 1, (0, 0), horizon=1.0,
                           step=1 / 64).reach_bound is None


def test_mm1_oracle_frozen_values(mm1_spec):
    sol = busy_oracle(mm1_spec, 1, 0, horizon=1.0, step=0.025,
                      level_cap=60, substeps=32)
    total = sol.total()
    for t_ref, want in _MM1_BUSY_REF.items():
        i = int(round(t_ref / 0.025))
        assert total[i] == pytest.approx(want, abs=1e-9)
    assert sol.cap_mass < 1e-10
    assert sol.source == "ode"


def test_refinement_beats_raw_march(mm1_spec):
    raw = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.01,
                          refine=False)
    refined = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.01)
    want = _MM1_BUSY_REF[1.0]
    assert abs(refined.total()[-1] - want) < abs(raw.total()[-1] - want) / 5


@pytest.mark.parametrize("horizon, step", [(1.0, 0.03), (2.0, 0.0075)])
def test_refinement_when_step_does_not_divide_horizon(mm1_spec, horizon, step):
    # the fine march must sit on the coarse grid's own times: 1/0.03 rounds
    # to 33 steps, 2/0.03 to 67; 2/0.0075 to 267, 4/0.0075 to 533
    refined = busy_period_cdf(mm1_spec, 1, 0, horizon=horizon, step=step)
    oracle = busy_oracle(mm1_spec, 1, 0, horizon=horizon, step=step,
                         level_cap=40, substeps=64)
    assert np.array_equal(refined.times, oracle.times)
    assert np.abs(refined.total() - oracle.total()).max() <= 1e-3


def test_error_estimate_tracks_raw_error(mm1_spec):
    raw = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.01,
                          refine=False)
    fine = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.005,
                           refine=False)
    refined = busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.01)
    idx = [int(round(t_ref / 0.01)) for t_ref in _MM1_BUSY_REF]
    want = np.array(list(_MM1_BUSY_REF.values()))
    fine_err = np.abs(fine.total()[::2][idx] - want).max()
    refined_err = np.abs(refined.total()[idx] - want).max()
    est = refined.error_estimate
    assert fine_err / 1.5 <= est <= 1.5 * fine_err
    assert est >= refined_err
    assert raw.error_estimate is None
    assert busy_oracle(mm1_spec, 1, 0, horizon=1.0, step=0.05,
                       level_cap=60).error_estimate is None


def _brute_force_march(spec, level, q0, u, horizon, n_steps):
    """Product-trapezoid march assembled from whole kernel matrices.

    X(t_i) + h/2 X(t_i) local(t_i) = g'(t_i) - h sum_{r<i} w_r X0(t_r)
    K(t_r, t_i), with K and g' built from net_change_matrix and the
    generator blocks, and X0 the row restricted to fresh-service columns.
    Returns the CDF by arrival stage on the grid.
    """
    k, m = spec.k, spec.m
    km = k * m
    h = horizon / n_steps
    times = u + h * np.arange(n_steps + 1)
    blocks = [generator_blocks(spec, t) for t in times]
    fresh = np.zeros(km)
    fresh[::m] = 1.0

    def kernel(r, i, base):
        b = blocks[i]
        return (net_change_matrix(spec, times[r], times[i], base + 1) @ b.down
                + net_change_matrix(spec, times[r], times[i], base) @ b.local
                + net_change_matrix(spec, times[r], times[i], base - 1) @ b.up)

    dens = np.zeros((n_steps + 1, km))
    for i in range(n_steps + 1):
        rhs = kernel(0, i, -level)[q0].copy()
        for r in range(i):
            weight = 0.5 if r == 0 else 1.0
            rhs -= h * weight * (dens[r] * fresh) @ kernel(r, i, 0)
        lhs = np.eye(km) + 0.5 * h * blocks[i].local if i else np.eye(km)
        dens[i] = np.linalg.solve(lhs.T, rhs)
    on_support = dens[:, ::m]
    increments = 0.5 * h * (on_support[1:] + on_support[:-1])
    return np.vstack([np.zeros((1, k)), np.cumsum(increments, axis=0)])


@pytest.mark.parametrize("level, phase, n_steps", [
    (1, (0, 0), 32),
    (2, (1, 2), 24),
    (3, (1, 1), 20),
    # a start too high to empty within the horizon
    (13, (1, 2), 8),
])
def test_march_matches_brute_force_assembly(tight_spec, level, phase,
                                            n_steps):
    u, horizon = 0.2, 0.75
    sol = busy_period_cdf(tight_spec, level, phase, u=u, horizon=horizon,
                          step=horizon / n_steps, refine=False)
    want = _brute_force_march(tight_spec, level, sol.phase, u, horizon,
                              n_steps)
    assert np.abs(sol.values - want).max() < 1e-12


@pytest.mark.parametrize("case, level, phase, step", [
    # M/M/1: one arrival and one service stage, so every stage completion
    # moves a level
    ("mm1", 1, 0, 0.75 / 32),
    ("mm1", 3, 0, 0.75 / 16),
    # the last stage of both streams: the next completions change the level
    ("periodic74", 2, (6, 3), 0.75 / 12),
    # 0.75 / 0.037 = 20.3, so the march takes 20 steps of 0.0375
    ("tight", 2, (1, 0), 0.037),
])
def test_march_matches_brute_force_at_lattice_edges(request, case, level,
                                                    phase, step):
    spec = request.getfixturevalue(f"{case}_spec")
    u, horizon = 0.2, 0.75
    sol = busy_period_cdf(spec, level, phase, u=u, horizon=horizon,
                          step=step, refine=False)
    n_steps = int(round(horizon / step))
    assert sol.step == horizon / n_steps
    want = _brute_force_march(spec, level, sol.phase, u, horizon, n_steps)
    assert np.abs(sol.values - want).max() < 1e-12


# Reference-model CDF totals at t = u + 0.25, 1 and 2 (step 1/128, horizon
# 2), as the history-sum march computed them before the level lattice
# replaced it; the lattice agrees to rounding.
_REFERENCE_BUSY_FROZEN = {
    (1, (0, 0), 0.37): {
        False: (0.04097164803609337, 0.7226548027697013, 0.9603606614857476),
        True: (0.0409586410201653, 0.7220300710268536, 0.9586623490381884),
    },
    (2, (6, 3), 0.1): {
        False: (0.052091336806582324, 0.23036539240396744, 0.6538966159350885),
        True: (0.051981184294830146, 0.2298085648785402, 0.6526035958372514),
    },
}


@pytest.mark.parametrize("start", list(_REFERENCE_BUSY_FROZEN))
def test_reference_volterra_frozen_values(periodic74_spec, start):
    level, phase, u = start
    for refine, want in _REFERENCE_BUSY_FROZEN[start].items():
        sol = busy_period_cdf(periodic74_spec, level, phase, u=u, horizon=2.0,
                              step=1 / 128, refine=refine)
        got = sol.total()[[32, 128, 256]]
        assert np.abs(got - np.array(want)).max() < 1e-14, refine


def test_raw_march_is_second_order(mm1_spec):
    sols = [busy_period_cdf(mm1_spec, 1, 0, horizon=1.5, step=s,
                            refine=False).total()
            for s in (1 / 32, 1 / 64, 1 / 128)]
    e1 = np.abs(sols[0] - sols[1][::2]).max()
    e2 = np.abs(sols[1] - sols[2][::2]).max()
    assert np.log2(e1 / e2) > 1.9


def test_periodic_routes_agree_level_one(periodic74_spec):
    vol = busy_period_cdf(periodic74_spec, 1, 0, horizon=2.0, step=1 / 128)
    ode = busy_oracle(periodic74_spec, 1, 0, horizon=2.0, step=1 / 128,
                      level_cap=40, substeps=4)
    assert np.abs(vol.total() - ode.total()).max() < 5e-5
    assert np.abs(vol.values - ode.values).max() < 5e-5


def test_periodic_routes_agree_interior_start(periodic74_spec):
    vol = busy_period_cdf(periodic74_spec, 1, (2, 3), u=0.3, horizon=1.5,
                          step=1 / 128)
    ode = busy_oracle(periodic74_spec, 1, (2, 3), u=0.3, horizon=1.5,
                      step=1 / 128, level_cap=40, substeps=4)
    assert np.abs(vol.total() - ode.total()).max() < 1e-5
    flat = busy_period_cdf(periodic74_spec, 1, 2 * 4 + 3, u=0.3, horizon=1.5,
                           step=1 / 128)
    assert np.array_equal(vol.values, flat.values)
    assert vol.phase == 11


@pytest.mark.parametrize("k, m, level, phase", [
    (3, 1, 2, (0, 0)),      # E3/M/1: one service stage
    (1, 3, 3, (0, 2)),      # M/E3/1: one arrival stage
    (7, 4, 3, (4, 2)),      # interior start above level one
])
def test_routes_agree_across_stage_counts(k, m, level, phase):
    spec = ModelSpec(k, m,
                     RateFunction(3.0 * k / 7, sin=((1, -2.0 * k / 7),)),
                     RateFunction(5.0 * m / 4, sin=((1, 4.0 * m / 4),)))
    vol = busy_period_cdf(spec, level, phase, u=0.3, horizon=2.0,
                          step=1 / 64)
    ode = busy_oracle(spec, level, phase, u=0.3, horizon=2.0, step=1 / 64,
                      level_cap=40, substeps=4)
    assert np.abs(vol.total() - ode.total()).max() < 1e-5


def test_cdf_shape_and_monotonicity(periodic74_spec):
    sol = busy_period_cdf(periodic74_spec, 1, 0, horizon=2.0, step=1 / 128)
    assert sol.values.shape == (257, 7)
    assert np.all(sol.values[0] == 0.0)
    assert sol.values.min() > -1e-9
    total = sol.total()
    assert np.all(np.diff(total) > -1e-9)
    assert total[-1] <= 1.0 + 1e-6
    assert sol.off_support < 1e-3


def test_off_support_shrinks_with_step(periodic74_spec):
    coarse = busy_period_cdf(periodic74_spec, 1, 0, horizon=1.0, step=1 / 64,
                             refine=False)
    fine = busy_period_cdf(periodic74_spec, 1, 0, horizon=1.0, step=1 / 128,
                           refine=False)
    assert fine.off_support < coarse.off_support
    assert fine.off_support < 5e-3


def test_higher_start_empties_later(periodic74_spec):
    one = busy_oracle(periodic74_spec, 1, 0, horizon=2.0, step=1 / 64,
                      level_cap=40, substeps=4)
    two = busy_oracle(periodic74_spec, 2, 0, horizon=2.0, step=1 / 64,
                      level_cap=40, substeps=4)
    assert np.all(two.total() <= one.total() + 1e-12)
    assert two.total()[-1] < one.total()[-1]


def test_too_coarse_step_is_reported(periodic74_spec):
    with pytest.raises(RuntimeError, match="too coarse"):
        busy_period_cdf(periodic74_spec, 1, 0, horizon=5.0, step=1 / 32,
                        refine=False)


def test_non_finite_march_is_reported(mm1_spec):
    # h (lam + mu) / 2 = 1 at step 0.25: the implicit matrix is singular
    for refine in (False, True):
        with pytest.raises(RuntimeError, match="too coarse"):
            busy_period_cdf(mm1_spec, 1, 0, horizon=1.0, step=0.25,
                            refine=refine)


def _scalar_taps(mean):
    """Poisson taps by the ratio recurrence, cut once past the mean where a
    tap falls below 1e-18 of the head."""
    taps = [np.exp(-mean)]
    while len(taps) <= mean or taps[-1] >= 1e-18 * taps[0]:
        taps.append(taps[-1] * mean / len(taps))
    return np.array(taps)


def test_taps_follow_the_scalar_cut_rule():
    means = np.array([1e-20, 0.004, 0.05, 0.7, 3.0, 12.5])
    taps = _poisson_taps(means)
    for row, mean in zip(taps, means):
        want = _scalar_taps(mean)
        assert np.array_equal(row[:len(want)], want)
        assert not row[len(want):].any()
    assert len(_scalar_taps(means.max())) == taps.shape[1] - 1
    with pytest.raises(RuntimeError, match="too coarse"):
        _poisson_taps(np.array([0.1, 800.0]))


def test_blocked_carry_matches_tap_convolution():
    # rows laid out as `_poisson_taps` lays them out (a zero column last),
    # with random taps so that every tap shows; the first row has fewer taps
    # than b + 1, and the lattice length is not a multiple of b
    b, length = 4, 23
    rng = np.random.default_rng(7)
    taps = np.hstack([rng.random((2, b + 1)), np.zeros((2, 1))])
    taps[0, 3:] = 0.0
    layout = _BlockedLayout(3, length, b)
    x = rng.random((3, length))
    layout.seq[:] = x
    for row in taps:
        got = layout.carry(row)
        want = np.array([np.convolve(seq, row)[:length] for seq in x])
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (7, 4)])
def test_closed_form_inverse_matches_solve(k, m):
    spec = ModelSpec(k, m,
                     RateFunction(3.0 * k / 7, sin=((1, -2.0 * k / 7),)),
                     RateFunction(5.0 * m / 4, sin=((1, 4.0 * m / 4),)))
    times = np.linspace(0.0, 1.0, 17)
    lam, mu = spec.arrival.value(times), spec.service.value(times)
    causal = _causal_index(k, m)
    rhs = np.random.default_rng(3).standard_normal(k * m)
    # from step 1/1024 to the coarsest power of two at which the diagonal
    # d = 1 - h (lam + mu) / 2 stays positive
    steps = [2.0 ** -e for e in range(10, 0, -1)
             if 2.0 ** -e * (lam + mu).max() < 2.0]
    assert len(steps) >= 7
    for h in steps:
        kernels = _inverse_kernels(k, m, h, lam, mu)
        for i, t in enumerate(times):
            lhs = np.eye(k * m) + 0.5 * h * generator_blocks(spec, t).local.T
            want = np.linalg.solve(lhs, rhs)
            got = rhs @ kernels[i][causal]
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_cap_overflow_is_reported(mm1_spec):
    # an arrival mass of 3 over the horizon reaches level 2 + 30, past the cap
    with pytest.raises(RuntimeError, match="level cap 4 within the horizon 1.0"):
        busy_oracle(mm1_spec, 2, 0, horizon=1.0, step=0.05, level_cap=4)


def test_long_horizon_marches_at_the_cap(mm1_spec):
    # an arrival mass of 3e300: the search for n* stops at the cap instead
    # of stepping toward n*, and the march on the 4 cap levels is then
    # refused for its step
    with pytest.raises(RuntimeError, match="too coarse"):
        busy_oracle(mm1_spec, 1, 0, horizon=1e300, step=1e299, level_cap=4)


@pytest.mark.parametrize("step", [0.5, 0.25])
def test_busy_oracle_too_coarse_is_reported(periodic74_spec, step):
    # h * 2 max(lam + mu) is 8 and 4, past RK4's real stability limit of
    # 2.78: unchecked, the totals reach about 1e9 and -1.5e3 at the horizon,
    # while the signed mass at the cap sums to zero
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match=f"step {step} with substeps 1 "
                                               "is too coarse"):
            busy_oracle(periodic74_spec, 1, 0, horizon=3.0, step=step,
                        level_cap=20, substeps=1)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    # the same horizon on a fine enough step passes every check
    fine = busy_oracle(periodic74_spec, 1, 0, horizon=3.0, step=step,
                       level_cap=20, substeps=16)
    assert 0.0 <= fine.cap_mass <= 1e-10
    assert 0.99 < fine.total()[-1] <= 1.0 + 1e-12


def test_argument_checks(periodic74_spec, mm1_spec):
    with pytest.raises(ValueError):
        busy_period_cdf(periodic74_spec, 0, 0)
    with pytest.raises(ValueError):
        busy_oracle(periodic74_spec, 0, 0)
    with pytest.raises(ValueError):
        busy_period_cdf(periodic74_spec, 1, (7, 0))
    with pytest.raises(ValueError):
        busy_period_cdf(periodic74_spec, 1, 28)
    with pytest.raises(ValueError):
        busy_period_cdf(periodic74_spec, 1, 0, horizon=-1.0)
    with pytest.raises(ValueError, match="start level 40 is not below level_cap 40"):
        busy_oracle(mm1_spec, 40, 0, level_cap=40)
    with pytest.raises(ValueError, match="substeps must be >= 1"):
        busy_oracle(mm1_spec, 1, 0, substeps=0)
    with pytest.raises(ValueError, match="horizon and step must be positive"):
        busy_oracle(mm1_spec, 1, 0, step=-0.01)
    with pytest.raises(ValueError, match="horizon and step must be positive"):
        busy_oracle(mm1_spec, 1, 0, horizon=-1.0)
    with pytest.raises(ValueError, match="horizon must cover at least one step"):
        busy_oracle(mm1_spec, 1, 0, horizon=0.1, step=0.25)
    with pytest.raises(ValueError):
        net_change_probability(periodic74_spec, 0.0, 1.0, 0, 9, 0, 0, 0)


@pytest.mark.parametrize("route", [busy_period_cdf, busy_oracle])
def test_phase_may_be_any_pair(periodic74_spec, route):
    def run(phase):
        return route(periodic74_spec, 1, phase, horizon=0.5, step=1 / 64)

    want = run((2, 1))
    for phase in ([2, 1], np.array([2, 1])):
        got = run(phase)
        assert got.phase == want.phase == 9
        assert np.array_equal(got.values, want.values)
    with pytest.raises(ValueError, match="pair"):
        run((2, 1, 0))
    # a float phase is refused, not truncated to an integer one
    for phase in (9.5, (2.5, 1), np.array([2.0, 1.0])):
        with pytest.raises(TypeError):
            run(phase)
