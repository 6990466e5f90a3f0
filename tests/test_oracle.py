"""Periodic ODE oracle: harmonic balance against the time-domain solve,
conservation, closed-form reductions."""

import dataclasses
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
import reference
from reference import (_generator, _rk4_march, _structure_matrices,
                       generator_blocks, interpolating_series, mean_rate_matrix,
                       periodic_structure, time_domain_periodic)
from test_roots import _sweep_models

from ekemq import oracle
from ekemq import (
    BoundaryFunctions,
    ModelSpec,
    RateFunction,
    extract_boundary,
    integrate_periodic,
)
from ekemq._fourier import TrigInterpolant
from ekemq.oracle import PeriodicDistribution


def test_mm1_reduces_to_truncated_geometric(mm1_dist):
    rho = 0.6
    cap = mm1_dist.level_cap
    norm = 1.0 - rho ** (cap + 1)
    assert np.abs(mm1_dist.idle[:, 0] - (1 - rho) / norm).max() < 1e-10
    for j in (1, 2, 5, 10, 20):
        target = (1 - rho) * rho ** j / norm
        assert np.abs(mm1_dist.levels[:, j - 1, 0] - target).max() < 1e-10


def test_mm1_boundary_is_flat(mm1_boundary):
    u = np.linspace(0.0, 1.0, 13)
    rho = 0.6
    norm = 1.0 - rho ** 61
    assert np.abs(mm1_boundary.idle_at(u) - 0.4 / norm).max() < 1e-10
    assert np.abs(mm1_boundary.first_at(u) - 0.24 / norm).max() < 1e-10


def test_boundary_is_immutable(mm1_dist):
    boundary = extract_boundary(mm1_dist)
    for arr in (boundary.series, *boundary.period_samples):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        boundary.series = np.full_like(boundary.series, 5.0)
    norm = 1.0 - 0.6 ** 61
    assert boundary.idle_at([0.0])[0, 0] == pytest.approx(0.4 / norm, abs=1e-10)
    # the distribution the boundary came from is read-only too
    assert not mm1_dist.idle.flags.writeable and not mm1_dist.grid.flags.writeable


def test_distribution_is_immutable(mm1_dist):
    mm1_dist.idle_at([0.0])
    for arr in (mm1_dist.idle, mm1_dist.levels, mm1_dist.grid):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        mm1_dist.idle = np.full_like(mm1_dist.idle, 5.0)
    # the samples are the series at the grid, from the same evaluator
    grid = mm1_dist.grid
    assert np.array_equal(mm1_dist.idle_at(grid), mm1_dist.idle)
    assert np.array_equal(mm1_dist.levels_at(grid), mm1_dist.levels)
    idle, levels = mm1_dist.states_at([0.3, 0.7])
    assert np.array_equal(idle, mm1_dist.idle_at([0.3, 0.7]))
    assert np.array_equal(levels, mm1_dist.levels_at([0.3, 0.7]))


def test_samples_are_the_series_at_the_grid(periodic74_spec, periodic74_dist):
    # idle and levels are states_at(grid), made on first read, so they read
    # it bit for bit, with levels padded to the cap
    dist = periodic74_dist
    idle, levels = dist.states_at(dist.grid)
    assert np.array_equal(idle, dist.idle) and np.array_equal(levels, dist.levels)
    assert dist.idle is dist.idle and dist.levels is dist.levels
    assert dist.idle.base is dist.levels.base
    assert not dist.idle.flags.writeable and not dist.levels.flags.writeable
    assert dist.levels.shape == (512, 50, 28) and not dist.levels[:, 8:].any()
    # the samples are the listed states in the series' columns, read-only:
    # padded with zeros, they are idle and levels to the bit
    assert dist.samples is dist.samples and not dist.samples.flags.writeable
    assert dist.samples.shape == (dist.grid_size, dist.series.shape[1]) == (512, 231)
    padded = np.zeros((512, 7 + 50 * 28))
    padded[:, :231] = dist.samples
    assert np.array_equal(padded.view(np.uint64), np.hstack(
        [dist.idle, dist.levels.reshape(512, -1)]).view(np.uint64))
    # no time, no rows
    assert [a.shape for a in dist.states_at([])] == [(0, 7), (0, 50, 28)]
    fresh = PeriodicDistribution(spec=periodic74_spec, series=dist.series,
                                 grid_size=dist.grid_size, periods=dist.periods,
                                 residual=dist.residual)
    assert not {"samples", "_samples", "_interp"} & set(vars(fresh))


def test_law_and_boundary_compare_by_identity(periodic74_spec, periodic74_dist,
                                              periodic74_boundary):
    # a law and a boundary hold arrays, whose == has no single truth value:
    # both hash, serve as dict keys and compare equal only to themselves
    dist, boundary = periodic74_dist, periodic74_boundary
    twin = PeriodicDistribution(spec=periodic74_spec, series=dist.series,
                                grid_size=dist.grid_size, periods=dist.periods,
                                residual=dist.residual)
    other = extract_boundary(twin)
    keys = {dist: "law", twin: "twin", boundary: "boundary", other: "other"}
    assert [keys[x] for x in (dist, twin, boundary, other)] == ["law", "twin", "boundary",
                                                                 "other"]
    assert dist == dist and not dist == twin and dist != twin
    assert boundary == boundary and boundary != other and not boundary == other


def _sampled_law(spec, idle, levels):
    """A law through the interpolating series of its samples."""
    series = interpolating_series(np.hstack([idle, levels.reshape(len(idle), -1)]))
    return PeriodicDistribution(spec=spec, series=series, grid_size=len(idle),
                                periods=1, residual=0.0)


def test_grids_are_read_off_the_samples(mm1_spec):
    idle = np.full((8, 1), 0.4)
    levels = 0.4 * 0.6 ** np.arange(1, 31)[None, :, None] * np.ones((8, 1, 1))
    dist = _sampled_law(mm1_spec, idle, levels)
    assert (dist.grid_size, dist.level_cap) == (8, 30)
    assert np.array_equal(dist.grid, np.arange(8) / 8)
    assert np.abs(dist.idle - idle).max() < 1e-15
    assert np.abs(dist.levels - levels).max() < 1e-15
    # the law holds a copy, so editing the series it was built from is no edit
    series = np.array(dist.series)
    law = PeriodicDistribution(spec=mm1_spec, series=series, grid_size=8, periods=1,
                               residual=0.0)
    series[0, 0] = 5.0
    assert law.idle[0, 0] == pytest.approx(0.4)


def test_law_refuses_a_malformed_series(periodic74_spec):
    # k = 7 and km = 28: a series needs 7 + 28 L columns for a whole L >= 1,
    # and L is its width, whatever the columns hold
    def law(series, **cap):
        return PeriodicDistribution(spec=periodic74_spec, series=series,
                                    grid_size=8, periods=0, residual=0.0, **cap)

    zeros = law(np.zeros((1, 7 + 2 * 28)))
    assert (zeros.solved_levels, zeros.level_cap) == (2, 2)
    wide = law(zeros.series, level_cap=np.int64(5))
    assert wide.level_cap == 5 and type(wide.level_cap) is int
    with pytest.raises(ValueError, match="level_cap 1 is below the 2 levels of series"):
        law(zeros.series, level_cap=1)
    with pytest.raises(TypeError, match="level_cap must be an integer"):
        law(zeros.series, level_cap=2.0)
    for grid_size in (0, -8):
        with pytest.raises(ValueError, match=f"grid_size must be >= 1, got {grid_size}"):
            PeriodicDistribution(spec=periodic74_spec, series=np.zeros((1, 35)),
                                 grid_size=grid_size, periods=0, residual=0.0)
    for series in (np.zeros(7 + 28), np.zeros((1, 7)), np.zeros((1, 7 + 28 + 5)),
                   np.zeros((1, 7 + 2 * 28 - 1)), np.zeros((2, 3, 35))):
        with pytest.raises(ValueError, match=r"series has shape .*, not \(N \+ 1, "
                                             r"k \+ L \* km\) with k = 7, "
                                             r"km = 28, L >= 1$"):
            law(series)


def test_boundary_is_the_law_series_sliced(periodic74_dist, periodic74_boundary):
    # the boundary is the solved series of the idle and level-1 states,
    # exactly, so at the grid times it reads the law's samples to rounding
    dist, boundary = periodic74_dist, periodic74_boundary
    assert boundary.spec == dist.spec
    assert np.array_equal(boundary.series, dist.series[:, :7 + 28])
    assert not boundary.series.flags.writeable
    assert np.abs(boundary.idle_at(dist.grid) - dist.idle).max() <= 1e-16
    assert np.abs(boundary.first_at(dist.grid) - dist.levels[:, 0]).max() <= 1e-16
    # a series of another width than k + km is refused
    with pytest.raises(ValueError, match=r"k \+ km = 35\)"):
        BoundaryFunctions(spec=dist.spec, series=dist.series[:, :34])


def test_total_mass_is_one(periodic74_dist):
    assert np.abs(periodic74_dist.idle.sum(axis=1)
                  + periodic74_dist.levels.sum(axis=(1, 2)) - 1.0).max() < 1e-12


def test_nonnegative_and_converged(periodic74_dist):
    assert periodic74_dist.idle.min() > -1e-12
    assert periodic74_dist.levels.min() > -1e-12
    assert periodic74_dist.residual <= 1e-10
    assert periodic74_dist.periods < 40


def test_cap_leakage_negligible(periodic74_dist):
    # sp(R) is 0.003225 here, so the solve keeps levels 1..8 of the 50; the
    # mass on level 8, at most 3.8e-17, is the check, not the zero level 50
    dist = periodic74_dist
    assert (dist.level_cap, dist.solved_levels) == (50, 8)
    assert dist.level_decay == pytest.approx(0.0032247, rel=1e-5)
    assert 3.7e-17 < dist.cap_mass() < 3.9e-17
    assert dist.cap_mass() == dist.levels[:, 7].sum(axis=1).max()
    assert dist.series.shape == (13, 7 + 8 * 28)
    assert not dist.levels[:, 8:].any()


def test_grid_refinement_consistency(periodic74_spec, periodic74_dist):
    coarse = integrate_periodic(periodic74_spec, level_cap=50, grid_size=256,
                                tol=1e-10)
    ts = np.arange(16) / 16.0
    fine_vals = periodic74_dist.levels_at(ts)
    coarse_vals = coarse.levels_at(ts)
    assert np.abs(fine_vals - coarse_vals).max() < 1e-8


def test_level_cap_insensitivity(periodic74_spec, periodic74_dist):
    wider = integrate_periodic(periodic74_spec, level_cap=60, grid_size=512,
                               tol=1e-10)
    ts = np.arange(8) / 8.0
    a = periodic74_dist.levels_at(ts)[:, :40, :]
    b = wider.levels_at(ts)[:, :40, :]
    assert np.abs(a - b).max() < 1e-9
    assert np.abs(periodic74_dist.idle_at(ts) - wider.idle_at(ts)).max() < 1e-9


def test_interpolation_matches_grid_samples(periodic74_dist):
    grid = periodic74_dist.grid
    idx = [0, 17, 256, 511]
    at = periodic74_dist.idle_at(grid[idx])
    assert np.abs(at - periodic74_dist.idle[idx]).max() < 1e-9
    lv = periodic74_dist.levels_at(grid[idx])
    assert np.abs(lv - periodic74_dist.levels[idx]).max() < 1e-9


def test_level_mass_and_ordering(periodic74_dist):
    m1 = periodic74_dist.levels[:, 0].sum(axis=1)
    m5 = periodic74_dist.levels[:, 4].sum(axis=1)
    assert np.all(m1 > 0)
    assert np.all(m5 < m1)


def test_boundary_values_are_nonnegative_and_shaped(periodic74_dist):
    boundary = extract_boundary(periodic74_dist)
    u = np.linspace(0.0, 2.0, 29)
    assert boundary.idle_at(u).min() >= 0.0
    assert boundary.first_at(u).min() >= 0.0
    assert boundary.idle_at(u).shape == (29, 7)
    assert boundary.first_at(u).shape == (29, 28)


def test_boundary_rejects_negative_values(mm1_spec):
    # a law whose idle or level-1 sample dips below -1e-9 at a grid time has
    # no boundary; a dip within -1e-9 is rounding and passes.  A constant
    # series is its samples exactly.
    for name, column in (("idle", 0), ("first", 1)):
        series = np.concatenate([[0.4], 0.4 * 0.6 ** np.arange(1, 31)])[None]
        for value in (-5e-10, -2e-9):
            series[0, column] = value
            dist = PeriodicDistribution(spec=mm1_spec, series=series, grid_size=8,
                                        periods=0, residual=0.0)
            assert (dist.idle if name == "idle" else dist.levels[:, 0]).min() == value
            if value == -5e-10:
                extract_boundary(dist)
                continue
            with pytest.raises(ValueError, match=f"boundary slice {name} is negative "
                                                 r"\(-2.000e-09\)"):
                extract_boundary(dist)


def test_boundary_periodicity(periodic74_boundary):
    u = np.linspace(0.0, 1.0, 11)
    a = periodic74_boundary.idle_at(u)
    b = periodic74_boundary.idle_at(u + 3.0)
    assert np.abs(a - b).max() < 1e-12


def test_trig_interpolant_exact_on_bandlimited_data():
    grid = np.arange(16) / 16.0
    samples = (1.3 + 0.4 * np.cos(2 * np.pi * grid)
               - 0.9 * np.sin(2 * np.pi * 3 * grid))
    coef = interpolating_series(samples[:, None])
    assert coef.shape == (9, 1)
    interp = TrigInterpolant(coef)
    dense = np.linspace(0.0, 2.0, 101)
    expected = (1.3 + 0.4 * np.cos(2 * np.pi * dense)
                - 0.9 * np.sin(2 * np.pi * 3 * dense))
    assert np.abs(interp(dense)[:, 0] - expected).max() < 1e-12
    # the series' own coefficients: c_1 = 0.2, c_3 = 0.45i
    direct = TrigInterpolant([[1.3], [0.2], [0.0], [0.45j]])
    assert np.abs(direct(dense)[:, 0] - expected).max() < 1e-14


def test_unconverged_run_raises():
    # a rate at harmonic 50: the solve starts at N = 100, where |c_N| is still
    # 2.6e-3, and half again would pass the largest N, 128
    spec = ModelSpec(1, 1, RateFunction(60.0, cos=((50, 59.0),)), RateFunction(120.0))
    with pytest.raises(RuntimeError, match="harmonics reach past 128: .* at N = 100"):
        integrate_periodic(spec, level_cap=20, grid_size=64)
    # a rate at harmonic 65 would start past 128
    spec = ModelSpec(1, 1, RateFunction(60.0, cos=((65, 1.0),)), RateFunction(120.0))
    with pytest.raises(RuntimeError, match="rates reach harmonic 65, past half"):
        integrate_periodic(spec, level_cap=20, grid_size=64)


def test_unreachable_tol_stalls():
    # the equations' residual stops near 5.8e-16, in rounding
    with pytest.raises(RuntimeError, match="stalled at residual .* > tol = 1.000e-16"):
        integrate_periodic(ModelSpec(1, 1, RateFunction(3.0, sin=((1, 2.0),)),
                                     RateFunction(5.0)), level_cap=40, tol=1e-16)


def test_mass_at_cap_raises():
    # load 0.98: the solve converges, but 3e-3 of the law sits at the cap
    spec = ModelSpec(2, 3, RateFunction(1.9, sin=((1, 0.5),)),
                     RateFunction(2.9, cos=((2, 0.3),)))
    with pytest.raises(RuntimeError, match="at the level cap 60"):
        integrate_periodic(spec, level_cap=60, grid_size=16, tol=1e-12)


def test_high_load_converges(periodic74_spec):
    spec = ModelSpec(7, 4, RateFunction(7.0, sin=((1, -2.0),)),
                     periodic74_spec.service)
    assert spec.load == pytest.approx(0.8)
    dist = integrate_periodic(spec, level_cap=120, grid_size=128, tol=1e-10)
    # N = 12 suffices, as at load 0.34; the time-domain ladder took 11 fine
    # periods after 24 on grid 32
    assert dist.periods == 12
    assert dist.residual <= 1e-10
    # solved on levels 1..37 of the 120: sp(R) is 0.3173
    assert dist.solved_levels == 37
    assert dist.cap_mass() <= 1e-15
    mass = dist.idle.sum(axis=1) + dist.levels.sum(axis=(1, 2))
    assert np.abs(mass - 1.0).max() <= 1e-12
    # within tol of the tight solve, where the tol-1e-10 ladder was 1.0e-9 off
    tight = integrate_periodic(spec, level_cap=120, grid_size=128, tol=1e-14)
    assert np.abs(dist.idle - tight.idle).max() <= 1e-10
    assert np.abs(dist.levels - tight.levels).max() <= 1e-10


def _law(dist):
    return np.hstack([dist.idle, dist.levels.reshape(dist.grid_size, -1)])


_STRESS = {
    "reference": (ModelSpec(7, 4, RateFunction(3.0, sin=((1, -2.0),)),
                            RateFunction(5.0, sin=((1, 4.0),))), 50),
    # N grows 12 -> 18 here: max |c_12| is 1.6e-9, max |c_18| 5.4e-14
    "k2-m3-harmonics-1-3-2": (ModelSpec(
        2, 3, RateFunction(1.5, sin=((1, 0.8),), cos=((3, 0.5),)),
        RateFunction(4.0, cos=((2, 1.5),))), 40),
    "arrival-touching-zero": (ModelSpec(7, 4, RateFunction(3.0, cos=((1, -3.0),)),
                                        RateFunction(5.0, sin=((1, 4.0),))), 50),
    # the time-domain solve takes about 3 s here
    "load-0.8": (ModelSpec(7, 4, RateFunction(7.0, sin=((1, -2.0),)),
                           RateFunction(5.0, sin=((1, 4.0),))), 120),
    # loads low enough that the capped level stays under the cap check's
    # 1e-6: at most 8.7e-7 on level 1 and 8.1e-10 on level 2
    "level-cap-1": (ModelSpec(2, 3, RateFunction(2e-6, sin=((1, 1e-6),), cos=((3, 5e-7),)),
                              RateFunction(4.0, cos=((2, 1.5),))), 1),
    "level-cap-2": (ModelSpec(2, 3, RateFunction(2e-3, sin=((1, 1e-3),), cos=((3, 5e-4),)),
                              RateFunction(4.0, cos=((2, 1.5),))), 2),
    # one harmonic, not the first: the law has only its multiples.  N runs
    # 15 -> 25 -> 40 (max |c_25| is 2.7e-11) and 12 -> 18 -> 28 (max |c_18|
    # is 2.3e-13); an N between multiples would test an exact 0 and stop,
    # at N = 12 off by 1.0e-6 for harmonic 5
    "arrival-harmonic-5-only": (ModelSpec(2, 3, RateFunction(1.5, sin=((5, 1.2),)),
                                          RateFunction(4.0)), 40),
    "service-harmonic-2-only": (ModelSpec(2, 3, RateFunction(1.5),
                                          RateFunction(4.0, cos=((2, 3.9),))), 40),
}


@pytest.mark.parametrize("name", sorted(_STRESS))
def test_law_matches_time_domain_solve(name):
    # RK4 at grid 2048 is within about 1.2e-13 of the truncated system's
    # periodic law on the reference (its grid-512 error, 3.2e-11, over 4^4).
    # The law is that of the queue on unbounded levels, so the time-domain
    # solve runs at a cap that does not bind (8 levels where the law lists
    # 1 or 2) and is compared on the law's levels
    spec, cap = _STRESS[name]
    dist = integrate_periodic(spec, level_cap=cap, grid_size=2048, tol=1e-13)
    ref = time_domain_periodic(spec, level_cap=max(cap, 8), grid_size=2048, tol=1e-13)
    assert dist.residual <= 1e-13
    width = spec.k + cap * spec.phase_count
    assert np.abs(_law(dist) - _law(ref)[:, :width]).max() <= 1e-12


@pytest.mark.parametrize("name", ["level-cap-1", "level-cap-2"])
def test_level_cap_only_cuts_the_list(name):
    # the law lists the levels of the queue on unbounded levels: a cap of
    # 1, 2, 8 or 50 lists the same values on the levels they share (at most
    # 3.8e-13 from the law with arrivals blocked at the cap).  Level 1 of
    # the second model holds 8.7e-4, so it refuses a cap of 1
    spec, first = _STRESS[name]
    with pytest.raises(RuntimeError, match="at the level cap 1") if first > 1 else nullcontext():
        integrate_periodic(spec, level_cap=1, grid_size=64, tol=1e-13)
    laws = [integrate_periodic(spec, level_cap=cap, grid_size=64, tol=1e-13)
            for cap in (first, 2, 8, 50)]
    widest = _law(laws[-1])
    for dist in laws:
        assert dist.periods == laws[-1].periods
        width = spec.k + dist.level_cap * spec.phase_count
        assert np.abs(_law(dist) - widest[:, :width]).max() <= 1e-16


def test_load_0_99_lists_its_810_levels():
    # arrival 8.6625 - 2 sin 2 pi t on the reference's service: the law
    # falls by 0.9500993 a level, so 810 levels reach 1e-18, within a cap of
    # 900; the rate matrix takes 6 iterations at N = 12 from the walk's
    # start (508 from Y = 0, test_walk_reaches_the_zero_start_law)
    spec = ModelSpec(7, 4, RateFunction(8.6625, sin=((1, -2.0),)),
                     _STRESS["reference"][0].service)
    assert spec.load == pytest.approx(0.99)
    dist = integrate_periodic(spec, level_cap=900, grid_size=64)
    assert dist.level_decay == pytest.approx(0.9500993, rel=1e-7)
    assert (dist.periods, dist.solved_levels) == (12, 810)
    assert dist.residual <= 1e-10
    mass = dist.idle.sum(axis=1) + dist.levels.sum(axis=(1, 2))
    assert np.abs(mass - 1.0).max() <= 1e-12


@pytest.mark.parametrize("name, spacing, top", [("arrival-harmonic-5-only", 5, 40),
                                                ("service-harmonic-2-only", 2, 28)])
def test_n_steps_by_the_harmonic_spacing(name, spacing, top):
    spec, cap = _STRESS[name]
    coef, residual, _, _ = oracle._fourier_coefficients(spec, cap, 1e-13)
    assert len(coef) - 1 == top and residual <= 1e-13
    # the harmonics off the spacing solve to exactly 0
    off = np.arange(len(coef)) % spacing != 0
    assert not coef[off].any()


def test_constant_rates_take_the_mean_solve_alone(flat74_spec):
    dist = integrate_periodic(flat74_spec, level_cap=50, grid_size=16, tol=1e-13)
    assert dist.periods == 0 and dist.residual <= 1e-13
    law = _law(dist)
    assert np.array_equal(law, np.broadcast_to(law[0], law.shape))
    # the stationary law of the generator: p G = 0 and mass 1
    at, mt = _parts(periodic_structure(7, 4, 50))
    assert np.abs(3.0 * (at @ law[0]) + 5.0 * (mt @ law[0])).max() <= 1e-14
    assert abs(law[0].sum() - 1.0) <= 1e-15


@pytest.mark.parametrize("grid_size", [4, 5, 8, 16])
def test_coarse_grid_samples_the_series(periodic74_spec, grid_size):
    # N = 12 and grid_size < 2N + 1: the samples are the series itself at
    # the grid times, every harmonic included
    coef = oracle._fourier_coefficients(periodic74_spec, 50, 1e-10)[0]
    assert len(coef) == 13
    t = np.arange(grid_size) / grid_size
    direct = (coef[0].real + 2.0 * np.real(
        np.exp(2j * np.pi * np.outer(t, np.arange(1, 13))) @ coef[1:]))
    dist = integrate_periodic(periodic74_spec, level_cap=50, grid_size=grid_size)
    assert np.abs(dist.samples - direct).max() <= 1e-15
    if 512 % grid_size == 0:
        # grid_size sets only the samples: the grid-512 law at the same times
        fine = integrate_periodic(periodic74_spec, level_cap=50, grid_size=512)
        assert np.abs(_law(dist) - _law(fine)[::512 // grid_size]).max() <= 1e-15


@pytest.mark.parametrize("grid_size", [8, 512])
def test_law_reads_its_series_between_grid_times(periodic74_spec, grid_size):
    # the solved series, not an interpolant of the samples: on grid 8 the
    # samples alias harmonics 4..12, and the series does not
    coef = oracle._fourier_coefficients(periodic74_spec, 50, 1e-10)[0]
    dist = integrate_periodic(periodic74_spec, level_cap=50, grid_size=grid_size)
    u = np.array([0.03, 0.41, 0.77])
    direct = (coef[0].real + 2.0 * np.real(
        np.exp(2j * np.pi * np.outer(u, np.arange(1, 13))) @ coef[1:]))
    idle, levels = dist.states_at(u)
    listed = np.hstack([idle, levels[:, :8].reshape(3, -1)])
    assert np.abs(listed - direct).max() <= 1e-15 and not levels[:, 8:].any()
    with pytest.raises(ValueError):
        dist.series[0, 0] = 1.0


def test_stiff_rates_solve_on_any_grid():
    # max(lam + mu) is about 72, so RK4 needs h <= 2.78 / 144 and refuses
    # grid 16 (test_too_coarse_grid_is_reported); the coefficients do not
    # depend on the grid
    spec = ModelSpec(2, 3, RateFunction(20.0, sin=((1, 5.0),)),
                     RateFunction(45.0, cos=((1, 5.0),)))
    coarse = integrate_periodic(spec, level_cap=40, grid_size=16)
    fine = integrate_periodic(spec, level_cap=40, grid_size=64)
    assert coarse.residual <= 1e-10
    assert np.abs(_law(coarse) - _law(fine)[::4]).max() <= 1e-15
    assert _law(fine).min() >= -1e-12
    assert np.abs(_law(fine).sum(axis=1) - 1.0).max() <= 1e-12


def _mean_rate_decay(spec):
    """sp(R) of the rate matrix at N = 0 and the mean rates."""
    mean = [(spec.arrival.mean(), {}), (spec.service.mean(), {})]
    rate = oracle._rate_matrix(oracle._operators(mean, 1, 1), spec.k, spec.m)[2]
    return np.abs(np.linalg.eigvals(rate)).max()


def _rate_operators(spec, count=13):
    """`oracle._operators` of spec's rates on the harmonics 0..count - 1."""
    rates = [(rate.mean(), oracle._harmonics(rate)) for rate in (spec.arrival, spec.service)]
    return oracle._operators(rates, 1, count)


def _coordinates(c):
    """The real coordinates (states, 2 count - 1) of rows c_0..c_{count-1}."""
    x = np.empty((c.shape[1], 2 * len(c) - 1))
    x[:, 0], x[:, 1::2], x[:, 2::2] = c[0].real, c[1:].real.T, c[1:].imag.T
    return x


def _series(x):
    """The rows c_0..c_{count-1} of real coordinates x."""
    return np.vstack([x[:, 0], (x[:, 1::2] + 1j * x[:, 2::2]).T])


def test_growing_n_factors_each_harmonic_once(monkeypatch):
    # max |c_12| is 1.6e-9 on this model: N grows to 18.  Each N takes one
    # rate matrix over the harmonics 0..N, H = 2N + 1 coordinates, on one
    # walk: N = 0 (the mean rates, whose sp(R) = 0.2578 sets the 31 levels
    # listed), the rungs N = 3 and 6, then N = 12 and 18, each started from
    # the Y of the one before
    spec, cap = _STRESS["k2-m3-harmonics-1-3-2"]
    solves, starts, ys, listed = [], [], [], []
    rate_matrix, solve_levels = oracle._rate_matrix, oracle._solve_levels

    def spy(ops, k, m, start=None):
        solves.append((len(ops[0]), None if start is None else start.shape))
        starts.append(start)
        out = rate_matrix(ops, k, m, start)
        ys.append(out[1])
        return out

    def levels_spy(ops, k, m, levels, start=None):
        listed.append(levels)
        return solve_levels(ops, k, m, levels, start)
    monkeypatch.setattr(oracle, "_rate_matrix", spy)
    monkeypatch.setattr(oracle, "_solve_levels", levels_spy)
    dist = integrate_periodic(spec, level_cap=cap, grid_size=64, tol=1e-12)
    assert solves == [(1, None), (7, (2, 3)), (13, (2 * 7, 3 * 7)), (25, (2 * 13, 3 * 13)),
                      (37, (2 * 25, 3 * 25))]
    assert all(start is y for start, y in zip(starts[1:], ys))
    assert listed == [31, 31]
    assert dist.periods == 18 and dist.residual <= 1e-12
    assert (dist.level_cap, dist.solved_levels) == (cap, 31)


_SEEDED = list(_sweep_models())

# Models on which the walk's start is checked against Y = 0: (spec,
# level_cap, grid_size, N, levels solved), N and the levels those of the
# Y = 0 start.  The reference, loads 0.8 and 0.99, the k=2, m=3 model of
# harmonics 1, 2 and 3 (N grows 12 -> 18), M/M/1, and models 2 and 56 of
# the seeded sweep (k=4, m=5 at load 0.966 and k=3, m=2 at 0.952): both
# have harmonic 3 in both rates, so the walk runs N = 0, 12, 18, and from
# the mean rates' Y the updates at N = 12 stop falling at 2.4e-4 and
# 5.1e-5 of |Y|, far above rounding, and then converge.
_WALK = {
    "reference": (_STRESS["reference"][0], 50, 512, 12, 8),
    "load-0.8": (_STRESS["load-0.8"][0], 120, 512, 12, 37),
    "load-0.99": (ModelSpec(7, 4, RateFunction(8.6625, sin=((1, -2.0),)),
                            RateFunction(5.0, sin=((1, 4.0),))), 900, 64, 12, 810),
    "k2-m3-harmonics-1-2-3": (ModelSpec(2, 3, RateFunction(1.5, cos=((1, 0.5), (3, 0.3))),
                                        RateFunction(3.0, sin=((2, 1.0),))), 60, 512, 18, 60),
    "k1-m1": (ModelSpec(1, 1, RateFunction(1.0, sin=((1, -0.5),)),
                        RateFunction(2.0, sin=((1, 1.0),))), 60, 512, 12, 60),
    "seeded-2": (_SEEDED[2], 3000, 64, 18, 271),
    "seeded-56": (_SEEDED[56], 3000, 64, 18, 353),
}


@pytest.mark.parametrize("name", sorted(_WALK))
def test_walk_reaches_the_zero_start_law(name):
    # the rate matrix at N started from the walk below it (N = 0, 3 and 6
    # under 12) reaches the fixed point that Y = 0 reaches: at the same N
    # and on the same levels the law is within 1e-13 of the Y = 0 law, and
    # at load 0.99 the walk's start takes at most 10 iterations at N where
    # Y = 0 takes 508
    spec, cap, grid, top, solved = _WALK[name]
    dist = integrate_periodic(spec, level_cap=cap, grid_size=grid)
    assert (dist.periods, dist.solved_levels) == (top, solved)
    ops = _rate_operators(spec, top + 1)
    flat, residual, _, iterations = oracle._solve_levels(ops, spec.k, spec.m, solved)
    flat = _series(flat)
    assert residual <= 1e-10 and np.abs(flat[-1]).max() <= 1e-10
    assert np.abs(dist.series[:, :flat.shape[1]] - flat).max() <= 1e-13
    if name == "load-0.99":
        assert iterations > 500 and dist.iterations <= 10


def test_level_blocks_are_reused_below_the_cap(periodic74_spec):
    # one pair of blocks serves every level: level j is K applied to level
    # j - 1's final arrival stages, on all 50 levels of the cap
    k, m = 7, 4
    ops = _rate_operators(periodic74_spec)
    f, y, rate, _ = oracle._rate_matrix(ops, k, m)
    gain = -(f[:, :100] + f[:, 100:] @ y @ rate)
    x = oracle._solve_levels(ops, k, m, 50)[0]
    levels = x[k:].reshape(50, k * m * 25)
    below = levels[:, (k - 1) * m * 25:]
    for j in range(1, 50):
        want = gain @ below[j - 1]
        assert np.abs(levels[j] - want).max() <= 1e-15 * np.abs(levels[j - 1]).max()
    assert np.abs(below[1:] - below[:-1] @ rate.T).max() <= 1e-15 * np.abs(below).max()


# Models and caps on which the level block's inverse is checked against the
# dense solve: the reference, loads 0.8 and 0.95, the k=2, m=3 model of
# harmonics 1, 2 and 3, M/M/1, and caps of 1 and 2 levels.
_LEVEL_CASES = {
    "reference": (_STRESS["reference"][0], 50),
    "load-0.8": (_STRESS["load-0.8"][0], 120),
    "load-0.95": (ModelSpec(7, 4, RateFunction(8.3125, sin=((1, -2.0),)),
                            RateFunction(5.0, sin=((1, 4.0),))), 500),
    "k2-m3-harmonics-1-2-3": (ModelSpec(2, 3, RateFunction(1.5, cos=((1, 0.5), (3, 0.3))),
                                        RateFunction(3.0, sin=((2, 1.0),))), 60),
    "k1-m1": (ModelSpec(1, 1, RateFunction(3.0, sin=((1, 1.0),)), RateFunction(5.0)), 60),
    "k1-m1-cap-1": (ModelSpec(1, 1, RateFunction(3.0, sin=((1, 1.0),)), RateFunction(5.0)), 1),
    "k1-m1-cap-2": (ModelSpec(1, 1, RateFunction(3.0, sin=((1, 1.0),)), RateFunction(5.0)), 2),
    "reference-cap-1": (_STRESS["reference"][0], 1),
    "reference-cap-2": (_STRESS["reference"][0], 2),
    "level-cap-1": _STRESS["level-cap-1"],
    "level-cap-2": _STRESS["level-cap-2"],
}


@pytest.mark.parametrize("name", sorted(_LEVEL_CASES))
def test_level_inverses_match_the_dense_loop(name, monkeypatch):
    # the rates' operators on harmonics 0..12 are those of quadrature, and
    # the level block's inverse times the interfaces, by forward
    # substitution over the phases, is the dense solve's, within 1e-13
    # relative; no block depends on the cap, so the coefficients listed on
    # every level of the cap (a floor of 1e-300 lists them all) are those
    # listed on 10 levels more
    spec, cap = _LEVEL_CASES[name]
    ops = _rate_operators(spec)
    for got, want in zip(ops, reference.harmonic_operators(spec, 13)):
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    got = oracle._rate_matrix(ops, spec.k, spec.m)[0]
    want = reference.dense_interfaces(spec.k, spec.m, ops)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    monkeypatch.setattr(oracle, "_LEVEL_FLOOR", 1e-300)
    listed = oracle._fourier_coefficients(spec, cap, 1e-10)[0]
    wider = oracle._fourier_coefficients(spec, cap + 10, 1e-10)[0]
    assert listed[:, -spec.phase_count:].any()
    assert np.abs(listed - wider[:, :listed.shape[1]]).max() <= 1e-16


def test_rate_matrix_solves_one_diagonal_block(periodic74_spec, monkeypatch):
    # the forward substitution solves the H x H diagonal block once, for
    # both steps; each of the 8 iterations from Y = 0 and the final R solve
    # one (4 H) square system, H = 25 at N = 12
    shapes = []
    solve = np.linalg.solve

    def spy(a, b):
        shapes.append(np.shape(a))
        return solve(a, b)
    monkeypatch.setattr(np.linalg, "solve", spy)
    iterations = oracle._rate_matrix(_rate_operators(periodic74_spec), 7, 4)[3]
    assert iterations == 8
    assert shapes == [(25, 25)] + [(100, 100)] * 9


# The load sweep of the solved levels: (spec, level_cap, levels solved).
# The arrival mean of the reference climbs to loads 0.8 and 0.95; the k=2,
# m=3 model of harmonics 1, 2 and 3 (load 0.75, sp(R) = 0.5046) asks for 61
# levels and is held to its cap of 60.
_SWEEP = {
    "load-0.34": (_STRESS["reference"][0], 50, 8),
    "load-0.8": (_STRESS["load-0.8"][0], 120, 37),
    "load-0.95": (ModelSpec(7, 4, RateFunction(8.3125, sin=((1, -2.0),)),
                            RateFunction(5.0, sin=((1, 4.0),))), 500, 159),
    "k2-m3-harmonics-1-2-3": (ModelSpec(2, 3, RateFunction(1.5, cos=((1, 0.5), (3, 0.3))),
                                        RateFunction(3.0, sin=((2, 1.0),))), 60, 60),
}


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_level_decay_is_the_neuts_spectral_radius(name):
    # the rate matrix at N = 0 against R by Neuts' iteration (554 steps at
    # load 0.95)
    spec, cap, _ = _SWEEP[name]
    decay = _mean_rate_decay(spec)
    want = np.abs(np.linalg.eigvals(mean_rate_matrix(spec))).max()
    assert decay == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("name", sorted(_SWEEP))
def test_solve_keeps_the_levels_that_hold_mass(name, monkeypatch):
    # the law listed on levels 1..L with zeros above is within 1e-13 of the
    # law listed on every level of the cap (a floor of 1e-300 lists them
    # all); it holds at most 1e-15 on level L, or L is the cap
    spec, cap, solved = _SWEEP[name]
    dist = integrate_periodic(spec, level_cap=cap, grid_size=64)
    assert (dist.level_cap, dist.solved_levels) == (cap, solved)
    assert dist.cap_mass() <= 1e-15 or solved == cap
    assert dist.series.shape[1] == spec.k + solved * spec.phase_count
    assert dist.level_decay == _mean_rate_decay(spec)
    monkeypatch.setattr(oracle, "_LEVEL_FLOOR", 1e-300)
    series, residual, _, _ = oracle._fourier_coefficients(spec, cap, 1e-10)
    every = PeriodicDistribution(spec=spec, series=series, grid_size=64,
                                 periods=len(series) - 1, residual=residual)
    assert every.solved_levels == every.level_cap == cap
    assert np.abs(_law(dist) - _law(every)).max() <= 1e-13


def test_law_keeps_its_solve_figures(periodic74_spec, monkeypatch):
    # the reference's rate matrix takes 3 iterations at N = 12 from the
    # start of N = 3 and 6 (8 from Y = 0), and the cap
    # check's evaluation of the top solved level is the law's cap_mass: no
    # series is evaluated for it again
    dist = integrate_periodic(periodic74_spec, level_cap=50, grid_size=64)
    assert (dist.periods, dist.iterations) == (12, 3)

    def refuse(*args):
        raise AssertionError("cap_mass evaluated a series again")
    monkeypatch.setattr(oracle, "TrigInterpolant", refuse)
    assert 1e-17 < dist.cap_mass() == dist.cap_mass() < 1e-15
    law = PeriodicDistribution(spec=periodic74_spec, series=dist.series, grid_size=64,
                               periods=dist.periods, residual=dist.residual)
    assert law.iterations == 0


def _harmonic_equations(spec, cap, c):
    """The harmonic-balance equations of the queue truncated at cap, with
    the dense structure matrices and every convolution term written out."""
    at, mt = (part.toarray() for part in _parts(periodic_structure(spec.k, spec.m, cap)))
    count = len(c)
    full = {n: c[n] if n >= 0 else np.conj(c[-n]) for n in range(1 - count, count)}

    def amplitudes(rate):
        amp = {0: complex(rate.base)}
        for j, a in rate.cos:
            amp[j] = amp.get(j, 0.0) + a / 2
            amp[-j] = amp.get(-j, 0.0) + a / 2
        for j, b in rate.sin:
            amp[j] = amp.get(j, 0.0) + b / 2j
            amp[-j] = amp.get(-j, 0.0) - b / 2j
        return amp

    lam, mu = amplitudes(spec.arrival), amplitudes(spec.service)
    out = np.zeros_like(c)
    for n in range(count):
        out[n] = -2j * np.pi * n * c[n]
        for j in set(lam) | set(mu):
            if n - j in full:
                out[n] += (lam.get(j, 0.0) * at + mu.get(j, 0.0) * mt) @ full[n - j]
    return out


def _random_law(rng, count, dim):
    c = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    c[0] = c[0].real
    return c


@pytest.mark.parametrize("level_cap", [1, 2, 6])
@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (7, 4)])
def test_equations_match_the_structure_matrices(k, m, level_cap):
    # the equations on the empty level and levels 1..L, fed by level L + 1,
    # are the rows of the structure matrices truncated one level higher
    spec = ModelSpec(k, m, RateFunction(1.0, sin=((1, 0.5),), cos=((3, 0.25),)),
                     RateFunction(30.0, cos=((2, 4.0),)))
    dim = k + level_cap * k * m
    c = _random_law(np.random.default_rng(7), 8, dim + k * m)
    want = _harmonic_equations(spec, level_cap + 1, c)[:, :dim]
    above = _coordinates(c[:, dim:])[m - 1::m]
    x = _coordinates(c[:, :dim])
    got = _series(oracle._balance(reference.harmonic_operators(spec, 8), k, m, x, above))
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("spacing", [2, 5])
def test_equations_on_the_harmonic_lattice(spacing):
    # rates at harmonics d, 2d and 3d: the unknowns are the rows c_{nd}, and
    # the equations at them are the full equations with zero rows between,
    # where the full ones vanish
    d, cap = spacing, 4
    spec = ModelSpec(2, 3, RateFunction(1.0, sin=((d, 0.5),), cos=((3 * d, 0.25),)),
                     RateFunction(30.0, cos=((2 * d, 4.0),)))
    dim = 2 + cap * 6
    c = _random_law(np.random.default_rng(13), 6, dim + 6)
    full = np.zeros((5 * d + 1, dim + 6), complex)
    full[::d] = c
    want = _harmonic_equations(spec, cap + 1, full)[:, :dim]
    assert not np.delete(want, np.s_[::d], axis=0).any()
    ops = reference.harmonic_operators(spec, 6, d)
    got = _series(oracle._balance(ops, 2, 3, _coordinates(c[:, :dim]),
                                  _coordinates(c[:, dim:])[2::3]))
    assert np.abs(got - want[::d]).max() <= 1e-12 * np.abs(want).max()


def test_solve_factors_only_the_lattice_harmonics(monkeypatch):
    # harmonic 5 alone: N runs 0 -> 15 -> 25 -> 40 (15 / 5 = 3 has no rung
    # below it), and each rate matrix holds the harmonics 0, 5, ..., N
    # only, 9 of the 41 at N = 40 (H = 17)
    spec, cap = _STRESS["arrival-harmonic-5-only"]
    sizes = []
    original = oracle._rate_matrix

    def spy(ops, k, m, start=None):
        sizes.append(len(ops[0]))
        return original(ops, k, m, start)
    monkeypatch.setattr(oracle, "_rate_matrix", spy)
    coef = oracle._fourier_coefficients(spec, cap, 1e-13)[0]
    assert sizes == [1, 7, 11, 17] and len(coef) == 41


@pytest.mark.parametrize("level_cap", [1, 2, 6, 50])
@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (7, 4)])
def test_preconditioner_inverts_the_mean_equations(k, m, level_cap):
    # with constant rates the equations are the mean equations at every
    # harmonic: the solve over the harmonics 0..13 leaves c_1..c_13 at 0
    # and c_0 the stationary law, its levels falling by Neuts' R
    spec = ModelSpec(k, m, RateFunction(1.0), RateFunction(30.0))
    ops = oracle._operators([(1.0, {}), (30.0, {})], 1, 14)
    x, residual, _, _ = oracle._solve_levels(ops, k, m, level_cap)
    assert residual <= 1e-14
    assert not x[:, 1:].any()
    levels = x[k:, 0].reshape(level_cap, k * m)
    rate = mean_rate_matrix(spec)
    assert np.abs(levels[1:] - levels[:-1] @ rate).max(initial=0.0) <= 1e-15 * levels.max()


# The time-domain solve in tests/reference.py (`time_domain_periodic`, the
# period map's fixed point by RK4 on a ladder of grids) is the cross-check
# of the harmonic-balance law; the tests below pin its own ladder.

def test_nested_start_cuts_fine_periods(periodic74_spec):
    # started from the grid-32 fixed point (itself started from grid 8); the
    # averaged start needs 12 periods here and ends 3.5e-12 from the fixed point
    dist = time_domain_periodic(periodic74_spec, level_cap=50, grid_size=128)
    assert dist.periods <= 8
    assert dist.residual <= 1e-10
    tight = time_domain_periodic(periodic74_spec, level_cap=50, grid_size=128,
                                 tol=1e-14)
    assert np.abs(dist.idle - tight.idle).max() <= 1e-11
    assert np.abs(dist.levels - tight.levels).max() <= 1e-11


def test_one_operator_walks_the_whole_ladder(periodic74_spec, monkeypatch):
    # grid 128 starts from grid 32, which starts from grid 8; one operator
    # serves all three and the solve never calls itself
    builds, calls, grids = [], [], []

    def spy(name, log, record):
        original = getattr(reference, name)

        def wrapped(*args, **kwargs):
            log.append(record(*args))
            return original(*args, **kwargs)
        monkeypatch.setattr(reference, name, wrapped)

    spy("_structure_matrices", builds, lambda *args: args)
    spy("time_domain_periodic", calls, lambda *args: args[1:])
    spy("_periodic_samples", grids, lambda op, spec, grid, *rest: grid)
    dist = reference.time_domain_periodic(periodic74_spec, 50, 128)
    assert builds == [(7, 4, 50)]
    assert calls == [(50, 128)]
    assert grids == [8, 32, 128]
    assert dist.grid_size == 128 and dist.residual <= 1e-10


def test_unstable_quarter_grid_starts_from_the_averaged_law():
    # max(lam + mu) is about 72, so RK4 needs h <= 2.78 / 144: grid 64 is
    # stable, its quarter grid 16 overflows
    spec = ModelSpec(2, 3, RateFunction(20.0, sin=((1, 5.0),)),
                     RateFunction(45.0, cos=((1, 5.0),)))
    dist = time_domain_periodic(spec, level_cap=40, grid_size=64)
    assert dist.residual <= 1e-10
    assert dist.idle.min() >= -1e-12 and dist.levels.min() >= -1e-12
    mass = dist.idle.sum(axis=1) + dist.levels.sum(axis=(1, 2))
    assert np.abs(mass - 1.0).max() <= 1e-12


def test_too_coarse_grid_is_reported():
    # the model above on grid 16: h * 2 max(lam + mu) is about 9, far past
    # RK4's real stability limit of 2.78, and the first period ends with an
    # L1 norm of about 1e28
    spec = ModelSpec(2, 3, RateFunction(20.0, sin=((1, 5.0),)),
                     RateFunction(45.0, cos=((1, 5.0),)))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="grid_size 16 is too coarse"):
            time_domain_periodic(spec, level_cap=40, grid_size=16)
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_time_domain_run_out_of_periods_raises():
    # time-varying rates: constant ones start at their exact fixed point
    spec = ModelSpec(1, 1, RateFunction(3.0, sin=((1, 2.0),)), RateFunction(5.0))
    # the first rung of the grid-32 ladder is grid 8, and it fails there
    with pytest.raises(RuntimeError, match="not reached in 3 periods on grid 8 "):
        time_domain_periodic(spec, level_cap=40, grid_size=32, tol=1e-13,
                             max_periods=3)


def _truncated_generator(spec, level_cap, absorbing):
    """Dense generator of the truncated queue from the generator blocks;
    at the cap the final arrival stage is blocked, and with absorbing=True
    the empty states have no exits."""
    b = generator_blocks(spec, 0.0)
    k, km = spec.k, spec.phase_count
    edges = [0] + [k + j * km for j in range(level_cap + 1)]
    g = np.zeros((edges[-1], edges[-1]))

    def block(i, j):
        return g[edges[i]:edges[i + 1], edges[j]:edges[j + 1]]

    if not absorbing:
        block(0, 0)[:] = b.idle
        block(0, 1)[:] = b.idle_up
    block(1, 0)[:] = b.down_to_idle
    for j in range(1, level_cap + 1):
        block(j, j)[:] = b.local
        if j > 1:
            block(j, j - 1)[:] = b.down
        if j < level_cap:
            block(j, j + 1)[:] = b.up
        else:
            block(j, j)[:] += np.diag(b.up.sum(axis=1))
    return g


def _parts(op):
    """The transposed arrival and service parts AT, MT of a folded operator."""
    return _generator(op, 1.0, 0.0), _generator(op, 0.0, 1.0)


def _structure(k, m, level_cap, absorbing):
    """The killed structure `busy_oracle` marches, or the tests' periodic one."""
    return (_structure_matrices if absorbing else periodic_structure)(k, m, level_cap)


@pytest.mark.parametrize("absorbing", [False, True])
@pytest.mark.parametrize("level_cap", [1, 2, 6])
@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (7, 4)])
def test_structure_matches_generator_blocks(k, m, level_cap, absorbing):
    # G(lam, mu) = lam A + mu S; rates that are powers of two keep A and S
    # exact
    def generator(lam):
        spec = ModelSpec(k, m, RateFunction(lam), RateFunction(16.0))
        return _truncated_generator(spec, level_cap, absorbing)

    arr = generator(2.0) - generator(1.0)
    srv = (generator(1.0) - arr) / 16.0
    op = _structure(k, m, level_cap, absorbing)
    pattern, parts = op
    at, mt = _parts(op)
    assert np.array_equal(at.toarray(), arr.T)
    assert np.array_equal(mt.toarray(), srv.T)
    # the pattern is the union of the parts, and a canonical CSR of a given
    # pattern is unique
    assert pattern.has_canonical_format
    assert pattern.nnz == np.count_nonzero(np.abs(arr) + np.abs(srv))
    assert parts.shape == (2, pattern.nnz)


@pytest.mark.parametrize("k, m", [(1, 1), (1, 4), (3, 1), (2, 3), (7, 4)])
def test_level_block_matches_generator_blocks(k, m):
    # the busy oracle's level block at rates that are powers of two is the
    # generator's up, local and down blocks stacked, exactly
    spec = ModelSpec(k, m, RateFunction(2.0), RateFunction(16.0))
    b = generator_blocks(spec, 0.0)
    block = np.dot((2.0, 16.0), oracle._level_parts(k, m).reshape(2, -1))
    assert np.array_equal(block.reshape(3 * k * m, k * m),
                          np.vstack([b.up, b.local, b.down]))


@pytest.mark.parametrize("absorbing", [False, True])
@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (7, 4)])
def test_folded_generator_is_exact_on_dyadic_data(k, m, absorbing):
    # powers of two times small integers: every product and sum is exact,
    # so the folded generator must reproduce the split one bit for bit
    op = _structure(k, m, 6, absorbing)
    at, mt = _parts(op)
    v = np.random.default_rng(3).integers(-64, 65, op[0].shape[0]) * 2.0 ** -20
    for lam, mu in ((4.0, 0.5), (0.25, 8.0), (1.0, 1.0)):
        want = lam * (at @ v) + mu * (mt @ v)
        assert np.array_equal(_generator(op, lam, mu) @ v, want)


def _plain_rk4_step(at, mt, p, h, lam, mu, i):
    """RK4 with the arrival and service operators applied separately."""
    l0, lh, l1 = lam[2 * i], lam[2 * i + 1], lam[2 * i + 2]
    m0, mh, m1 = mu[2 * i], mu[2 * i + 1], mu[2 * i + 2]
    k1 = l0 * (at @ p) + m0 * (mt @ p)
    q = p + (0.5 * h) * k1
    k2 = lh * (at @ q) + mh * (mt @ q)
    q = p + (0.5 * h) * k2
    k3 = lh * (at @ q) + mh * (mt @ q)
    q = p + h * k3
    k4 = l1 * (at @ q) + m1 * (mt @ q)
    return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rates(spec, grid_size):
    nodes = np.arange(2 * grid_size + 1) / (2.0 * grid_size)
    return spec.arrival.value(nodes), spec.service.value(nodes)


@pytest.mark.parametrize("absorbing", [False, True])
def test_march_matches_plain_steps(periodic74_spec, absorbing):
    # the folded generator rounds lam * a + mu * s once per entry where the
    # split step rounds the two products' sums apart: the same steps to
    # within rounding (3.3e-16 relative measured)
    spec, grid_size = periodic74_spec, 64
    op = _structure(spec.k, spec.m, 6, absorbing)
    at, mt = _parts(op)
    lam, mu = _rates(spec, grid_size)
    start = np.random.default_rng(5).random(op[0].shape[0])
    q = start
    for i, p in enumerate(_rk4_march(op, lam, mu, 1.0 / grid_size, start)):
        q = _plain_rk4_step(at, mt, q, 1.0 / grid_size, lam, mu, i)
        assert np.abs(p - q).max() <= 1e-15 * np.abs(q).max()
    assert i == grid_size - 1
    # the march does not write its start
    assert np.array_equal(start, np.random.default_rng(5).random(len(start)))


def test_accelerated_solve_matches_plain_iteration(periodic74_spec):
    spec, cap, grid_size = periodic74_spec, 30, 64
    dist = time_domain_periodic(spec, level_cap=cap, grid_size=grid_size)
    # the period map iterated from the uniform start until two sampled
    # periods agree to 1e-13
    at, mt = _parts(periodic_structure(spec.k, spec.m, cap))
    dim = at.shape[0]
    lam, mu = _rates(spec, grid_size)
    p = np.full(dim, 1.0 / dim)
    prev = None
    for _ in range(1000):
        samples = np.empty((grid_size, dim))
        for i in range(grid_size):
            samples[i] = p
            p = _plain_rk4_step(at, mt, p, 1.0 / grid_size, lam, mu, i)
        if prev is not None and np.abs(samples - prev).max() <= 1e-13:
            break
        prev = samples
    else:
        pytest.fail("plain iteration did not reach 1e-13")
    solved = np.hstack([dist.idle, dist.levels.reshape(grid_size, -1)])
    assert np.abs(solved - samples).max() <= 1e-10


def test_oracle_validates_arguments(mm1_spec):
    with pytest.raises(ValueError):
        integrate_periodic(mm1_spec, level_cap=0)
    with pytest.raises(ValueError):
        integrate_periodic(mm1_spec, level_cap=10, grid_size=3)
    # a residual is never <= nan or below zero, and exactly zero only by luck,
    # so these would integrate every period and then fail
    # and from tol = 1 on the solve's target accepts its zero start, a law of
    # no mass
    for tol in (np.nan, -1e-10, 0.0, 1.0, 100.0, np.inf):
        with pytest.raises(ValueError, match="tol must be > 0"):
            integrate_periodic(mm1_spec, level_cap=10, grid_size=8, tol=tol)
