"""Periodic ODE oracle: convergence, conservation, closed-form reductions."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ekemq
from ekemq import (
    BoundaryFunctions,
    ModelSpec,
    RateFunction,
    extract_boundary,
    integrate_periodic,
)
from ekemq.oracle import (
    PeriodicDistribution,
    TrigInterpolant,
    _rk4_step,
    _structure_matrices,
)


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
    for arr in (boundary.idle, boundary.first, boundary.grid):
        with pytest.raises(ValueError, match="read-only"):
            arr[0, ...] = 5.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        boundary.idle = np.full_like(boundary.idle, 5.0)
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
    # the interpolant built by idle_at still agrees with the grid samples
    grid = mm1_dist.grid
    assert np.abs(mm1_dist.idle_at(grid) - mm1_dist.idle).max() < 1e-12
    assert np.abs(mm1_dist.levels_at(grid) - mm1_dist.levels).max() < 1e-12


def test_grids_are_read_off_the_samples(mm1_spec):
    idle = np.full((8, 1), 0.4)
    levels = 0.4 * 0.6 ** np.arange(1, 31)[None, :, None] * np.ones((8, 1, 1))
    dist = PeriodicDistribution(spec=mm1_spec, idle=idle, levels=levels,
                                periods=1, residual=0.0)
    assert (dist.grid_size, dist.level_cap) == (8, 30)
    assert np.array_equal(dist.grid, np.arange(8) / 8)
    # the law holds copies, so editing the arrays it was built from is no edit
    idle[0, 0] = levels[0, 0, 0] = 5.0
    assert dist.idle[0, 0] == 0.4 and dist.levels[0, 0, 0] == pytest.approx(0.24)
    boundary = extract_boundary(dist)
    assert boundary.grid_size == 8
    assert np.array_equal(boundary.grid, dist.grid)
    # slices on grids of different sizes are refused
    with pytest.raises(ValueError, match="grid rows"):
        BoundaryFunctions(idle=boundary.idle, first=boundary.first[:7])
    with pytest.raises(ValueError, match="grid rows"):
        PeriodicDistribution(spec=mm1_spec, idle=idle[:7], levels=levels,
                             periods=1, residual=0.0)


def test_total_mass_is_one(periodic74_dist):
    assert np.abs(periodic74_dist.idle.sum(axis=1)
                  + periodic74_dist.levels.sum(axis=(1, 2)) - 1.0).max() < 1e-12


def test_nonnegative_and_converged(periodic74_dist):
    assert periodic74_dist.idle.min() > -1e-12
    assert periodic74_dist.levels.min() > -1e-12
    assert periodic74_dist.residual <= 1e-10
    assert periodic74_dist.periods < 40


def test_cap_leakage_negligible(periodic74_dist):
    assert periodic74_dist.cap_mass() < 1e-30


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


def test_boundary_rejects_negative_values(periodic74_dist):
    boundary = extract_boundary(periodic74_dist)
    u = np.linspace(0.0, 2.0, 29)
    assert boundary.idle_at(u).min() >= 0.0
    assert boundary.first_at(u).min() >= 0.0
    assert boundary.idle_at(u).shape == (29, 7)
    assert boundary.first_at(u).shape == (29, 28)


def test_boundary_periodicity(periodic74_boundary):
    u = np.linspace(0.0, 1.0, 11)
    a = periodic74_boundary.idle_at(u)
    b = periodic74_boundary.idle_at(u + 3.0)
    assert np.abs(a - b).max() < 1e-12


def test_trig_interpolant_exact_on_bandlimited_data():
    grid = np.arange(16) / 16.0
    samples = (1.3 + 0.4 * np.cos(2 * np.pi * grid)
               - 0.9 * np.sin(2 * np.pi * 3 * grid))
    interp = TrigInterpolant(samples[:, None])
    dense = np.linspace(0.0, 2.0, 101)
    expected = (1.3 + 0.4 * np.cos(2 * np.pi * dense)
                - 0.9 * np.sin(2 * np.pi * 3 * dense))
    assert np.abs(interp(dense)[:, 0] - expected).max() < 1e-12


def test_unconverged_run_raises():
    # time-varying rates: constant ones start at their exact fixed point
    spec = ModelSpec(1, 1, RateFunction(3.0, sin=((1, 2.0),)), RateFunction(5.0))
    with pytest.raises(RuntimeError, match="not reached in 3 periods"):
        integrate_periodic(spec, level_cap=40, grid_size=32, tol=1e-13,
                           max_periods=3)


def test_mass_at_cap_raises():
    # load 0.98: the iteration converges, but 3e-3 of the law sits at the cap
    spec = ModelSpec(2, 3, RateFunction(1.9, sin=((1, 0.5),)),
                     RateFunction(2.9, cos=((2, 0.3),)))
    with pytest.raises(RuntimeError, match="at the level cap 60"):
        integrate_periodic(spec, level_cap=60, grid_size=16, tol=1e-12)


def test_high_load_converges(periodic74_spec):
    spec = ModelSpec(7, 4, RateFunction(7.0, sin=((1, -2.0),)),
                     periodic74_spec.service)
    assert spec.load == pytest.approx(0.8)
    dist = integrate_periodic(spec, level_cap=120, grid_size=128, tol=1e-10)
    # 24 periods with mixing; plain periods from the same start need ~180
    assert dist.periods < 60
    assert dist.residual <= 1e-10
    assert dist.cap_mass() <= 1e-30
    mass = dist.idle.sum(axis=1) + dist.levels.sum(axis=(1, 2))
    assert np.abs(mass - 1.0).max() <= 1e-12


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
def test_stacked_step_matches_two_operators(periodic74_spec, absorbing):
    spec, grid_size = periodic74_spec, 64
    op = _structure_matrices(spec.k, spec.m, 6, absorbing=absorbing)
    dim = op.shape[1]
    assert op.shape == (2 * dim, dim)
    at, mt = op[:dim], op[dim:]
    lam, mu = _rates(spec, grid_size)
    p = q = np.random.default_rng(5).random(dim)
    for i in range(grid_size):
        p = _rk4_step(op, p, 1.0 / grid_size, lam, mu, i)
        q = _plain_rk4_step(at, mt, q, 1.0 / grid_size, lam, mu, i)
    assert np.array_equal(p, q)


def test_accelerated_solve_matches_plain_iteration(periodic74_spec):
    spec, cap, grid_size = periodic74_spec, 30, 64
    dist = integrate_periodic(spec, level_cap=cap, grid_size=grid_size)
    # the period map iterated from the uniform start until two sampled
    # periods agree to 1e-13
    op = _structure_matrices(spec.k, spec.m, cap)
    dim = op.shape[1]
    lam, mu = _rates(spec, grid_size)
    p = np.full(dim, 1.0 / dim)
    prev = None
    for _ in range(1000):
        samples = np.empty((grid_size, dim))
        for i in range(grid_size):
            samples[i] = p
            p = _rk4_step(op, p, 1.0 / grid_size, lam, mu, i)
        if prev is not None and np.abs(samples - prev).max() <= 1e-13:
            break
        prev = samples
    else:
        pytest.fail("plain iteration did not reach 1e-13")
    solved = np.hstack([dist.idle, dist.levels.reshape(grid_size, -1)])
    assert np.abs(solved - samples).max() <= 1e-10


def test_import_loads_no_scipy_solvers():
    # scipy.linalg and scipy.sparse.linalg cost about 7 MB and 50 ms to
    # import; the averaged start is solved with numpy's dense solver
    src = str(Path(ekemq.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, ekemq; print(sorted(n for n in sys.modules "
         "if n in ('scipy.linalg', 'scipy.sparse.linalg')))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_oracle_validates_arguments(mm1_spec):
    with pytest.raises(ValueError):
        integrate_periodic(mm1_spec, level_cap=0)
    with pytest.raises(ValueError):
        integrate_periodic(mm1_spec, level_cap=10, grid_size=3)
    # a residual is never <= nan or below zero, and exactly zero only by luck,
    # so these would integrate every period and then fail
    for tol in (np.nan, -1e-10, 0.0):
        with pytest.raises(ValueError, match="tol must be > 0"):
            integrate_periodic(mm1_spec, level_cap=10, grid_size=8, tol=tol)
    with pytest.raises(ValueError, match="max_periods must be >= 1"):
        integrate_periodic(mm1_spec, level_cap=10, grid_size=8, max_periods=0)
