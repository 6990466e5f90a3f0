"""The law's two routes and both waits on every model of the seeded sweep.

For each of the 100 models of `test_roots._sweep_models`, the oracle's law
(cap 3000, grid 64, tol 1e-10) and its boundary against the order-20
series: levels 1..min(5, L) on the law's grid, and the queue and sojourn
waits at u = 0.2 on 31 horizons in [0, 3].  The busy-period routes are
left to tests/test_busy.py, whose marches would dominate the time here.
"""

import numpy as np
from test_roots import _sweep_models

from ekemq import (SeriesEvaluator, build_root_set, extract_boundary, integrate_periodic,
                   oracle_wait_cdf, wait_cdf)

# Bounds on the largest difference between the routes, about 10 times the
# largest over the sweep: 8.4e-5 on level 1, 2.3e-7 on levels 2-5 and
# 2.6e-5 on the waits.  The oracle is within 1e-10 of its own equations,
# so the differences are the order-20 series' truncation error: largest on
# level 1, where the terms of the roots past the order fall least, and
# carried into the waits by the boundary and the level-1 mass.  The
# headroom takes another numpy or BLAS build's rounding; a model whose
# oracle fails to solve fails the test.
_LEVEL_1_BOUND = 1e-3
_LEVELS_2_5_BOUND = 3e-6
_WAIT_BOUND = 3e-4


def test_routes_agree_on_the_seeded_sweep():
    horizons = np.linspace(0.0, 3.0, 31)
    outside = []
    for index, spec in enumerate(_sweep_models()):
        dist = integrate_periodic(spec, level_cap=3000, grid_size=64, tol=1e-10)
        boundary = extract_boundary(dist)
        roots = build_root_set(spec, 20)
        ev = SeriesEvaluator(roots, boundary)
        diffs = [float(np.abs(ev.level_matrix(j, dist.grid) - dist.levels[:, j - 1]).max())
                 for j in range(1, min(5, dist.solved_levels) + 1)]
        waits = []
        for kind in ("queue", "sojourn"):
            series = wait_cdf(spec, roots, boundary, 0.2, horizons, kind=kind)
            oracle = oracle_wait_cdf(spec, dist, 0.2, horizons, kind=kind)
            waits.append(float(np.abs(series.values - oracle.values).max()))
        if (diffs[0] > _LEVEL_1_BOUND or max(diffs[1:], default=0.0) > _LEVELS_2_5_BOUND
                or max(waits) > _WAIT_BOUND):
            outside.append((index, diffs, waits))
    assert outside == []
