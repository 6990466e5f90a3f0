# The truncated-ODE oracle
#
# Solving the level-truncated Kolmogorov equations for their periodic regime
# (the fixed point of the one-period map, started from the period-averaged
# law and accelerated by Anderson mixing, accepted once two plain periods
# agree) gives the asymptotic periodic distribution with no series in sight.  Every series result in this package
# is judged against this route.

import numpy as np

from ekemq import ModelSpec, RateFunction, extract_boundary, integrate_periodic

spec = ModelSpec(
    7, 4,
    RateFunction(3.0, sin=((1, -2.0),)),
    RateFunction(5.0, sin=((1, 4.0),)),
)

dist = integrate_periodic(spec, level_cap=50, grid_size=512, tol=1e-10)

print("periods until convergence: %d" % dist.periods)
print("final period-to-period residual: %.2e" % dist.residual)
print("probability parked at the level cap: %.2e" % dist.cap_mass())

# Mass by level across the period.  The queue is emptiest shortly after the
# service-rate peak; level masses move with a quarter-period-ish lag.

ts = np.arange(8) / 8.0
idle = dist.idle_at(ts).sum(axis=1)
levels = dist.levels_at(ts)

print("\n   t     empty   level 1  level 2  level 3  level 4   total")
for i, t in enumerate(ts):
    per_level = levels[i].sum(axis=1)
    total = idle[i] + per_level.sum()
    print("%5.3f  %8.5f %8.5f %8.5f %8.5f %8.5f  %8.6f"
          % (t, idle[i], per_level[0], per_level[1], per_level[2],
             per_level[3], total))

# The boundary functions are the only oracle output the series route needs:
# the idle occupancy by arrival stage and the level-1 slice, both periodic.

boundary = extract_boundary(dist)
print("\nidle mass by arrival stage at t = 0:")
print("  " + ", ".join("%.5f" % v for v in boundary.idle_at([0.0])[0]))
print("level-1 mass at t = 0: %.5f" % boundary.first_at([0.0])[0].sum())

# Period-average mean level, a single-number summary of congestion.

mean_level = float(np.mean(
    dist.levels.sum(axis=2) @ np.arange(1, dist.level_cap + 1)))
print("\nperiod-average mean queue level: %.5f" % mean_level)
