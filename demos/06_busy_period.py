# Busy-period distribution by two unrelated routes
#
# The busy period is the first passage of the level process to the empty
# state.  Route one strips the boundary, works with the free process's
# net-change weights, and solves a Volterra equation of the second kind for
# the absorption density.  Route two truncates the level space, adds
# absorbing sinks, and integrates the killed Kolmogorov equations.  They
# share nothing past the model object, which is the point.

import numpy as np

from ekemq import ModelSpec, RateFunction, busy_oracle, busy_period_cdf

spec = ModelSpec(
    7, 4,
    RateFunction(3.0, sin=((1, -2.0),)),
    RateFunction(5.0, sin=((1, 4.0),)),
)

for level in (1, 2):
    vol = busy_period_cdf(spec, level, 0, u=0.0, horizon=3.0, step=1 / 128)
    ode = busy_oracle(spec, level, 0, u=0.0, horizon=3.0, step=1 / 128,
                      level_cap=40, substeps=4)
    sup = np.abs(vol.total() - ode.total()).max()
    print("start level %d: sup |Volterra - oracle| = %.2e  "
          "(error estimate %.1e, off-support leak %.1e, cap mass %.1e)"
          % (level, sup, vol.error_estimate, vol.off_support, ode.cap_mass))

# The CDF itself, started from one customer at t = 0.  The final column
# splits the absorption by the arrival stage found at the moment the system
# empties; stages advance while the serve finishes, so late stages dominate.

vol = busy_period_cdf(spec, 1, 0, u=0.0, horizon=3.0, step=1 / 128)
print("\n   t    P{empty by t}   top arrival stages at emptying")
for t_mark in (0.25, 0.5, 1.0, 2.0, 3.0):
    i = int(round(t_mark / vol.step))
    top = np.argsort(vol.values[i])[::-1][:2]
    print("%5.2f    %10.5f     a=%d (%.4f), a=%d (%.4f)"
          % (t_mark, vol.total()[i], top[0], vol.values[i, top[0]],
             top[1], vol.values[i, top[1]]))

# The march is second order in the step; halving the step four times over
# shows the clean quadratic decay that the default Richardson refinement
# then squeezes further.

print("\nraw-march self convergence (start level 1, horizon 2):")
sols = [busy_period_cdf(spec, 1, 0, horizon=2.0, step=s, refine=False).total()
        for s in (1 / 64, 1 / 128, 1 / 256)]
e1 = np.abs(sols[0] - sols[1][::2]).max()
e2 = np.abs(sols[1] - sols[2][::2]).max()
print("errors %.3e -> %.3e, observed order %.2f"
      % (e1, e2, np.log2(e1 / e2)))

# Stationary M/M/1 reduction against the classical closed form.

mm1 = ModelSpec(1, 1, RateFunction(3.0), RateFunction(5.0))
sol = busy_period_cdf(mm1, 1, 0, horizon=1.0, step=0.01)
reference = {0.1: 0.35121381324630, 0.5: 0.75571793104732,
             1.0: 0.87397158130974}
print("\nM/M/1 (arrival 3, service 5), busy period from one customer:")
for t_mark, want in reference.items():
    i = int(round(t_mark / sol.step))
    print("  t = %.1f: computed %.8f, closed form %.8f"
          % (t_mark, sol.total()[i], want))
