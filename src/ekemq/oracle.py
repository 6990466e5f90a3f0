"""Reference route: the level process, solved directly.

The queue's law obeys the linear ODE

    p'(t) = lam(t) * p(t) S_arr + mu(t) * p(t) S_srv

on unbounded levels.  Its coefficients are periodic, and its periodic
solution is the law.  The rates are finite trigonometric sums, so with p(t)
= sum_n c_n e^{2 pi i n t} the ODE holds exactly harmonic by harmonic
(harmonic balance, or Hill's method: Kundert & Sangiovanni-Vincentelli,
IEEE Trans. CAD 1986):

    2 pi i n c_n = sum_j (lam_j S_arr^T + mu_j S_srv^T) c_{n-j},

lam_j and mu_j the rates' Fourier coefficients.  `integrate_periodic`
solves these equations for n = 0..N, with c_{-n} = conj(c_n) and one n = 0
equation traded for the total mass, and grows N until the top harmonic is
below the tolerance.  In real harmonic coordinates (Re c_n and Im c_n of
each state) the equations repeat the same three blocks at every level above
the first, so the law is matrix-geometric (Neuts, Matrix-Geometric
Solutions in Stochastic Models, 1981; Bini, Latouche & Meini, Numerical
Methods for Structured Markov Chains, 2005): level j is K y_{j-1}, where y_j
= R y_{j-1} holds level j's final arrival stages.  `_rate_matrix` finds K
and R by a fixed-point iteration on the interfaces between levels, and
`_solve_levels` solves the empty level against them with the mass of every
level above it.  One walk over N solves every rate matrix, each from the
last: N = 0 (the mean rates), coarser N below the first, then the first N
and its growth.  The law is its Fourier series, stored on the levels it
solved: those that hold more than about 1e-18, by the law's per-level
decay sp(R) at the mean rates, up to the level cap; the levels above them
are exact zeros, which the law's readers pad in.  One evaluator
(`TrigInterpolant`) samples the series on the output grid and reads it
between grid times.  No period is integrated, and the error is the
truncation past N, which |c_N| shows, plus the solve's residual.  numpy
does all of it.  The time-domain solve of the queue truncated at the cap, RK4
periods to the period map's fixed point, is kept in the tests as the
cross-check.

The busy-period oracle `busy_oracle` does integrate in time: the same
level process with the empty level absorbing instead of reflecting is
driven with classical fourth-order Runge-Kutta steps.  Its levels are one
dense (L, km) array; the derivative at level j reads levels j-1, j and j+1
only, through the level block lam * A + mu * S, whose unit-rate parts A and
S (`_level_parts`) are built here by index arithmetic.  With the levels
held between zero rows, the three neighbours of every level lie side by
side in memory, so each RK stage is one matrix product of that strided
window by the block (`_level_march`), four per step, and no scipy module is
needed.  It marches once, on the levels the horizon can reach: the start
level plus the levels that the arrival stages completed by the horizon
climb with more than about 1e-18 of probability, by a Chernoff bound on
their Poisson count; level_cap is an upper limit.

In the killed system the k empty states have no exits and count absorption
by arrival stage, and arrivals out of the top level leave it.  The
harmonic-balance equations (`_balance`) apply the periodic system, where an
arrival moves an empty state to the next arrival stage or starts level 1,
by slicing one array: the k empty states, then levels 1..L with phase (a,
s) at a*m + s.  No other module calls `_level_parts` or `_level_march`.

This module is deliberately independent of the root-series machinery: it
never sees characteristic roots.  The series route does read one output of
it, the empty-system boundary (`extract_boundary`), held with the law's
evaluator in `_fourier`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._fourier import BoundaryFunctions, TrigInterpolant, _read_only
from .busy import VolterraSolution
from .model import ModelSpec, _as_index, _normalize_phase

# The law's Fourier coefficients c_0..c_N are solved for with N first
# _FIRST_HARMONIC, or twice the rates' top harmonic where that is larger
# (none for constant rates: N = 0), and then grown by half while max |c_N| >
# tol and N stays within _MAX_HARMONIC.  Their rate matrices are the end of
# one walk over N (`_fourier_coefficients`), each started from the one
# before.  N and its steps are counted in units of the rates' harmonic
# spacing d, each rounded up to a whole unit, so that c_N is a harmonic the
# law can have.
_FIRST_HARMONIC = 12
_MAX_HARMONIC = 128

_CAP_MASS_LIMIT = 1e-6

# `integrate_periodic` lists the levels by which a mass, falling by sp(R)
# per level, reaches _LEVEL_FLOOR; `busy_oracle` marches the levels that its
# horizon's arrivals reach with more than _LEVEL_FLOOR of probability.
_LEVEL_FLOOR = 1e-18

# `busy_oracle` zeroes the transient entries of its state below this at every
# record: the mass front climbing the levels trails a band of subnormal
# entries, which x86 multiplies in microcode at 10 to 100 times the normal
# cost.  The floor sits far enough above 2**-1022 (about 2.2e-308) that most
# entries a record's RK4 steps grow from kept ones are still normal.
_STATE_FLOOR = 1e-280

# A busy-period record (or a period of the tests' time-domain solve) that
# ends with an L1 norm above 1 + _NORM_SLACK has grown negative entries: RK4
# is unstable at that step, so the solve stops there.
_NORM_SLACK = 1e-6


def _level_parts(k: int, m: int) -> np.ndarray:
    """Unit-rate arrival and service parts A, S of the level block, as one
    (2, 3km, km) array.

    Phase (a, s) of a level is a*m + s.  Row r of a part is a source state
    in the window [level j-1 | level j | level j+1] (third r // km, phase r
    % km), column the phase of level j it enters, so the rows of the state
    at levels j-1..j+1, laid side by side, times lam * A + mu * S give the
    derivative at level j.  Every part value is 0 or +-1, so each entry of
    the block is rounded at most once.  Both routes build their stage
    blocks apart: this one by index arithmetic.
    """
    km = k * m
    parts = np.zeros((2, 3, km, km))
    x = np.arange(km)
    a, s = divmod(x, m)
    # each part's rate leaves every state
    parts[:, 1, x, x] = -1.0
    # an arrival advances the stage, and the final stage starts the level
    # above at (0, s)
    parts[0, 1, x[a < k - 1], x[a < k - 1] + m] = 1.0
    parts[0, 0, x[a == k - 1], s[a == k - 1]] = 1.0
    # a service advances the stage, and the final stage of the level above
    # ends there at (a, 0)
    parts[1, 1, x[s < m - 1], x[s < m - 1] + 1] = 1.0
    parts[1, 2, x[s == m - 1], x[s == m - 1] - (m - 1)] = 1.0
    return parts.reshape(2, 3 * km, km)


def _level_march(parts: np.ndarray, m: int, lam: np.ndarray, mu: np.ndarray,
                 h: float, levels: np.ndarray):
    """Yield (levels, sinks) after each classical RK4 step of the killed
    process from `levels`, an (L, km) array of levels 1..L, and empty sinks.

    parts is `_level_parts(k, m)`.  lam and mu hold the rates at half-step
    nodes, so step i runs from node 2i through node 2i+1 to node 2i+2, and
    the march makes (len(lam) - 1) // 2 steps.  Each stage input is an (L +
    2, km) buffer with zero rows 0 and L + 1, so the rows of levels j-1, j,
    j+1 lie side by side in memory: the stage is one product of that
    strided (L, 3km) window by the node's block lam * A + mu * S, scaled by
    h / 2 so that the stage's product is its half-step increment d_i = (h /
    2) k_i, and the next stage input is p + d_i (p + 2 d_3 for the last).
    Level 1's neighbour below is the zero row (the sinks feed nothing back),
    and level L's above is the other, so arrivals out of level L leave the
    system.  The blocks are folded a batch of nodes at a time, under 1 MiB.
    The sink of arrival stage a has slope mu times level 1's phase (a, m-1)
    of the stage input.  Levels and sinks each add one product of their
    four increments by the weights 1/3, 2/3, 2/3, 1/3, that is (h / 6) (k1
    + 2 k2 + 2 k3 + k4).  The yielded
    arrays are buffers that the next step overwrites; the caller may edit
    the levels in place, and the march continues from the edited state:
    `busy_oracle` zeroes entries below _STATE_FLOOR this way.
    """
    count, km = levels.shape
    steps = (len(lam) - 1) // 2
    # steps per batch of folded blocks: 2 batch + 1 nodes of 3km x km
    batch = max(1, ((1 << 20) // parts[0].nbytes - 1) // 2)
    rates = (0.5 * h) * np.stack([lam, mu], axis=1)
    stages = np.zeros((4, count + 2, km))
    p, q2, q3, q4 = (stage[1:-1] for stage in stages)
    p[:] = levels
    w1, w2, w3, w4 = (np.lib.stride_tricks.as_strided(
        stage, (count, 3 * km), (stage.strides[0], stage.itemsize), writeable=False)
        for stage in stages)
    increments = np.empty((4, count, km))
    d1, d2, d3, d4 = increments
    update = np.empty((count, km))
    exits = stages[:, 1, m - 1::m]
    sinks = np.zeros(km // m)
    weights = np.array([1.0, 2.0, 2.0, 1.0]) / 3.0
    for first in range(0, steps, batch):
        size = min(batch, steps - first)
        nodes = rates[2 * first:2 * (first + size) + 1]
        blocks = np.dot(nodes, parts.reshape(2, -1)).reshape(len(nodes), 3 * km, km)
        # h/2 mu at each stage's node, times its weight
        drains = nodes[:, 1][np.arange(size)[:, None] * 2 + [0, 1, 1, 2]] * weights
        for i in range(size):
            b0, bh, b1 = blocks[2 * i:2 * i + 3]
            np.matmul(w1, b0, out=d1)
            np.add(p, d1, out=q2)
            np.matmul(w2, bh, out=d2)
            np.add(p, d2, out=q3)
            np.matmul(w3, bh, out=d3)
            np.add(d3, d3, out=q4)
            q4 += p
            np.matmul(w4, b1, out=d4)
            sinks += np.dot(drains[i], exits)
            np.dot(weights, increments.reshape(4, -1), out=update.reshape(-1))
            p += update
            yield p, sinks


@dataclass(frozen=True, eq=False)
class PeriodicDistribution:
    """Periodic law of the queue, listed on levels 1..level_cap: its Fourier
    series, read at any time and sampled on a uniform grid.

    `series` holds c_0..c_N as (N + 1, k + L * km) complex rows over the
    states it lists: the k idle states (arrival stage a), then levels 1..L
    in phase (a, s) at a*m + s, L >= 1 the `solved_levels`.  The levels L +
    1..level_cap are exact zeros, and level_cap is L unless given; any
    other width or shape, a level_cap below L or a grid_size below 1 raises
    ValueError.  `periods` is N and `residual` the larger of max |c_N| and
    the 2-norm of the harmonic-balance equations' residual, names kept from
    the time-domain solve.  `level_decay` is sp(R), the per-level decay at
    the mean rates by which `integrate_periodic` chose the listed levels
    (nan for a law built otherwise).  `iterations` counts the rate matrix's
    fixed-point iterations at the final N (0 for a law built otherwise).  A
    law from `integrate_periodic` lists the levels of the queue on
    unbounded levels, so level_cap cuts the list and changes no listed
    value.

    One evaluator of `series`, built on first use, once per law, serves
    `samples`, the listed states at the times grid[i] = i / grid_size in
    the columns of `series`, and `states_at`, `idle_at` and `levels_at`,
    whose levels run to level_cap with zeros past L; idle[i, a] and
    levels[i, j-1, a*m+s] are `states_at(grid)`.  Each sample array is
    read-only and made on first read.  `series` is a read-only copy, so
    nothing read from it can disagree with it.  Laws compare and hash by
    identity, as their arrays have no single truth value.
    """

    spec: ModelSpec
    series: np.ndarray
    grid_size: int
    periods: int
    residual: float
    level_decay: float = math.nan
    iterations: int = 0
    level_cap: int | None = None

    def __post_init__(self):
        series = np.array(self.series, dtype=complex)
        k, km = self.spec.k, self.spec.phase_count
        if series.ndim != 2 or series.shape[1] < k + km or (series.shape[1] - k) % km:
            raise ValueError(f"series has shape {series.shape}, not (N + 1, k + "
                             f"L * km) with k = {k}, km = {km}, L >= 1")
        object.__setattr__(self, "series", _read_only(series))
        object.__setattr__(self, "level_decay", float(self.level_decay))
        object.__setattr__(self, "grid_size", _as_index(self.grid_size, "grid_size"))
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")
        cap = self.solved_levels if self.level_cap is None else self.level_cap
        object.__setattr__(self, "level_cap", _as_index(cap, "level_cap"))
        if self.level_cap < self.solved_levels:
            raise ValueError(f"level_cap {self.level_cap} is below the "
                             f"{self.solved_levels} levels of series")

    @cached_property
    def grid(self) -> np.ndarray:
        """The read-only sample times i / grid_size."""
        return _read_only(np.arange(self.grid_size) / self.grid_size)

    @property
    def solved_levels(self) -> int:
        """L, the levels that `series` lists."""
        return (self.series.shape[1] - self.spec.k) // self.spec.phase_count

    @cached_property
    def samples(self) -> np.ndarray:
        """The listed states at the grid times, (grid_size, k + L * km) in
        the columns of `series`, read-only, evaluated on first read."""
        return _read_only(self._interp(self.grid))

    @cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(_read_only(vals) for vals in self.states_at(self.grid))

    idle = property(lambda self: self._samples[0])
    levels = property(lambda self: self._samples[1])

    @cached_property
    def _interp(self) -> TrigInterpolant:
        return TrigInterpolant(self.series)

    def states_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), levels_at(u)) from one evaluation of the series."""
        listed = self._interp(u)
        k, km = self.spec.k, self.spec.phase_count
        vals = np.zeros((len(listed), k + self.level_cap * km))
        vals[:, :listed.shape[1]] = listed
        return vals[:, :k], vals[:, k:].reshape(len(vals), self.level_cap, km)

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at arbitrary times, (len(u), k)."""
        return self.states_at(u)[0]

    def levels_at(self, u) -> np.ndarray:
        """Busy-level probabilities at arbitrary times, (len(u), level_cap,
        km), zeros past L."""
        return self.states_at(u)[1]

    def cap_mass(self) -> float:
        """Largest probability seen at a grid time on the top listed level,
        L; a cap check.  It evaluates that level's own series at the grid,
        so it builds no samples, once per law."""
        return self._cap_mass

    @cached_property
    def _cap_mass(self) -> float:
        k, km = self.spec.k, self.spec.phase_count
        level = TrigInterpolant(self.series[:, k + (self.solved_levels - 1) * km:])
        return float(level(self.grid).sum(axis=1).max())


def _harmonics(rate) -> dict[int, complex]:
    """Complex amplitudes r_j, j >= 1, of a rate's harmonics:
    value(t) = base + sum_j (r_j e^{2 pi i j t} + conj(r_j) e^{-2 pi i j t})."""
    out = {}
    for j, amp in rate.cos:
        out[j] = out.get(j, 0.0) + 0.5 * amp
    for j, amp in rate.sin:
        out[j] = out.get(j, 0.0) - 0.5j * amp
    return out


def _operators(rates, spacing: int, count: int) -> list[np.ndarray]:
    """[Lam, Mu, D]: the real H x H operators, H = 2 count - 1, that multiply
    a real 1-periodic function by the arrival and the service rate and
    differentiate it, acting on the coordinates (Re c_0, Re c_d, Im c_d,
    ..., Re c_nd, Im c_nd) of its series, n = count - 1, harmonics past nd
    dropped.  rates holds each rate's mean and its harmonics' amplitudes
    (`_harmonics`) by lattice index j / d, d = spacing."""
    size = 2 * count - 1
    # the coefficients c_nd, n = 1 - count..count - 1, of the coordinates
    embed = np.zeros((size, size), complex)
    n = np.arange(1, count)
    embed[count - 1, 0] = 1.0
    embed[count - 1 + n, 2 * n - 1] = embed[count - 1 - n, 2 * n - 1] = 1.0
    embed[count - 1 + n, 2 * n] = 1j
    embed[count - 1 - n, 2 * n] = -1j

    def real(conv):
        rows = conv[count - 1:] @ embed
        out = np.empty((size, size))
        out[0], out[1::2], out[2::2] = rows[0].real, rows[1:].real, rows[1:].imag
        return out

    ops = []
    for base, harm in rates:
        conv = base * np.eye(size, dtype=complex)
        for j, amp in harm.items():
            conv += amp * np.eye(size, k=-j) + np.conj(amp) * np.eye(size, k=j)
        ops.append(real(conv))
    ops.append(real(np.diag(2j * np.pi * spacing * np.arange(1 - count, count))))
    return ops


def _balance(ops, k: int, m: int, x: np.ndarray, above: np.ndarray) -> np.ndarray:
    """The harmonic-balance equations p' = (lam(t) A + mu(t) S)^T p of the
    queue at x, the coordinates of `_operators` of the empty level and
    levels 1..L in rows (k empty states, then phase (a, s) of level j at k
    + (j - 1) km + a m + s), with `above`, the (k, H) final service stages
    (a, m - 1) of level L + 1, feeding level L: rows like x, the arrivals
    out of level L leaving it."""
    lam, mu, deriv = ops
    arr, srv = x @ lam.T, x @ mu.T
    out = -arr - x @ deriv.T
    # an arrival moves empty state a to a + 1 (k - 1 to level 1, phase
    # (0, 0)) and busy phase x to x + m, (k - 1, s) to the next level's (0, s)
    out[1:k + 1] += arr[:k]
    out[k + m:] += arr[k:-m]
    # a service advances the stage; the last one moves (j, a, m - 1) to
    # (j - 1, a, 0), or at level 1 to empty state a
    busy, srv = out[k:].reshape(-1, k, m, len(lam)), srv[k:].reshape(-1, k, m, len(lam))
    busy -= srv
    busy[:, :, 1:] += srv[:, :, :-1]
    busy[:-1, :, 0] += srv[1:, :, m - 1]
    busy[-1, :, 0] += above @ mu.T
    out[:k] += srv[0, :, m - 1]
    return out


def _rate_matrix(ops, k: int, m: int, start=None):
    """(F, Y, R, iterations): the rate matrix of the harmonic-balance
    equations of the levels above the empty one, on the coordinates of
    `_operators`.

    Every level j >= 2 balances B_up x_{j-1} + B_loc x_j + B_dn x_{j+1} = 0
    with the same blocks: B_up takes level j - 1's final arrival stages (k
    - 1, s) to (0, s) through Lam, B_dn level j + 1's final service stages
    (a, m - 1) to (a, 0) through Mu, and B_loc is block lower triangular
    over the phases (a, s), a*m + s, each diagonal block -(Lam + Mu + D).
    So x_j = K y_{j-1} (Neuts, Matrix-Geometric Solutions in Stochastic
    Models, 1981), y_j the final arrival stages of x_j, and y_j = R y_{j-1}.
    F holds B_loc^-1 times the up and the down interface, (km H, (m + k)
    H), by forward substitution over the phases with one H x H solve.  With
    its rows (k - 1, s) and (a, m - 1), ap, bp and qu, qv, Y is the fixed
    point of Y = -qu - qv Y R, R = -(I + bp Y)^-1 ap, the rows (a, m - 1)
    of K; K = -F (I; Y R).  The iteration starts at Y = 0, or at `start`,
    a Y on as many or fewer harmonics padded with zeros (that of the N
    before on `_fourier_coefficients`' walk).  It stops once an update is
    within rounding of Y, or, within sqrt(eps) of Y, no smaller than the
    last, where rounding stalls it; further from the fixed point the
    updates of a warm start may stop falling for a while.  It converges
    linearly, at about sp(R), so a start near the fixed point saves most of
    its iterations."""
    lam, mu, deriv = ops
    h = len(lam)
    steps = np.linalg.solve(lam + mu + deriv, np.hstack([lam, mu]))
    step_a, step_s = steps[:, :h], steps[:, h:]
    f = np.zeros((k, m, h, (m + k) * h))
    for a in range(k):
        for s in range(m):
            if a:
                f[a, s] += step_a @ f[a - 1, s]
            else:
                f[a, s, :, s * h:(s + 1) * h] -= step_a
            if s:
                f[a, s] += step_s @ f[a, s - 1]
            else:
                f[a, s, :, (m + a) * h:(m + a + 1) * h] -= step_s
    mh = m * h
    ap, bp = np.hsplit(f[k - 1].reshape(mh, -1), [mh])
    qu, qv = np.hsplit(f[:, m - 1].reshape(k * h, -1), [mh])
    eye = np.eye(mh)
    y = np.zeros((k, h, m, h))
    if start is not None:  # Y on fewer harmonics, whose coordinates come first
        g = len(start) // k
        y[:, :g, :, :g] = start.reshape(k, g, m, g)
    y = y.reshape(k * h, mh)
    eps = np.finfo(float).eps
    change, iterations = math.inf, 0
    while True:
        iterations += 1
        rate = -np.linalg.solve(eye + bp @ y, ap)
        update = -qu - qv @ (y @ rate)
        last, change = change, float(np.abs(update - y).max())
        y = update
        # rounding stalls the updates below 22 eps |Y| on the tests' seeded
        # sweep, and a warm start's can stop falling at 2.4e-4 |Y| and still
        # converge; a NaN update stops it too
        scale = np.abs(y).max()
        if not (change > eps * scale
                and (change < last or change > math.sqrt(eps) * scale)):
            break
    return f.reshape(k * mh, -1), y, -np.linalg.solve(eye + bp @ y, ap), iterations


def _solve_levels(ops, k: int, m: int, levels: int, start=None):
    """(x, residual, Y, iterations): the law on the empty level and levels
    1..levels in the rows and coordinates of `_balance`, the 2-norm of its
    equations' residual, and the Y and iterations of `_rate_matrix` from
    `start`.

    Level j is K y_{j-1}, with y_0 the last empty state in the slot s = 0,
    as that state's arrival starts phase (0, 0).  The empty level balances
    -(Lam + D) on each state, Lam from the state before and Mu from level
    1's final service stages, Y y_0.  Its n = 0 equation of state k - 1 is
    traded for the total mass, levels 1 and up holding K (I - R)^-1 y_0, so
    the residual's mass row counts the levels past the written ones too."""
    lam, mu, deriv = ops
    h = len(lam)
    mh = m * h
    f, y, rate, iterations = _rate_matrix(ops, k, m, start)
    # K y = -F (y; Y R y): the mass of levels 1 and up per unit of y_0
    sums = f.reshape(k * m, h, -1)[:, 0].sum(axis=0)
    tail = np.linalg.solve(np.eye(mh) - rate.T, -(sums[:mh] + sums[mh:] @ y @ rate))
    z = np.zeros((k, h, k, h))
    z[range(k), :, range(k)] = -(lam + deriv)
    z[range(1, k), :, range(k - 1)] = lam
    z[:, :, k - 1] += mu @ y.reshape(k, h, m, h)[:, :, 0]
    z = z.reshape(k * h, k * h)
    row = (k - 1) * h
    z[row] = 0.0
    z[row, ::h] = 1.0
    z[row, row:] += tail[:h]
    x = np.empty((k + levels * k * m, h))
    x[:k] = np.linalg.solve(z, np.eye(k * h)[row]).reshape(k, h)
    ys = np.zeros((levels + 1, mh))
    ys[0, :h] = x[k - 1]
    for j in range(levels):
        ys[j + 1] = rate @ ys[j]
    # level j is K y_{j-1} = -F (y_{j-1}; Y y_j)
    x[k:] = -(np.hstack([ys[:-1], ys[1:] @ y.T]) @ f.T).reshape(-1, h)
    out = _balance(ops, k, m, x, (y @ ys[-1]).reshape(k, h))
    out[k - 1, 0] = x[:, 0].sum() + tail @ ys[-1] - 1.0
    return x, float(np.linalg.norm(out)), y, iterations


def _fourier_coefficients(spec: ModelSpec, level_cap: int, tol: float):
    """(c, residual, iterations, decay): the law's Fourier coefficients
    c_0..c_N over the k idle states and levels 1..L, an (N + 1, k + L km)
    complex array, by the search over N and the checks of
    `integrate_periodic`, the iterations of the solve at that N, and sp(R)
    at the mean rates.  The rows c_nd are solved for, n = 0..N / d; the
    other rows are exact zeros.  The rate matrices are solved on one walk
    over N / d, each from the Y of the one before: 0 (the mean rates, whose R
    sets L), the first N halved while >= 3, coarsest first, then the first N
    and its growth."""
    rates = [(rate.mean(), _harmonics(rate)) for rate in (spec.arrival, spec.service)]
    harmonics = [j for _, harm in rates for j in harm]
    d = math.gcd(*harmonics) or 1
    rates = [(base, {j // d: amp for j, amp in harm.items()}) for base, harm in rates]
    # N = top * d
    top = -(-max(_FIRST_HARMONIC, 2 * max(harmonics)) // d) if harmonics else 0
    if top * d > _MAX_HARMONIC:
        raise RuntimeError(f"the rates reach harmonic {max(harmonics)}, past half of "
                           f"the largest N, {_MAX_HARMONIC}")
    # N = 0 keeps only the rates' means
    _, y, rate, _ = _rate_matrix(_operators(rates, d, 1), spec.k, spec.m)
    decay = float(np.abs(np.linalg.eigvals(rate)).max())
    levels = min(level_cap, max(1, math.ceil(math.log(_LEVEL_FLOOR) / math.log(decay))))
    # the rungs top // 2, top // 4, ... while >= 3, coarsest first
    for rung in [top >> i for i in range(top.bit_length() - 1, 0, -1) if top >> i >= 3]:
        y = _rate_matrix(_operators(rates, d, rung + 1), spec.k, spec.m, y)[1]
    while True:
        x, solved, y, iterations = _solve_levels(_operators(rates, d, top + 1), spec.k,
                                                 spec.m, levels, y)
        if solved > tol:
            raise RuntimeError(f"the rate-matrix solve stalled at residual "
                               f"{solved:.3e} > tol = {tol:.3e}; loosen tol")
        c = np.zeros((top * d + 1, len(x)), complex)
        c[0] = x[:, 0]
        c[d::d] = (x[:, 1::2] + 1j * x[:, 2::2]).T
        truncation = float(np.abs(c[-1]).max()) if top else 0.0
        if truncation <= tol:
            return c, max(solved, truncation), iterations, decay
        step = -(-(top * d // 2) // d)
        if (top + step) * d > _MAX_HARMONIC:
            raise RuntimeError(f"the law's harmonics reach past {_MAX_HARMONIC}: "
                               f"max |c_N| is {truncation:.3e} > tol at N = {top * d}; "
                               f"loosen tol")
        top += step


def integrate_periodic(spec: ModelSpec, level_cap: int = 50, grid_size: int = 512,
                       tol: float = 1e-10) -> PeriodicDistribution:
    """Solve for the periodic regime of the queue, listed on levels
    1..level_cap.

    The law's Fourier coefficients c_0..c_N solve the harmonic-balance
    equations (Hill's method; Kundert & Sangiovanni-Vincentelli, IEEE Trans.
    CAD 1986) of the queue on unbounded levels, which above the empty level
    are matrix-geometric in the harmonic domain: level j is K y_{j-1}, y_j
    = R y_{j-1} the final arrival stages of level j (`_rate_matrix`,
    `_solve_levels`).  N starts at _FIRST_HARMONIC, or twice the rates' top
    harmonic where that is larger, or 0 for constant rates, and grows by
    half until max |c_N| <= tol.  The law has only harmonics that are
    multiples of the gcd d of the rates' harmonics (the others are exactly
    0), so only those are solved for, and N and each step of it are rounded
    up to multiples of d.  The law is built from the solved series on
    levels 1..L and from level_cap, with `periods` N, `residual` the larger
    of max |c_N| (0 for N = 0) and the 2-norm of the equations' residual,
    both <= tol, and `iterations` those of the rate matrix at N.  The rate
    matrices are solved on one walk over N / d, each from the Y of the one
    before (`_fourier_coefficients`): 0, the first N halved while >= 3,
    coarsest first (3 and 6 under 12), then the first N and its growth; the
    start sets only the iterations, not the fixed point they reach.
    grid_size sets only the times i / grid_size of its samples and of the
    cap check below, which evaluates the top listed level's series there.

    The law falls by sp(R) per level at the mean rates, the spectral radius
    of the m x m rate matrix at the walk's first step, N = 0 (the law's
    `level_decay`), and levels 1..L are listed, L = min(level_cap, ceil(log
    1e-18 / log sp(R))): the law's series holds them (`solved_levels` is
    L), and its readers pad the levels L + 1..level_cap with exact zeros.
    Where level_cap binds, the listed levels are those of the unbounded
    queue, whatever level_cap is.

    RuntimeError is raised when the residual is above tol (tol below the
    rounding floor; loosen tol), when N would pass _MAX_HARMONIC = 128 with
    max |c_N| still above tol or the rates reach a harmonic past 64, or
    when the law puts more than _CAP_MASS_LIMIT = 1e-6 on level L at some
    grid time (raise level_cap).  tol must lie in (0, 1).
    """
    if _as_index(level_cap, "level_cap") < 1:
        raise ValueError("level_cap must be >= 1")
    if _as_index(grid_size, "grid_size") < 4:
        raise ValueError("grid_size must be >= 4")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be > 0 and < 1, got {tol}")
    series, residual, iterations, decay = _fourier_coefficients(spec, level_cap, tol)
    dist = PeriodicDistribution(spec=spec, series=series, grid_size=grid_size,
                                periods=len(series) - 1, residual=residual,
                                level_decay=decay, iterations=iterations,
                                level_cap=level_cap)
    mass = dist.cap_mass()
    if mass > _CAP_MASS_LIMIT:
        raise RuntimeError(f"probability {mass:.3e} sits at the "
                           f"level cap {level_cap}; raise level_cap")
    return dist


def extract_boundary(dist: PeriodicDistribution) -> BoundaryFunctions:
    """The law's boundary: its series' columns of the idle and level-1
    states.  A boundary below -1e-9 at a grid time is refused; the check
    evaluates the boundary's own series at the grid, not the law's
    samples."""
    k = dist.spec.k
    boundary = BoundaryFunctions(spec=dist.spec,
                                 series=dist.series[:, :k + dist.spec.phase_count])
    vals = boundary._interp(dist.grid)
    for name, samples in (("idle", vals[:, :k]), ("first", vals[:, k:])):
        if samples.min() < -1e-9:
            raise ValueError(f"boundary slice {name} is negative ({samples.min():.3e})")
    return boundary


def busy_oracle(spec: ModelSpec, level: int, phase, u: float = 0.0,
                horizon: float = 5.0, step: float = 1.0 / 512,
                level_cap: int = 1000, substeps: int = 4) -> VolterraSolution:
    """Absorbing-ODE route: integrate the killed process and read the sinks.

    Records the sinks every `step` (rounded so that whole steps fill the
    horizon) after `substeps` RK4 steps each.  The run aborts when a record
    ends non-finite or with an L1 norm above 1 + _NORM_SLACK: the step is
    too coarse for RK4 at these rates.

    The process is marched once, on levels 1..L only, with L =
    min(level_cap, level + ceil((n* + a) / k)): the levels the horizon can
    reach.  a is the start phase's arrival stage, and arrival stages
    complete at rate lam(t) whatever the level, so their count over the
    horizon is Poisson with mean Lambda = the arrival rate's integral over
    [u, u + horizon], and a climb to level L takes at least n* of them.  n*
    is the least n > Lambda whose Chernoff bound on that Poisson tail,
    e^-Lambda (e Lambda / n)^n, is below 1e-18, so where L < level_cap
    level L holds at most 1e-18 at any record.  Arrivals out of level L
    leave the system: the march drops the paths that reach level L + 1, so
    the sinks move by at most the probability of that climb, below the same
    bound.  `solved_levels` is L, `reach_bound` that bound at n* (None where
    level_cap binds) and `cap_mass` the peak mass on level L over the
    records.  Any start level below level_cap is taken.  The default
    level_cap, 1000, is a size guard that sane horizons do not meet (L is
    10 at the reference model's defaults); where it binds, the run aborts
    when more than 1e-10 sits on the cap at a record (raise level_cap or
    shorten the horizon).

    The levels are one (L, km) array, and each RK4 stage is one matrix
    product of the window of three neighbouring levels by the level block
    lam(t) A + mu(t) S (`_level_march`); the k sinks gain the service
    completions out of level 1.

    After the checks of each record, every transient entry of the state
    (levels 1..L; the sinks are never edited) with modulus below
    _STATE_FLOOR = 1e-280 is set to zero, so the subnormal band behind the
    mass front does not run through the RK4 stages.  A record removes less
    than L km _STATE_FLOOR of mass, and the exact killed flow does not
    increase L1 mass, so the sinks move by at most n_rec L km _STATE_FLOOR
    over the run: below 8e-275 on the reference model at the defaults (L =
    10, km = 28, horizon 5, step 1/512), and below 8e-272 were L the default
    cap 1000; on the reference model no value moves at all.
    """
    level = _as_index(level, "level")
    if level < 1:
        raise ValueError("busy period starts at level >= 1")
    level_cap = _as_index(level_cap, "level_cap")
    if level >= level_cap:
        raise ValueError(f"start level {level} is not below level_cap {level_cap}")
    if _as_index(substeps, "substeps") < 1:
        raise ValueError("substeps must be >= 1")
    for name, value in (("u", u), ("horizon", horizon), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    n_rec = int(round(horizon / step))
    if n_rec < 1:
        raise ValueError("horizon must cover at least one step")
    q0 = _normalize_phase(spec, phase)
    k, km = spec.k, spec.phase_count
    h = (horizon / n_rec) / substeps

    total_steps = n_rec * substeps
    nodes = u + (horizon / total_steps) * 0.5 * np.arange(2 * total_steps + 1)
    lam, mu = spec.arrival.value(nodes), spec.service.value(nodes)

    # n*: the least n > Lambda with log(e^-Lambda (e Lambda / n)^n) below
    # log _LEVEL_FLOOR (n = 1 when no arrival stage can complete); the
    # search stops once n alone reaches level_cap, which a long horizon's
    # n* passes by far
    mean = spec.arrival.cumulative(u, u + horizon)
    n = math.floor(mean) + 1

    def log_tail(n):
        return n * (1.0 + math.log(mean / n)) - mean if mean > 0.0 else -math.inf
    while n < (level_cap - level) * k and log_tail(n) >= math.log(_LEVEL_FLOOR):
        n += 1
    reach = level + -(-(n + q0 // spec.m) // k)
    levels = min(level_cap, reach)
    bound = (math.exp(log_tail(n)) if levels == reach
             and log_tail(n) < math.log(_LEVEL_FLOOR) else None)

    start = np.zeros((levels, km))
    start[level - 1, q0] = 1.0
    values = np.zeros((n_rec + 1, k))
    top_mass = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _level_march(_level_parts(k, spec.m), spec.m, lam, mu, h, start)
        for rec in range(1, n_rec + 1):
            for _ in range(substeps):
                p, sinks = next(steps)
            mass = np.abs(p)
            norm = mass.sum() + np.abs(sinks).sum()
            if not norm <= 1.0 + _NORM_SLACK:
                raise RuntimeError(
                    f"step {step} with substeps {substeps} is too coarse for "
                    f"RK4 at these rates: a record ended with L1 norm "
                    f"{norm:.3e}; lower step or raise substeps")
            values[rec] = sinks
            top_mass = max(top_mass, float(mass[-1].sum()))
            if top_mass > 1e-10:
                raise RuntimeError(
                    f"probability {top_mass:.3e} reached the level cap "
                    f"{level_cap} within the horizon {horizon}; raise "
                    f"level_cap or shorten the horizon")
            p[mass < _STATE_FLOOR] = 0.0
    return VolterraSolution(
        level=level, phase=q0, u=float(u), step=horizon / n_rec,
        times=u + (horizon / n_rec) * np.arange(n_rec + 1),
        values=values, source="ode", cap_mass=top_mass, solved_levels=levels,
        reach_bound=bound,
    )
