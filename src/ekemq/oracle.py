"""Reference route: the truncated level process, solved directly.

The queue is truncated at a finite level cap; arrivals that would push the
chain above the cap are blocked (the blocked stage simply freezes, keeping
the generator conservative).  The resulting linear ODE

    p'(t) = lam(t) * p(t) S_arr + mu(t) * p(t) S_srv

has periodic coefficients, and its periodic solution is the law.  The
rates are finite trigonometric sums, so with p(t) = sum_n c_n e^{2 pi i n t}
the ODE holds exactly harmonic by harmonic (harmonic balance, or Hill's
method: Kundert & Sangiovanni-Vincentelli, IEEE Trans. CAD 1986):

    2 pi i n c_n = sum_j (lam_j S_arr^T + mu_j S_srv^T) c_{n-j},

lam_j and mu_j the rates' Fourier coefficients.  `integrate_periodic`
solves these equations for n = 0..N, with c_{-n} = conj(c_n) and one n = 0
equation traded for the total mass, by restarted GMRES (Saad & Schultz,
SIAM J. Sci. Stat. Comput. 1986) preconditioned by the mean generator,
block eliminated over levels for every harmonic at once (Neuts,
Matrix-Geometric Solutions in Stochastic Models, 1981); it grows N until
the top harmonic is below the tolerance.  Each level's diagonal block in
that elimination is one lower triangular block per harmonic, the mean
level block shifted by 2 pi i n d, plus a rank-m correction from the level
above, so two km x km blocks are inverted per harmonic and each level
costs an m x m inverse (Woodbury; Hager, SIAM Review 1989).  The law is
its Fourier series: one evaluator (`TrigInterpolant`) samples it on the
output grid and reads it between grid times.  No period is integrated,
and the error is the truncation past N, which |c_N| shows, plus the linear
solve's residual.  Only the levels that hold more than about 1e-18 are
solved, by the law's per-level decay sp(R) of the mean-rate QBD, which the
same level recursion yields at n = 0; the levels above them, up to the
cap, are exact zeros.  numpy does all of it.  The time-domain solve,
RK4 periods to the period map's fixed point, is kept in the tests as the
cross-check.

The busy-period oracle `busy_oracle` does integrate in time: the same
truncated system with the empty level absorbing instead of reflecting is
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
harmonic-balance equations apply the periodic system, where an arrival
moves an empty state to the next arrival stage or starts level 1, by
slicing one vector: the k empty states, then levels 1..cap with phase
(a, s) at a*m + s.  No other module calls `_level_parts` or
`_level_march`.

This module is deliberately independent of the root-series machinery: it
never sees characteristic roots.  The series route does read one output of
it, the empty-system boundary (`extract_boundary`): the columns of the k
idle and km level-1 states in the law's solved series c_0..c_N, so
series-vs-oracle agreement checks the series given the oracle's boundary;
the levels beyond it are computed independently and compared in tests, not
assumed anywhere.  The boundary evaluates its series at the nodes of the
series' period rule (`_quad.PERIOD_NODES`) on first use, so that every
evaluator on it shares one set of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _quad
from .busy import VolterraSolution
from .model import ModelSpec, _as_index, _normalize_phase

# The law's Fourier coefficients c_0..c_N are solved for with N first
# _FIRST_HARMONIC, or twice the rates' top harmonic where that is larger
# (none for constant rates: N = 0), and then grown by half, warm-started,
# while max |c_N| > tol and N stays within _MAX_HARMONIC.  N and its steps
# are counted in units of the rates' harmonic spacing d
# (`_HarmonicBalance.spacing`), each rounded up to a whole unit, so that
# c_N is a harmonic the law can have.
_FIRST_HARMONIC = 12
_MAX_HARMONIC = 128

# GMRES restarts every _RESTART iterations.  It stops once the 2-norm of the
# residual of the harmonic-balance equations is at most _SOLVE_FRACTION *
# tol, or once a restart cycle fails to halve it: the residual then sits at
# its rounding floor, about 1e-16.
_RESTART = 30
_SOLVE_FRACTION = 0.01

# From the cap down, the level blocks of the preconditioner's elimination
# converge (within 7 to 11 levels on the reference model and up to load
# 0.95); once a block's k x m slice that feeds the level below is within
# _REUSE_TOL of the one above it, relative in max norm, that block serves
# every level below.
_REUSE_TOL = 1e-15

_CAP_MASS_LIMIT = 1e-6

# `integrate_periodic` solves the levels by which a mass, falling by sp(R)
# per level, reaches _LEVEL_FLOOR, and solves again on more levels while its
# top solved level holds more than _SOLVED_MASS_LIMIT: the rule can
# under-read when the rates swing the load.  `busy_oracle` marches the
# levels that its horizon's arrivals reach with more than _LEVEL_FLOOR of
# probability.
_LEVEL_FLOOR = 1e-18
_SOLVED_MASS_LIMIT = 1e-15

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


class TrigInterpolant:
    """The real 1-periodic function sum_n c_n e^{2 pi i n t} over |n| <= N,
    c_{-n} = conj(c_n), from c_0..c_N (rows of coef; c_0 taken real).

    It is evaluated in real form, cos(2 pi n t) @ (w Re c) - sin(2 pi n t)
    @ (w Im c) with w = 1, 2, 2, ..., which keeps every product real.
    """

    def __init__(self, coef: np.ndarray):
        coef = np.asarray(coef, dtype=complex)
        weights = np.full((len(coef), 1), 2.0)
        weights[0] = 1.0
        self._cos, self._sin = weights * coef.real, weights * coef.imag
        self._harmonics = np.arange(len(coef))

    def __call__(self, u):
        phases = 2.0 * np.pi * np.outer(np.asarray(u, dtype=float), self._harmonics)
        vals = np.cos(phases) @ self._cos
        vals -= np.sin(phases) @ self._sin
        return vals


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


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class PeriodicDistribution:
    """Periodic law of the truncated queue: its Fourier series, read at any
    time and sampled on a uniform grid.

    `series` holds c_0..c_N as (N + 1, k + level_cap * km) complex rows: the
    k idle states (arrival stage a), then levels 1..level_cap in phase (a,
    s) at a*m + s; level_cap is read off the width, and any other width or
    shape, or a grid_size below 1, raises ValueError.  `periods` is N and
    `residual` the larger of max |c_N| and the 2-norm of the harmonic-balance
    equations' residual, names kept from the time-domain solve.
    `level_decay` is sp(R), the per-level decay of the mean-rate QBD that
    `integrate_periodic` chose the solved levels by (nan for a law built
    otherwise).  `gmres_iterations` counts the GMRES iterations of that
    solve at its final N (0 for a law built otherwise).  `solved_levels` is
    the highest level with a nonzero coefficient: the levels above it, up
    to level_cap, are exact zeros.

    Each series below is built from `series` on first use, once per law,
    over the idle states and levels 1..solved_levels, and its values are
    padded with the zero levels above.
    The state series serves `states_at`, `idle_at`, `levels_at` and the
    samples idle[i, a] and levels[i, j-1, a*m+s] at the times grid[i] = i /
    grid_size: read-only views of one evaluation of it at the grid, made on
    first read.  The stage series, the k idle states and the level_cap * m
    sums of each level over arrival stage, serves `stage_sums_at`, all the
    oracle wait route reads.  `series` is a read-only copy, so nothing read
    from it can disagree with it.  Laws compare and hash by identity, as
    their arrays have no single truth value.
    """

    spec: ModelSpec
    series: np.ndarray
    grid_size: int
    periods: int
    residual: float
    level_decay: float = math.nan
    gmres_iterations: int = 0

    def __post_init__(self):
        series = np.array(self.series, dtype=complex)
        k, km = self.spec.k, self.spec.phase_count
        if series.ndim != 2 or series.shape[1] < k + km or (series.shape[1] - k) % km:
            raise ValueError(f"series has shape {series.shape}, not (N + 1, k + "
                             f"level_cap * km) with k = {k}, km = {km}, level_cap >= 1")
        object.__setattr__(self, "series", _read_only(series))
        object.__setattr__(self, "level_decay", float(self.level_decay))
        object.__setattr__(self, "grid_size", _as_index(self.grid_size, "grid_size"))
        if self.grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {self.grid_size}")

    @cached_property
    def grid(self) -> np.ndarray:
        """The read-only sample times i / grid_size."""
        return _read_only(np.arange(self.grid_size) / self.grid_size)

    @property
    def level_cap(self) -> int:
        return (self.series.shape[1] - self.spec.k) // self.spec.phase_count

    @cached_property
    def solved_levels(self) -> int:
        """The highest level with a nonzero coefficient, 0 if none."""
        held = np.flatnonzero(self.series[:, self.spec.k:].reshape(
            len(self.series), self.level_cap, -1).any(axis=(0, 2)))
        return held[-1].item() + 1 if held.size else 0

    @cached_property
    def samples(self) -> np.ndarray:
        """The state series at the grid times, (grid_size, k + level_cap *
        km) in the columns of `series`, read-only, evaluated on first read;
        idle and levels are views of it."""
        return _read_only(self._at(self._interp, self.grid, self.spec.phase_count))

    @cached_property
    def _samples(self) -> tuple[np.ndarray, np.ndarray]:
        return self._split(self.samples, self.spec.phase_count)

    idle = property(lambda self: self._samples[0])
    levels = property(lambda self: self._samples[1])

    @cached_property
    def _interp(self) -> TrigInterpolant:
        """Series of every state up to the solved levels, built once per law."""
        return TrigInterpolant(self.series[:, :self.spec.k + self.solved_levels
                                           * self.spec.phase_count])

    def _at(self, interp, u, per_level: int) -> np.ndarray:
        """interp's values at times u, followed by zeros up to k +
        level_cap * per_level columns."""
        solved = interp(u)
        vals = np.zeros((len(solved), self.spec.k + self.level_cap * per_level))
        vals[:, :solved.shape[1]] = solved
        return vals

    def _split(self, vals: np.ndarray, per_level: int) -> tuple[np.ndarray, np.ndarray]:
        return vals[:, :self.spec.k], vals[:, self.spec.k:].reshape(
            -1, self.level_cap, per_level)

    def states_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), levels_at(u)) from one evaluation of the series."""
        km = self.spec.phase_count
        return self._split(self._at(self._interp, u, km), km)

    @cached_property
    def _stage_interp(self) -> TrigInterpolant:
        """Series of the idle states and of the busy states summed over
        arrival stage, built once per law."""
        k, m = self.spec.k, self.spec.m
        series = self.series[:, :k + self.solved_levels * k * m]
        by_stage = series[:, k:].reshape(len(series), -1, k, m).sum(axis=2)
        return TrigInterpolant(np.hstack([series[:, :k],
                                          by_stage.reshape(len(series), -1)]))

    def stage_sums_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), levels_at(u) summed over arrival stage), shapes
        (len(u), k) and (len(u), level_cap, m), from one evaluation of the
        stage series; the sums agree with `levels_at`'s to rounding."""
        return self._split(self._at(self._stage_interp, u, self.spec.m), self.spec.m)

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at arbitrary times, (len(u), k)."""
        return self.states_at(u)[0]

    def levels_at(self, u) -> np.ndarray:
        """Busy-level probabilities at arbitrary times, (len(u), cap, km)."""
        return self.states_at(u)[1]

    def cap_mass(self) -> float:
        """Largest probability seen at a grid time on the top solved level,
        `solved_levels` (0 if there is none); a cap check.  It evaluates
        that level's own series at the grid, so it builds no samples, once
        per law."""
        return self._cap_mass

    @cached_property
    def _cap_mass(self) -> float:
        top = self.solved_levels
        if not top:
            return 0.0
        k, km = self.spec.k, self.spec.phase_count
        level = TrigInterpolant(self.series[:, k + (top - 1) * km:k + top * km])
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


def _level_inverses(hb: _HarmonicBalance, count: int) -> np.ndarray:
    """The inverses of the diagonal blocks that block elimination of Gbar -
    2 pi i n d from the cap down leaves on the levels, for the harmonics n d,
    n = 0..count - 1: a (blocks, count, km, km) stack, the cap's first,
    then levels cap - 1, cap - 2, ... while they still change.

    The cap's block is the cap block shifted by 2 pi i n d.  Below it, level
    j's block is T_n - U W_j V^T: T_n the level block so shifted, lower
    triangular as the stage chains only advance, and a correction that
    level j + 1 sends down through its service completions.  It sits on the
    k rows (a, 0) (U selects them) and the m columns (k - 1, s) (V), W_j =
    lam mu Y_{j+1}, with Y_{j+1} the k x m slice of the inverse above on
    rows (a, m - 1) and columns (0, s).  So by the Woodbury identity
    (Hager, SIAM Review 1989) level j's inverse is T_n^-1 + (T_n^-1 U) M_j
    (V^T T_n^-1) with M_j = W_j (I - C W_j)^-1, and its slice is Y_j = A +
    B M_j D.  A, B, C and D are slices of T_n^-1: rows (a, m - 1) by
    columns (0, s), rows (a, m - 1) by columns (a, 0), rows (k - 1, s) by
    columns (a, 0), and rows (k - 1, s) by columns (0, s).  Only the cap
    block and T_n are inverted as km x km blocks, once per harmonic;
    each level costs one m x m inverse per harmonic.  The recursion stops
    after the first level whose Y is within _REUSE_TOL of the one above it
    (relative, max norm), as the levels below it repeat its block, or at
    level 1; the kept blocks are then formed in one batched product.
    """
    k, m, km = hb.k, hb.m, hb.k * hb.m
    lam, mu = hb.mean
    shift = 2j * np.pi * (np.arange(count) * hb.spacing)[:, None, None] * np.eye(km)
    cap_inverse = np.linalg.inv(hb.cap_block - shift)
    inverse = np.linalg.inv(hb.level_block - shift)
    columns, rows = inverse[..., ::m], inverse[:, (k - 1) * m:]  # T^-1 U, V^T T^-1
    a, b = inverse[:, m - 1::m, :m], columns[:, m - 1::m]
    c, d = rows[..., ::m], rows[..., :m]
    y = cap_inverse[:, m - 1::m, :m]
    corrections = []
    for _ in range(hb.cap - 1):
        w = (lam * mu) * y
        corrections.append(w @ np.linalg.inv(np.eye(m) - c @ w))
        below = a + b @ corrections[-1] @ d
        if np.abs(below - y).max() <= _REUSE_TOL * np.abs(below).max():
            break
        y = below
    blocks = np.empty((len(corrections) + 1, count, km, km), complex)
    blocks[0] = cap_inverse
    if corrections:
        np.matmul(columns @ np.array(corrections), rows, out=blocks[1:])
        blocks[1:] += inverse
    return blocks


def _mean_decay(hb: _HarmonicBalance) -> float:
    """sp(R), the spectral radius of the rate matrix R of the QBD at the
    mean rates (Neuts, Matrix-Geometric Solutions in Stochastic Models,
    1981): the law's per-level decay.  The n = 0 blocks of
    `_level_inverses` converge from the cap down to the mean-rate QBD's,
    whose R, in the column form of the up blocks -lam * inverse[:, :m],
    reads level j - 1's final arrival stage only; so sp(R) is that of the m
    x m block of the lowest up block that feeds level j's final arrival
    stage."""
    k, m = hb.k, hb.m
    lowest = _level_inverses(hb, 1)[-1, 0]
    return float(np.abs(np.linalg.eigvals(-hb.mean[0] * lowest[(k - 1) * m:, :m])).max())


class _LevelElimination:
    """Solves (Gbar - 2 pi i n d) z_n = r_n for the harmonics n d, n =
    0..count - 1, at once, Gbar the transposed generator at the mean rates
    lam, mu, and d the rates' harmonic spacing.

    Gbar is level-tridiagonal, so block elimination from the cap down writes
    level j as z_j = R_j z_{j-1} + g_j, and the k x k system left on the
    empty level fixes z_0.  The inverses of the diagonal blocks come from
    `_level_inverses`, by rank-m updates of one triangular block per
    harmonic; they are (harmonics, km, km) arrays applied with np.matmul,
    the last kept one serving every level below it.  R_j reads only the
    final arrival stage of level j - 1 and the correction that level j + 1
    sends down only its final service stage, so they are kept as km x m and
    km x k column slices.  For n = 0 Gbar is singular; its equation (0, k -
    1) is traded for the total mass, which the elimination writes as a
    linear form of z_0 plus the mass that the g_j carry (weights w_j), so
    the n = 0 slice solves the bordered mean generator exactly: applied to
    the mass equation alone it returns the stationary law of the mean
    generator.
    """

    def __init__(self, hb: _HarmonicBalance, count: int):
        k, m, km, cap = hb.k, hb.m, hb.k * hb.m, hb.cap
        lam, mu = hb.mean
        self.inverses = _level_inverses(hb, count)  # levels cap, cap - 1, ...
        # level j's block, j = 0..cap (0 unused)
        block = [min(cap - j, len(self.inverses) - 1) for j in range(cap + 1)]
        ups = -lam * self.inverses[..., :m]
        self.ups = [ups[i] for i in block]
        downs = -mu * self.inverses[..., ::m]
        self.downs = [downs[i] for i in block]
        self.first_up = first_up = -lam * self.inverses[block[1], :, :, :1]
        harmonics = np.arange(count) * hb.spacing
        empty = hb.empty_block - 2j * np.pi * harmonics[:, None, None] * np.eye(k)
        empty[:, :, k - 1] += mu * first_up[:, m - 1::m, 0]
        # w_j = 1 + (the mass that level j + 1 and above put on level j's
        # final arrival stage), from the cap down
        self.weights = weights = np.ones((cap, km))
        for j in range(cap - 1, 0, -1):
            weights[j - 1, (k - 1) * m:] += weights[j] @ self.ups[j + 1][0].real
        empty[0, k - 1] = 1.0
        empty[0, k - 1, k - 1] += weights[0] @ first_up[0, :, 0].real
        self.empty_inverse = np.linalg.inv(empty)
        self.k, self.m, self.cap, self.mu = k, m, cap, mu

    def solve(self, r: np.ndarray) -> np.ndarray:
        k, m, cap = self.k, self.m, self.cap
        count = len(r)
        levels = r[:, k:].reshape(count, cap, -1).transpose(1, 0, 2)[..., None]
        g = np.empty(levels.shape, complex)  # g[j - 1] holds level j
        low = cap - len(self.inverses)  # levels 1..low share the last block
        np.matmul(self.inverses[::-1], levels[low:], out=g[low:])
        np.matmul(self.inverses[-1], levels[:low], out=g[:low])
        for j in range(cap - 1, 0, -1):
            g[j - 1] += self.downs[j] @ g[j, :, m - 1::m]
        rhs = r[:, :k, None] - self.mu * g[0, :, m - 1::m]
        rhs[0, k - 1, 0] = r[0, k - 1].real - np.vdot(self.weights, g[:, 0, :, 0].real)
        empty = self.empty_inverse @ rhs
        g[0] += self.first_up @ empty[:, k - 1:]
        for j in range(2, cap + 1):
            g[j - 1] += self.ups[j] @ g[j - 2, :, (k - 1) * m:]
        z = np.empty_like(r)
        z[:, :k] = empty[..., 0]
        z[:, k:] = g[..., 0].transpose(1, 0, 2).reshape(count, -1)
        z[0] = z[0].real
        return z


class _HarmonicBalance:
    """The harmonic-balance equations of the truncated queue for c_0..c_N,
    and their preconditioner.

    With p(t) = sum_n c_n e^{2 pi i n t} and the rates' harmonics lam_j,
    mu_j, the ODE p' = (lam(t) AT + mu(t) MT) p holds harmonic by harmonic:
    sum_j (lam_j AT + mu_j MT) c_{n-j} - 2 pi i n c_n = 0.  The law is
    real, so c_{-n} = conj(c_n) and only n = 0..N are unknowns, c_0 real;
    harmonics past N are dropped.  The equations tie c_n only to the c_{n
    -+ j} and the mass sits at n = 0, so c_n is exactly 0 unless n is a
    multiple of the gcd d of the rates' harmonics, `spacing` (1 for
    constant rates): the unknowns are the rows c_{nd}, n = 0..N / d, and
    rate harmonic j sits at row offset j / d.  Equation (0, k - 1), the
    last empty state's at n = 0, is traded for sum(c_0) = 1.  AT and MT are
    applied by slicing: the k empty states, then levels 1..cap with phase
    (a, s) at a*m + s.  The preconditioner keeps the rates' means only,
    which decouples the harmonics; its factors are one `_LevelElimination`
    over the harmonics 0, d, ..., N, `elimination`, built again by `factor`
    whenever N grows.
    """

    def __init__(self, spec: ModelSpec, level_cap: int):
        k, m = spec.k, spec.m
        self.k, self.m, self.cap = k, m, level_cap
        self.dim = k + level_cap * k * m
        rates = [(rate.mean(), _harmonics(rate)) for rate in (spec.arrival, spec.service)]
        harmonics = [j for _, harm in rates for j in harm]
        self.top = max(harmonics, default=0)
        self.spacing = d = math.gcd(*harmonics) or 1
        self.rates = [(base, {j // d: amp for j, amp in harm.items()})
                      for base, harm in rates]
        self.mean = lam, mu = spec.arrival.mean(), spec.service.mean()
        # a stage chain leaves each stage at its rate for the next one
        arr = lam * (np.eye(k, k=1) - np.eye(k))
        srv = mu * (np.eye(m, k=1) - np.eye(m))
        local = np.kron(arr, np.eye(m)) + np.kron(np.eye(k), srv)
        self.level_block = local.T.copy()
        # at the cap the final arrival stage is blocked
        local[(k - 1) * m:, (k - 1) * m:] += lam * np.eye(m)
        self.cap_block = local.T.copy()
        self.empty_block = arr.T.copy()

    def factor(self, count: int) -> None:
        """Factor the preconditioner for the harmonics n d, n = 0..count - 1."""
        self.elimination = _LevelElimination(self, count)

    def equations(self, c: np.ndarray) -> np.ndarray:
        k, m, cap, dim = self.k, self.m, self.cap, self.dim
        top = self.top // self.spacing
        count = len(c)
        # the rows n = -top .. count - 1 + top, zero past N
        padded = np.zeros((count + 2 * top, dim), complex)
        padded[top:top + count] = c
        padded[:top] = np.conj(c[top:0:-1])
        flows = []
        for base, harm in self.rates:
            flow = base * c
            for j, amp in harm.items():
                flow += amp * padded[top - j:top - j + count]
                flow += np.conj(amp) * padded[top + j:top + j + count]
            flows.append(flow)
        arr, srv = flows
        # an arrival moves empty state a to a + 1 (k - 1 to level 1), a
        # busy state x to x + m; the final stage at the cap is blocked
        out = -arr
        out[:, dim - m:] = 0.0
        out[:, 1:k + 1] += arr[:, :k]
        out[:, k + m:] += arr[:, k:dim - m]
        # a service advances the stage; the last one moves (j, a, m - 1) to
        # (j - 1, a, 0), or at level 1 to empty state a
        busy = out[:, k:].reshape(count, cap, k, m)
        srv = srv[:, k:].reshape(count, cap, k, m)
        busy -= srv
        busy[..., 1:] += srv[..., :-1]
        busy[:, :-1, :, 0] += srv[:, 1:, :, m - 1]
        out[:, :k] += srv[:, 0, :, m - 1]
        out -= (2j * np.pi * (np.arange(count) * self.spacing))[:, None] * c
        out[0] = out[0].real
        out[0, k - 1] = c[0].real.sum()
        return out


def _gmres(operator, precondition, b: np.ndarray, x: np.ndarray, target: float):
    """Restarted GMRES (Saad & Schultz 1986) with right preconditioning for
    operator(x) = b on real vectors, started at x.

    Returns (x, |b - operator(x)|_2, iterations) once that residual is at
    most target, or once a restart cycle fails to halve it; iterations
    counts the Arnoldi steps over every cycle.
    """
    r = b - operator(x)
    beta = float(np.linalg.norm(r))
    iterations = 0
    while beta > target:
        basis = np.zeros((_RESTART + 1, len(b)))
        hess = np.zeros((_RESTART + 1, _RESTART))
        rotations = np.zeros((_RESTART, 2))
        g = np.zeros(_RESTART + 1)
        g[0] = beta
        basis[0] = r / beta
        for i in range(_RESTART):
            w = operator(precondition(basis[i]))
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = basis[:i + 1] @ w
                w -= h @ basis[:i + 1]
                hess[:i + 1, i] += h
            hess[i + 1, i] = np.linalg.norm(w)
            if hess[i + 1, i] > 0.0:
                basis[i + 1] = w / hess[i + 1, i]
            for j, (cos, sin) in enumerate(rotations[:i]):
                hess[j:j + 2, i] = (cos * hess[j, i] + sin * hess[j + 1, i],
                                    cos * hess[j + 1, i] - sin * hess[j, i])
            radius = np.hypot(*hess[i:i + 2, i])
            rotations[i] = hess[i:i + 2, i] / radius
            hess[i, i] = radius
            g[i + 1] = -rotations[i, 1] * g[i]
            g[i] *= rotations[i, 0]
            if abs(g[i + 1]) <= target:
                break
        iterations += i + 1
        y = np.linalg.solve(np.triu(hess[:i + 1, :i + 1]), g[:i + 1])
        x = x + precondition(y @ basis[:i + 1])
        r = b - operator(x)
        last, beta = beta, float(np.linalg.norm(r))
        if beta > 0.5 * last:
            break
    return x, beta, iterations


def _fourier_coefficients(spec: ModelSpec, level_cap: int, tol: float):
    """(c, residual, iterations): the law's Fourier coefficients c_0..c_N,
    an (N + 1, dim) complex array, by the search over N and the checks of
    `integrate_periodic`, and the GMRES iterations of the last solve, the
    one at that N.  The rows c_{nd} are solved for, n = 0..N / d, and the
    rows between them are exact zeros."""
    hb = _HarmonicBalance(spec, level_cap)
    d = hb.spacing
    # N = top * d
    top = -(-max(_FIRST_HARMONIC, 2 * hb.top) // d) if hb.top else 0
    if top * d > _MAX_HARMONIC:
        raise RuntimeError(f"the rates reach harmonic {hb.top}, past half of the "
                           f"largest N, {_MAX_HARMONIC}")

    def flat(f):
        return lambda v: f(v.view(complex).reshape(-1, hb.dim)).reshape(-1).view(float)

    c = np.zeros((0, hb.dim), complex)
    while True:
        hb.factor(top + 1)
        start = np.zeros((top + 1, hb.dim), complex)
        start[:len(c)] = c  # warm start from the last N
        b = np.zeros_like(start)
        b[0, hb.k - 1] = 1.0
        x, solved, iterations = _gmres(
            flat(hb.equations), flat(hb.elimination.solve), b.reshape(-1).view(float),
            start.reshape(-1).view(float), _SOLVE_FRACTION * tol)
        c = x.view(complex).reshape(top + 1, -1)
        if solved > tol:
            raise RuntimeError(f"the harmonic-balance solve stalled at residual "
                               f"{solved:.3e} > tol = {tol:.3e}; loosen tol")
        truncation = float(np.abs(c[-1]).max()) if top else 0.0
        if truncation <= tol:
            series = np.zeros((top * d + 1, hb.dim), complex)
            series[::d] = c
            return series, max(solved, truncation), iterations
        step = -(-(top * d // 2) // d)
        if (top + step) * d > _MAX_HARMONIC:
            raise RuntimeError(f"the law's harmonics reach past {_MAX_HARMONIC}: "
                               f"max |c_N| is {truncation:.3e} > tol at N = {top * d}; "
                               f"loosen tol")
        top += step


def _levels_to_floor(mass: float, decay: float) -> float:
    """The levels it takes a mass that falls by `decay` per level to reach
    _LEVEL_FLOOR: at least 1, and inf if it does not fall."""
    if decay <= 0.0:
        return 1
    if not decay < 1.0:
        return math.inf
    return max(1, math.ceil(math.log(_LEVEL_FLOOR / mass) / math.log(decay)))


def integrate_periodic(spec: ModelSpec, level_cap: int = 50, grid_size: int = 512,
                       tol: float = 1e-10) -> PeriodicDistribution:
    """Solve for the periodic regime of the queue truncated at level_cap.

    The law's Fourier coefficients c_0..c_N solve the harmonic-balance
    equations of `_HarmonicBalance` (Hill's method; Kundert &
    Sangiovanni-Vincentelli, IEEE Trans. CAD 1986), by restarted GMRES
    preconditioned with the mean generator shifted by 2 pi i n, block
    eliminated over levels for every n at once (`_LevelElimination`, by
    rank-m updates of one triangular block per harmonic).  N starts at
    _FIRST_HARMONIC, or twice the rates' top harmonic where that is larger,
    or 0 for constant rates, and grows by half, warm-started from the last
    solve, until max |c_N| <= tol.  The law has only harmonics
    that are multiples of the gcd d of the rates' harmonics (the others
    are exactly 0), so only those are solved for, and N and each step of it
    are rounded up to multiples of d.  The law is built from the solved
    series, with `periods` N and `residual` the larger of max |c_N| (0 for
    N = 0) and the 2-norm of the equations' residual, both <= tol;
    grid_size sets only the times i / grid_size of its samples and of the
    cap checks below, which evaluate the top solved level's series there.

    level_cap is the law's width and an upper limit on the levels solved.
    The law falls by sp(R) per level, the spectral radius of the rate
    matrix R of the QBD at the mean rates, which the level recursion of the
    mean generator yields at n = 0 on up to level_cap levels
    (`_mean_decay`, the law's `level_decay`).  The equations are solved on
    levels 1..L only, L = min(level_cap, ceil(log 1e-18 / log sp(R))),
    blocking arrivals at L, and the law's levels L + 1..level_cap are exact
    zeros (`solved_levels` is L).  Where more than 1e-15 sits on level L <
    level_cap at some grid time, the solve is repeated on the levels by
    which that mass, falling by sp(R) per level, reaches 1e-18, up to
    level_cap.  So the level i past L that is written as 0 holds about
    (mass at L) * sp(R)^i <= 1e-15 * sp(R)^i, and the truncation at L
    moves the solved levels by about the mass at L, as a cap does.

    RuntimeError is raised when the residual stalls above tol (tol below
    the rounding floor; loosen tol), when N would pass _MAX_HARMONIC = 128
    with max |c_N| still above tol or the rates reach a harmonic past 64,
    or when the law, solved on every level, puts more than _CAP_MASS_LIMIT
    = 1e-6 on the level cap at some grid time (raise level_cap).  tol must
    lie in (0, 1): at tol >= 1 the solve's target would accept the zero
    start, a law of no mass.
    """
    if _as_index(level_cap, "level_cap") < 1:
        raise ValueError("level_cap must be >= 1")
    if _as_index(grid_size, "grid_size") < 4:
        raise ValueError("grid_size must be >= 4")
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be > 0 and < 1, got {tol}")
    decay = _mean_decay(_HarmonicBalance(spec, level_cap))
    levels, mass = 0, 1.0
    while True:
        levels = min(level_cap, levels + _levels_to_floor(mass, decay))
        solved, residual, iterations = _fourier_coefficients(spec, levels, tol)
        series = np.zeros((len(solved), spec.k + level_cap * spec.phase_count), complex)
        series[:, :solved.shape[1]] = solved
        dist = PeriodicDistribution(spec=spec, series=series, grid_size=grid_size,
                                    periods=len(series) - 1, residual=residual,
                                    level_decay=decay, gmres_iterations=iterations)
        mass = dist.cap_mass()
        if levels == level_cap or mass <= _SOLVED_MASS_LIMIT:
            break
    if mass > _CAP_MASS_LIMIT:
        raise RuntimeError(f"probability {mass:.3e} sits at the "
                           f"level cap {level_cap}; raise level_cap")
    return dist


@dataclass(frozen=True, eq=False)
class BoundaryFunctions:
    """The empty-system boundary the series method needs, as the Fourier
    series of the law's k idle and km level-1 states.

    series holds their c_0..c_N, (N + 1, k + km) complex rows, the idle
    states first, for the model spec: `extract_boundary` slices it from the
    law's solved series.  One `TrigInterpolant` of it serves `idle_at`,
    `first_at` and `period_samples`, the values at the nodes of the series'
    period rule.

    A boundary is immutable: the constructor copies series into a read-only
    array, so an edit raises instead of disagreeing with the interpolant
    and the period samples, each computed on first use, once per boundary.
    Boundaries compare and hash by identity, as laws do.
    """

    spec: ModelSpec
    series: np.ndarray

    def __post_init__(self):
        series = np.array(self.series, dtype=complex)
        width = self.spec.k + self.spec.phase_count
        if series.ndim != 2 or series.shape[1] != width:
            raise ValueError(f"boundary series has shape {series.shape}, not "
                             f"(N + 1, k + km = {width})")
        object.__setattr__(self, "series", _read_only(series))

    @cached_property
    def _interp(self) -> TrigInterpolant:
        return TrigInterpolant(self.series)

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at times u, shape (len(u), k)."""
        return self._interp(u)[:, :self.spec.k]

    def first_at(self, u) -> np.ndarray:
        """Level-1 phase probabilities at times u, shape (len(u), km)."""
        return self._interp(u)[:, self.spec.k:]

    @cached_property
    def period_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), first_at(u)) at the nodes u of the series' period
        rule, `_quad.PERIOD_NODES`, read-only, from one evaluation once per
        boundary."""
        vals = _read_only(self._interp(_quad.PERIOD_NODES))
        return vals[:, :self.spec.k], vals[:, self.spec.k:]


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
    records.  The default level_cap, 1000, is a size guard that sane
    horizons do not meet (L is 10 at the reference model's defaults); where
    it binds, the run aborts when more than 1e-10 sits on the cap at a
    record (raise level_cap or shorten the horizon).

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
    if level > level_cap // 2:
        raise ValueError("level_cap should comfortably exceed the start level")
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
