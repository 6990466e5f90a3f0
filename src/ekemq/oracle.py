"""Reference route: direct integration of the truncated level process.

The queue is truncated at a finite level cap; arrivals that would push the
chain above the cap are blocked (the blocked stage simply freezes, keeping
the generator conservative).  The resulting linear ODE

    p'(t) = lam(t) * p(t) S_arr + mu(t) * p(t) S_srv

is driven with classical fourth-order Runge-Kutta steps aligned to a fixed
output grid.  The two constant structure matrices S_arr and S_srv carry
unit rates and are folded onto one sparsity pattern, the union of theirs,
with their values kept side by side, so the generator at a node is that
pattern with the values lam * a + mu * s: one small dense product refreshes
it in place, no matrix is rebuilt inside the stepping loop, and each RK
stage is a single sparse product, four per step.

The periodic law is the fixed point of the one-period map Phi, and it is
solved as one (periodic steady-state shooting, Aprille & Trick, Proc. IEEE
1972), accelerating the period map with Anderson mixing (Walker & Ni, SIAM
J. Numer. Anal. 2011).  It stops only when two consecutive plain periods,
sampled on the grid, agree to the tolerance.  The solve walks a ladder of
grids, each a quarter of the one before, sharing one structure operator,
and starts each grid from the t = 0 state of the fixed point on the grid
below (nested iteration, Brandt, Math. Comp. 1977): the coarse grid
resolves the slow modes that dominate the period count at a quarter of the
cost per period.  The ladder ends before a grid below 8 steps or one where
RK4 would be unstable for the generator; its coarsest grid starts from the
stationary law of the period-averaged generator, found by linear level
reduction from the cap down.

The same truncated system, with the empty level absorbing instead of
reflecting, is the busy-period oracle `busy_oracle`: in the periodic system
an arrival moves an empty state to the next arrival stage or starts level
1, while in the killed system the k empty states have no exits and count
absorption by arrival stage.  `_structure_matrices` builds both and
`_rk4_march` steps both; no other module calls them.

This module is deliberately independent of the root-series machinery: it
never sees characteristic roots.  The series route does read one output of
it, the empty-system boundary (`extract_boundary`), so series-vs-oracle
agreement checks the series given the oracle's boundary; the levels beyond
it are computed independently and compared in tests, not assumed anywhere.
The boundary samples itself at the nodes of the series' period rule
(`_quad.PERIOD_NODES`) on first use, so that every evaluator on it shares
one set of samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from . import _quad
from .busy import VolterraSolution
from .model import ModelSpec, _normalize_phase

# The periodic solve mixes the last _ANDERSON_DEPTH period residual
# differences, and runs plain periods once a period moves its start by at
# most _PLAIN_FRACTION * tol, so that the plain check of two consecutive
# periods usually passes at once and the fixed point is resolved below tol.
_ANDERSON_DEPTH = 8
_PLAIN_FRACTION = 0.1

_CAP_MASS_LIMIT = 1e-6

# `busy_oracle` zeroes the transient entries of its state below this at every
# record: the mass front climbing the levels trails a band of subnormal
# entries, which x86 multiplies in microcode at 10 to 100 times the normal
# cost.  The floor sits far enough above 2**-1022 (about 2.2e-308) that most
# entries a record's RK4 steps grow from kept ones are still normal.
_STATE_FLOOR = 1e-280

# A period or busy-period record that ends with an L1 norm above
# 1 + _NORM_SLACK has grown negative entries: RK4 is unstable at that step,
# so the solve stops there.
_NORM_SLACK = 1e-6

# The solve on grid N starts from the t = 0 state of the fixed point on the
# ladder's grid N // _COARSEN, while that grid has at least _COARSE_MIN_GRID
# points and keeps h * 2 max(lam + mu) <= _RK4_REAL_LIMIT: by Gershgorin the
# generator's spectrum lies in [-2 max(lam + mu), 0], and RK4's real
# stability interval is [-2.78, 0].
_COARSEN = 4
_COARSE_MIN_GRID = 8
_RK4_REAL_LIMIT = 2.5


class TrigInterpolant:
    """Trigonometric interpolation of 1-periodic samples on a uniform grid.

    Exact at the sample points.  For an even number of samples the top
    (Nyquist) harmonic is folded to a pure cosine, the usual convention for
    real data.
    """

    def __init__(self, samples: np.ndarray):
        samples = np.asarray(samples, dtype=float)
        self.n = samples.shape[0]
        coef = np.fft.rfft(samples, axis=0) / self.n
        weights = np.full(coef.shape[0], 2.0)
        weights[0] = 1.0
        if self.n % 2 == 0:
            weights[-1] = 1.0
        self._coef = weights[:, None] * coef
        self._harmonics = np.arange(coef.shape[0])

    def __call__(self, u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        phases = np.exp(2j * np.pi * np.outer(u, self._harmonics))
        vals = np.real(phases @ self._coef)
        return vals


def _structure_matrices(k: int, m: int, level_cap: int, absorbing: bool = False):
    """Unit-rate generator structure on one folded sparsity pattern.

    State order: k empty states (arrival stage a), then levels 1..level_cap
    with km phases each, phase (a, s) flattened as a*m + s.  Returned as
    (pattern, parts): pattern is the dim x dim canonical CSR of the union of
    the transposed arrival and service parts AT and MT, with zero data, and
    parts the (2, nnz) values of AT and MT on it.  The transposed generator
    at rates lam, mu, lam * AT + mu * MT, is pattern with the data
    np.dot((lam, mu), parts); every part value is 0 or +-1, so each entry is
    rounded at most once.
    With absorbing=True the empty states keep no arrival exits: they are the
    sinks of the process killed at its first visit to the empty level.
    """
    km = k * m
    dim = k + level_cap * km
    # an arrival advances the stage: an empty state a goes to a + 1 (a = k-1
    # to level 1, phase (0, 0), which is state k), a busy state x to x + m
    # ((j, a, s) to (j, a + 1, s), or (j, k-1, s) to (j + 1, 0, s)); the
    # final stage at the cap is blocked, and the killed process has ended
    # in its empty states, so they have no exits
    empty = np.arange(k if absorbing else 0, k)
    busy = np.arange(k, dim - m)
    arr_r = np.concatenate([empty, empty, busy, busy])
    arr_c = np.concatenate([empty, empty + 1, busy, busy + m])
    arr_v = np.repeat([-1.0, 1.0, -1.0, 1.0], [len(empty)] * 2 + [len(busy)] * 2)
    # a service advances the stage, and the last stage completes it: level
    # j > 1 goes to (j - 1, a, 0), level 1 to the empty state a
    x = np.arange(k, dim)
    s = (x - k) % m
    done = np.where(x - k >= km, x - km - (m - 1), (x - k) // m)
    srv_r = np.concatenate([x, x])
    srv_c = np.concatenate([x, np.where(s < m - 1, x + 1, done)])
    srv_v = np.repeat([-1.0, 1.0], len(x))

    # entry (r, c) of the generator is entry (c, r) of its transpose; each
    # part has at most one entry per position, and sorted keys c * dim + r
    # are the row-major order of a canonical CSR
    keys, at = np.unique(np.concatenate([arr_c, srv_c]) * dim
                         + np.concatenate([arr_r, srv_r]), return_inverse=True)
    parts = np.zeros((2, len(keys)))
    parts[0, at[:len(arr_v)]] = arr_v
    parts[1, at[len(arr_v):]] = srv_v
    indptr = np.searchsorted(keys, np.arange(dim + 1) * dim)
    pattern = sp.csr_matrix((np.zeros(len(keys)), keys % dim, indptr),
                            shape=(dim, dim))
    return pattern, parts


def _generator(op, lam: float, mu: float):
    """The transposed generator lam * AT + mu * MT of op =
    `_structure_matrices(...)`, a CSR sharing the pattern's indices and
    indptr."""
    pattern, parts = op
    return sp.csr_matrix((np.dot((lam, mu), parts), pattern.indices,
                          pattern.indptr), shape=pattern.shape)


def _rk4_march(op, lam: np.ndarray, mu: np.ndarray, h: float, p: np.ndarray):
    """Yield the state after each classical RK4 step of p' = G(t) p from p.

    G(t) is the folded generator of op = `_structure_matrices(...)` at the
    rates lam(t), mu(t).  lam and mu hold the rates at half-step nodes, so
    step i runs from node 2i through node 2i+1 to node 2i+2, and the march
    makes (len(lam) - 1) // 2 steps.  Three CSR generators, for nodes 2i,
    2i+1 and 2i+2, share the pattern's indices and indptr; the one at node
    2i+2 becomes the next step's node 2i, so a step refreshes the values of
    two and makes four products G @ v.  The yielded state is a buffer that
    the next step overwrites; p itself is not written.  The caller may edit
    the yielded state in place, and the march continues from the edited
    state: `busy_oracle` zeroes entries below _STATE_FLOOR this way.
    """
    parts = op[1]
    g0, gh, g1 = (_generator(op, lam[0], mu[0]) for _ in range(3))
    p = p.copy()
    q = np.empty_like(p)
    for i in range((len(lam) - 1) // 2):
        np.dot((lam[2 * i + 1], mu[2 * i + 1]), parts, out=gh.data)
        np.dot((lam[2 * i + 2], mu[2 * i + 2]), parts, out=g1.data)
        k1 = g0 @ p
        np.multiply(k1, 0.5 * h, out=q)
        q += p
        k2 = gh @ q
        np.multiply(k2, 0.5 * h, out=q)
        q += p
        k3 = gh @ q
        np.multiply(k3, h, out=q)
        q += p
        k4 = g1 @ q
        # p + (h / 6) * (k1 + 2 k2 + 2 k3 + k4), summed left to right
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= h / 6.0
        p += k2
        yield p
        g0, g1 = g1, g0


def _averaged_stationary(op, spec: ModelSpec, level_cap: int) -> np.ndarray:
    """Stationary law of the period-averaged generator lam*S_arr + mu*S_srv,
    lam and mu the mean rates.

    The generator is level-tridiagonal, so linear level reduction from the
    cap down writes each level as a linear image of the one below,
    p_j = R_j p_{j-1}; the censored k x k system on the empty level then
    fixes p_0 up to scale and the levels follow upwards.  The blocks are
    sliced from the CSR and solved densely with numpy.
    """
    k, km = spec.k, spec.phase_count
    g = _generator(op, spec.arrival.mean(), spec.service.mean())
    edges = [0] + [k + j * km for j in range(level_cap + 1)]

    def block(i: int, j: int) -> np.ndarray:
        return g[edges[i]:edges[i + 1], edges[j]:edges[j + 1]].toarray()

    maps = {}
    diag = block(level_cap, level_cap)
    for j in range(level_cap, 0, -1):
        maps[j] = -np.linalg.solve(diag, block(j, j - 1))
        diag = block(j - 1, j - 1) + block(j - 1, j) @ maps[j]
    # the censored columns sum to zero; trade one equation for a scale
    diag[-1] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    parts = [np.linalg.solve(diag, rhs)]
    for j in range(1, level_cap + 1):
        parts.append(maps[j] @ parts[-1])
    p = np.concatenate(parts)
    return p / p.sum()


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class _Sampled:
    """Samples whose rows are the times grid[i] = i / grid_size of a period;
    grid_size and the read-only grid are read off the `idle` rows."""

    @property
    def grid_size(self) -> int:
        return len(self.idle)

    @cached_property
    def grid(self) -> np.ndarray:
        return _read_only(np.arange(self.grid_size) / self.grid_size)


@dataclass(frozen=True)
class PeriodicDistribution(_Sampled):
    """Periodic law of the truncated queue, sampled on a uniform grid.

    idle[i, a] is the probability of an empty system with arrival stage a at
    time grid[i]; levels[i, j-1, a*m+s] the probability of level j in phase
    (a, s), j up to level_cap = levels.shape[1].  `residual` is the sup-norm
    change between the last two plain periods and `periods` how many periods
    were integrated on this grid, after the start from the fixed points on
    the coarser grids of the solve's ladder, whose periods it does not count.

    Two trigonometric interpolants read the law between grid times, each
    built on first use, once per law.  The state interpolant holds every
    state's samples, k + level_cap * km columns (257 x 1,407 complex
    coefficients on the reference law), and serves `states_at`, `idle_at`
    and `levels_at`.  The stage interpolant holds the k idle states and the
    level_cap * m sums of each level's samples over arrival stage (257 x
    207 on the reference law), and serves `stage_sums_at`, which is all the
    oracle wait route reads.

    A law is immutable: the constructor copies idle and levels into
    read-only arrays, so an edit raises instead of disagreeing with the
    interpolants.
    """

    spec: ModelSpec
    idle: np.ndarray
    levels: np.ndarray
    periods: int
    residual: float

    def __post_init__(self):
        if len(self.idle) != len(self.levels):
            raise ValueError(f"idle has {len(self.idle)} grid rows, "
                             f"levels {len(self.levels)}")
        for name in ("idle", "levels"):
            arr = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, _read_only(arr))

    @property
    def level_cap(self) -> int:
        return self.levels.shape[1]

    @cached_property
    def _interp(self) -> TrigInterpolant:
        """Interpolant of every state's samples, built once per law."""
        return TrigInterpolant(np.concatenate(
            [self.idle, self.levels.reshape(self.grid_size, -1)], axis=1))

    def states_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), levels_at(u)) from one evaluation of the interpolant."""
        vals = self._interp(u)
        return (vals[:, :self.spec.k], vals[:, self.spec.k:].reshape(
            -1, self.level_cap, self.spec.phase_count))

    @cached_property
    def _stage_interp(self) -> TrigInterpolant:
        """Interpolant of the idle states and of the busy states summed over
        arrival stage, built once per law; the sums are taken of the samples."""
        by_stage = self.levels.reshape(self.grid_size, self.level_cap, self.spec.k,
                                       self.spec.m).sum(axis=2)
        return TrigInterpolant(np.concatenate(
            [self.idle, by_stage.reshape(self.grid_size, -1)], axis=1))

    def stage_sums_at(self, u) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), levels_at(u) summed over arrival stage), shapes
        (len(u), k) and (len(u), level_cap, m), from one evaluation of the
        stage interpolant; the sums agree with those of `levels_at` to
        rounding."""
        vals = self._stage_interp(u)
        return (vals[:, :self.spec.k],
                vals[:, self.spec.k:].reshape(-1, self.level_cap, self.spec.m))

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at arbitrary times, (len(u), k)."""
        return self.states_at(u)[0]

    def levels_at(self, u) -> np.ndarray:
        """Busy-level probabilities at arbitrary times, (len(u), cap, km)."""
        return self.states_at(u)[1]

    def cap_mass(self) -> float:
        """Largest probability seen at the truncation cap; a cap check."""
        return float(self.levels[:, -1].sum(axis=1).max())


def _half_step_rates(spec: ModelSpec, grid_size: int):
    """lam and mu at the half-step nodes i / (2 grid_size), i = 0..2 grid_size."""
    nodes = np.arange(2 * grid_size + 1) / (2.0 * grid_size)
    return spec.arrival.value(nodes), spec.service.value(nodes)


def _periodic_samples(op, spec: ModelSpec, grid_size: int, p: np.ndarray,
                      tol: float, max_periods: int):
    """(samples at the grid times, periods, last residual) of the fixed point
    on grid_size steps started at p, by the iteration and checks of
    `integrate_periodic`."""
    k, km, dim = spec.k, spec.phase_count, op[0].shape[0]
    lam, mu = _half_step_rates(spec, grid_size)
    h = 1.0 / grid_size
    samples = np.empty((grid_size, dim))
    prev = None  # samples of the plain period that ended where this one starts
    ends, moves = [], []  # Anderson history: Phi(x) and Phi(x) - x
    residual = np.inf

    for period in range(1, max_periods + 1):
        start = p
        samples[0] = p
        with np.errstate(over="ignore", invalid="ignore"):
            march = _rk4_march(op, lam, mu, h, p)
            for row in samples[1:]:
                row[:] = next(march)
            p = next(march)
        norm = np.abs(p).sum()
        if not norm <= 1.0 + _NORM_SLACK:
            raise RuntimeError(f"grid_size {grid_size} is too coarse for RK4 at "
                               f"these rates: a period ended with L1 norm "
                               f"{norm:.3e}; raise grid_size")
        if prev is not None:
            residual = float(np.abs(samples - prev).max())
            if residual <= tol:
                cap_mass = float(samples[:, -km:].sum(axis=1).max())
                if cap_mass > _CAP_MASS_LIMIT:
                    raise RuntimeError(f"probability {cap_mass:.3e} sits at the "
                                       f"level cap {(dim - k) // km}; raise level_cap")
                return samples, period, residual
        move = p - start
        if moves and np.linalg.norm(move) >= np.linalg.norm(moves[-1]):
            ends, moves = [], []
        ends = (ends + [p])[-(_ANDERSON_DEPTH + 1):]
        moves = (moves + [move])[-(_ANDERSON_DEPTH + 1):]
        if len(moves) == 1 or np.abs(move).max() <= _PLAIN_FRACTION * tol:
            prev = samples.copy()
            continue
        d_move = np.diff(np.array(moves), axis=0).T
        d_end = np.diff(np.array(ends), axis=0).T
        gamma = np.linalg.lstsq(d_move, move, rcond=None)[0]
        p = p - d_end @ gamma
        p = p / p.sum()
        prev = None

    raise RuntimeError(f"periodic regime not reached in {max_periods} periods "
                       f"on grid {grid_size} (last residual {residual:.3e}); "
                       f"raise max_periods or loosen tol")


def integrate_periodic(spec: ModelSpec, level_cap: int = 50, grid_size: int = 512,
                       tol: float = 1e-10, max_periods: int = 500) -> PeriodicDistribution:
    """Solve for the periodic regime of the truncated queue.

    The periodic law is the fixed point of the one-period map Phi (grid_size
    RK4 steps over one period), solved on a ladder of grids that share one
    structure operator: below grid N comes grid N // _COARSEN while that has
    at least _COARSE_MIN_GRID steps and its step times 2 max(lam + mu), over
    the half-step rates of grid N, is within _RK4_REAL_LIMIT.  The coarsest
    grid starts from the stationary law of the period-averaged generator,
    each finer one from the t = 0 state of the fixed point below it.  Every
    grid applies Anderson mixing of depth _ANDERSON_DEPTH to Phi,
    renormalizing each mixed start to mass 1 and restarting the mixing
    history whenever the period residual stops falling.  Once a period moves
    its start by at most _PLAIN_FRACTION * tol, the periods run plainly, each
    from where the last one ended, and the grid has converged when two
    consecutive plain periods, sampled at its grid points, differ by at most
    tol in sup norm.  The samples on grid_size are returned; `periods` counts
    every application of Phi on grid_size steps, mixed or plain, and none of
    the coarser grids'.  On every grid, RuntimeError is raised when
    max_periods periods are exhausted first (naming the grid), when a period
    ends non-finite or with an L1 norm past 1 + _NORM_SLACK (the grid is too
    coarse for RK4 at these rates; raise grid_size), or when the converged
    law puts more than _CAP_MASS_LIMIT = 1e-6 on the level cap at some grid
    time (raise level_cap).  tol must be > 0 and max_periods >= 1.
    """
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    if grid_size < 4:
        raise ValueError("grid_size must be >= 4")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    op = _structure_matrices(spec.k, spec.m, level_cap)
    ladder = [grid_size]
    while (coarse := ladder[-1] // _COARSEN) >= _COARSE_MIN_GRID:
        lam, mu = _half_step_rates(spec, ladder[-1])
        if coarse * _RK4_REAL_LIMIT < 2.0 * (lam + mu).max():
            break
        ladder.append(coarse)
    p = _averaged_stationary(op, spec, level_cap)
    for grid in reversed(ladder[1:]):
        # a copy, else the coarse samples live through the finer periods
        p = _periodic_samples(op, spec, grid, p, tol, max_periods)[0][0].copy()
    samples, periods, residual = _periodic_samples(op, spec, grid_size, p, tol,
                                                   max_periods)
    return PeriodicDistribution(
        spec=spec, idle=samples[:, :spec.k], periods=periods, residual=residual,
        levels=samples[:, spec.k:].reshape(grid_size, level_cap, spec.phase_count))


@dataclass(frozen=True)
class BoundaryFunctions(_Sampled):
    """The two boundary slices the series method needs, as smooth functions.

    idle[i] holds the k idle-state probabilities and first[i] the km level-1
    probabilities at time grid[i]; evaluation between grid points uses
    trigonometric interpolation, which reproduces the grid values exactly.

    A boundary is immutable: the constructor clips the slices at zero into
    fresh read-only arrays, so an edit raises instead of disagreeing with
    the interpolants and the values at the nodes of the series' period rule
    (`period_samples`), each computed on first use, once per boundary.
    """

    idle: np.ndarray
    first: np.ndarray

    def __post_init__(self):
        if len(self.idle) != len(self.first):
            raise ValueError(f"boundary slice idle has {len(self.idle)} grid rows, "
                             f"first {len(self.first)}")
        for name in ("idle", "first"):
            arr = getattr(self, name)
            if arr.min() < -1e-9:
                raise ValueError(f"boundary slice {name} is negative ({arr.min():.3e})")
            object.__setattr__(self, name, _read_only(np.maximum(arr, 0.0)))

    @cached_property
    def _idle_interp(self) -> TrigInterpolant:
        return TrigInterpolant(self.idle)

    @cached_property
    def _first_interp(self) -> TrigInterpolant:
        return TrigInterpolant(self.first)

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at times u, shape (len(u), k)."""
        return self._idle_interp(u)

    def first_at(self, u) -> np.ndarray:
        """Level-1 phase probabilities at times u, shape (len(u), km)."""
        return self._first_interp(u)

    @cached_property
    def period_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(idle_at(u), first_at(u)) at the nodes u of the series' period
        rule, `_quad.PERIOD_NODES`, read-only, computed once per boundary."""
        u = _quad.PERIOD_NODES
        return _read_only(self.idle_at(u)), _read_only(self.first_at(u))


def extract_boundary(dist: PeriodicDistribution) -> BoundaryFunctions:
    """Pull the idle and level-1 slices out of an integrated distribution."""
    return BoundaryFunctions(idle=dist.idle, first=dist.levels[:, 0])


def busy_oracle(spec: ModelSpec, level: int, phase, u: float = 0.0,
                horizon: float = 5.0, step: float = 1.0 / 512,
                level_cap: int = 40, substeps: int = 4) -> VolterraSolution:
    """Absorbing-ODE route: integrate the killed process and read the sinks.

    Records the sinks every `step` (rounded so that whole steps fill the
    horizon) after `substeps` RK4 steps each.  The level cap must be generous
    enough that essentially no probability visits it: the run aborts when
    more than 1e-10 sits at the cap at a record time, read as absolute mass.
    It also aborts when a record ends non-finite or with an L1 norm above
    1 + _NORM_SLACK: the step is too coarse for RK4 at these rates.

    After the checks of each record, every transient entry of the state
    (levels 1..level_cap; the sinks are never edited) with modulus below
    _STATE_FLOOR = 1e-280 is set to zero, so the subnormal band behind the
    mass front does not run through the RK4 stages.  A record removes less
    than (dim - k) * _STATE_FLOOR of mass, and the exact killed flow does
    not increase L1 mass, so the sinks move by at most n_rec * (dim - k) *
    _STATE_FLOOR over the run, below 3e-274 at the defaults (cap 40,
    horizon 5, step 1/512); on the reference model no value and no
    cap_mass moves at all.
    """
    if level < 1:
        raise ValueError("busy period starts at level >= 1")
    if level > level_cap // 2:
        raise ValueError("level_cap should comfortably exceed the start level")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    n_rec = int(round(horizon / step))
    if n_rec < 1:
        raise ValueError("horizon must cover at least one step")
    q0 = _normalize_phase(spec, phase)
    k, km = spec.k, spec.phase_count
    h = (horizon / n_rec) / substeps
    op = _structure_matrices(k, spec.m, level_cap, absorbing=True)
    dim = op[0].shape[0]

    total_steps = n_rec * substeps
    nodes = u + (horizon / total_steps) * 0.5 * np.arange(2 * total_steps + 1)
    lam, mu = spec.arrival.value(nodes), spec.service.value(nodes)

    # the k sinks come first, then levels 1..level_cap
    p = np.zeros(dim)
    p[k + (level - 1) * km + q0] = 1.0
    values = np.zeros((n_rec + 1, k))
    cap_slice = slice(k + (level_cap - 1) * km, dim)
    cap_mass = 0.0

    with np.errstate(over="ignore", invalid="ignore"):
        march = _rk4_march(op, lam, mu, h, p)
        for rec in range(1, n_rec + 1):
            for _ in range(substeps):
                p = next(march)
            mass = np.abs(p)
            norm = mass.sum()
            if not norm <= 1.0 + _NORM_SLACK:
                raise RuntimeError(
                    f"step {step} with substeps {substeps} is too coarse for "
                    f"RK4 at these rates: a record ended with L1 norm "
                    f"{norm:.3e}; lower step or raise substeps")
            values[rec] = p[:k]
            cap_mass = max(cap_mass, float(mass[cap_slice].sum()))
            if cap_mass > 1e-10:
                raise RuntimeError(
                    f"probability {cap_mass:.3e} reached the level cap "
                    f"{level_cap}; raise level_cap")
            p[k:][mass[k:] < _STATE_FLOOR] = 0.0

    return VolterraSolution(
        level=level, phase=q0, u=float(u), step=horizon / n_rec,
        times=u + (horizon / n_rec) * np.arange(n_rec + 1),
        values=values, source="ode", cap_mass=cap_mass,
    )
