"""Reference route: direct integration of the truncated level process.

The queue is truncated at a finite level cap; arrivals that would push the
chain above the cap are blocked (the blocked stage simply freezes, keeping
the generator conservative).  The resulting linear ODE

    p'(t) = lam(t) * p(t) S_arr + mu(t) * p(t) S_srv

is driven with classical fourth-order Runge-Kutta steps aligned to a fixed
output grid.  The two constant structure matrices S_arr and S_srv carry
unit rates and are stacked into one sparse operator, so each RK stage is a
single sparse product and the time dependence sits entirely in two
scalars; no matrix is rebuilt inside the stepping loop.

The periodic law is the fixed point of the one-period map Phi, and it is
solved as one (periodic steady-state shooting, Aprille & Trick, Proc. IEEE
1972): the solve starts from the stationary law of the period-averaged
generator, found by linear level reduction from the cap down, and
accelerates the period map with Anderson mixing (Walker & Ni, SIAM J.
Numer. Anal. 2011).  It stops only when two consecutive plain periods,
sampled on the grid, agree to the tolerance.

The same truncated system, with the empty level absorbing instead of
reflecting, is the busy-period oracle: in the periodic system an arrival
moves an empty state to the next arrival stage or starts level 1, while in
the killed system the k empty states have no exits and count absorption by
arrival stage.  `_structure_matrices` builds both and `_rk4_step` steps
both; `busy.busy_oracle` is the second caller.

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
from .model import ModelSpec

# The periodic solve mixes the last _ANDERSON_DEPTH period residual
# differences, and runs plain periods once a period moves its start by at
# most _PLAIN_FRACTION * tol, so that the plain check of two consecutive
# periods usually passes at once and the fixed point is resolved below tol.
_ANDERSON_DEPTH = 8
_PLAIN_FRACTION = 0.1

_CAP_MASS_LIMIT = 1e-6


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
    """Unit-rate generator structure, split into arrival and service parts.

    State order: k empty states (arrival stage a), then levels 1..level_cap
    with km phases each, phase (a, s) flattened as a*m + s.  Returned as one
    stacked (2*dim, dim) CSR operator [AT; MT] of the transposed parts, so
    that y = op @ p gives rhs = lam * y[:dim] + mu * y[dim:].
    With absorbing=True the empty states keep no arrival exits: they are the
    sinks of the process killed at its first visit to the empty level.
    """
    km = k * m
    dim = k + level_cap * km

    def busy(j: int, a: int, s: int) -> int:
        return k + (j - 1) * km + a * m + s

    arr_r, arr_c, arr_v = [], [], []
    srv_r, srv_c, srv_v = [], [], []

    def put(rows, cols, vals, i, j, v):
        rows.append(i)
        cols.append(j)
        vals.append(v)

    # an arrival to an empty state advances its stage or starts level 1;
    # the killed process has ended there, so its empty states have no exits
    for a in range(0 if absorbing else k):
        put(arr_r, arr_c, arr_v, a, a, -1.0)
        if a < k - 1:
            put(arr_r, arr_c, arr_v, a, a + 1, 1.0)
        else:
            put(arr_r, arr_c, arr_v, a, busy(1, 0, 0), 1.0)

    for j in range(1, level_cap + 1):
        for a in range(k):
            for s in range(m):
                x = busy(j, a, s)
                # arrival stages; the final stage at the cap is blocked
                if a < k - 1:
                    put(arr_r, arr_c, arr_v, x, x, -1.0)
                    put(arr_r, arr_c, arr_v, x, busy(j, a + 1, s), 1.0)
                elif j < level_cap:
                    put(arr_r, arr_c, arr_v, x, x, -1.0)
                    put(arr_r, arr_c, arr_v, x, busy(j + 1, 0, s), 1.0)
                # service stages
                put(srv_r, srv_c, srv_v, x, x, -1.0)
                if s < m - 1:
                    put(srv_r, srv_c, srv_v, x, busy(j, a, s + 1), 1.0)
                elif j > 1:
                    put(srv_r, srv_c, srv_v, x, busy(j - 1, a, 0), 1.0)
                else:
                    put(srv_r, srv_c, srv_v, x, a, 1.0)

    s_arr = sp.csr_matrix((arr_v, (arr_r, arr_c)), shape=(dim, dim))
    s_srv = sp.csr_matrix((srv_v, (srv_r, srv_c)), shape=(dim, dim))
    return sp.vstack([s_arr.T.tocsr(), s_srv.T.tocsr()], format="csr")


def _rk4_step(op, p: np.ndarray, h: float, lam: np.ndarray,
              mu: np.ndarray, i: int) -> np.ndarray:
    """One classical RK4 step of p' = lam(t) * (AT @ p) + mu(t) * (MT @ p).

    op is the stacked operator of `_structure_matrices`, so each stage is
    one sparse product whose halves are AT @ p and MT @ p.  lam and mu hold
    the rates at half-step nodes, so step i runs from node 2i through node
    2i+1 to node 2i+2.
    """
    dim = p.shape[0]
    l0, lh, l1 = lam[2 * i], lam[2 * i + 1], lam[2 * i + 2]
    m0, mh, m1 = mu[2 * i], mu[2 * i + 1], mu[2 * i + 2]
    y = op @ p
    k1 = l0 * y[:dim] + m0 * y[dim:]
    y = op @ (p + (0.5 * h) * k1)
    k2 = lh * y[:dim] + mh * y[dim:]
    y = op @ (p + (0.5 * h) * k2)
    k3 = lh * y[:dim] + mh * y[dim:]
    y = op @ (p + h * k3)
    k4 = l1 * y[:dim] + m1 * y[dim:]
    return p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    dim = op.shape[1]
    g = (spec.arrival.mean() * op[:dim] + spec.service.mean() * op[dim:]).tocsr()
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
    were integrated in all.

    A law is immutable: the constructor copies idle and levels into
    read-only arrays, so an edit raises instead of disagreeing with the
    interpolant that `idle_at` and `levels_at` build once per law.
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

    def idle_at(self, u) -> np.ndarray:
        """Idle-state probabilities at arbitrary times, (len(u), k)."""
        return self._interp(u)[:, : self.spec.k]

    def levels_at(self, u) -> np.ndarray:
        """Busy-level probabilities at arbitrary times, (len(u), cap, km)."""
        vals = self._interp(u)[:, self.spec.k:]
        return vals.reshape(-1, self.level_cap, self.spec.phase_count)

    def cap_mass(self) -> float:
        """Largest probability seen at the truncation cap; a cap check."""
        return float(self.levels[:, -1].sum(axis=1).max())


def integrate_periodic(spec: ModelSpec, level_cap: int = 50, grid_size: int = 512,
                       tol: float = 1e-10, max_periods: int = 500) -> PeriodicDistribution:
    """Solve for the periodic regime of the truncated queue.

    The periodic law is the fixed point of the one-period map Phi (grid_size
    RK4 steps over one period).  The solve starts from the stationary law of
    the period-averaged generator and applies Anderson mixing of depth
    _ANDERSON_DEPTH to Phi, renormalizing each mixed start to mass 1 and
    restarting the mixing history whenever the period residual stops
    falling.  Once a period moves its start by at most _PLAIN_FRACTION * tol,
    the following periods run plainly, each from where the last one ended;
    convergence is declared when two consecutive plain periods, sampled at
    the grid points, differ by at most tol in sup norm, and those samples
    are returned.  `periods` counts every application of Phi, mixed or
    plain, and RuntimeError is raised when max_periods of them are
    exhausted first, or when the converged law puts more than
    _CAP_MASS_LIMIT = 1e-6 on the level cap at some grid time (raise
    level_cap).  tol must be > 0 and max_periods >= 1.
    """
    if level_cap < 1:
        raise ValueError("level_cap must be >= 1")
    if grid_size < 4:
        raise ValueError("grid_size must be >= 4")
    if not tol > 0.0:
        raise ValueError(f"tol must be > 0, got {tol}")
    if max_periods < 1:
        raise ValueError("max_periods must be >= 1")
    k, km = spec.k, spec.phase_count
    dim = k + level_cap * km
    op = _structure_matrices(spec.k, spec.m, level_cap)

    half_nodes = np.arange(2 * grid_size + 1) / (2.0 * grid_size)
    lam = spec.arrival.value(half_nodes)
    mu = spec.service.value(half_nodes)

    h = 1.0 / grid_size
    p = _averaged_stationary(op, spec, level_cap)
    samples = np.empty((grid_size, dim))
    prev = None  # samples of the plain period that ended where this one starts
    ends, moves = [], []  # Anderson history: Phi(x) and Phi(x) - x
    residual = np.inf

    for period in range(1, max_periods + 1):
        start = p
        for i in range(grid_size):
            samples[i] = p
            p = _rk4_step(op, p, h, lam, mu, i)
        if prev is not None:
            residual = float(np.abs(samples - prev).max())
            if residual <= tol:
                dist = PeriodicDistribution(
                    spec=spec,
                    idle=samples[:, :k],
                    levels=samples[:, k:].reshape(grid_size, level_cap, km),
                    periods=period,
                    residual=residual,
                )
                if dist.cap_mass() > _CAP_MASS_LIMIT:
                    raise RuntimeError(f"probability {dist.cap_mass():.3e} sits at "
                                       f"the level cap {level_cap}; raise level_cap")
                return dist
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

    raise RuntimeError(
        f"periodic regime not reached in {max_periods} periods "
        f"(last residual {residual:.3e}); raise max_periods or loosen tol"
    )


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
