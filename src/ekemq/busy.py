"""Busy-period distribution: first passage of the level process to empty.

Strip the empty-system boundary and the phase process at net level change n
over a window [u, t] factors into two Poisson stage streams; its transition
weight is the matrix

    F_n(u, t) = sum over completed cycles A - D = n of  P_A kron P_D,
    P_A[a1, a2] = pmf(Poisson(Lam), A k + a2 - a1),
    P_D[s1, s2] = pmf(Poisson(M),  D m + s2 - s1),

with Lam, M the cumulative rates.  Killing the process at its first visit to
the empty level and matching the z**0 coefficient of the resulting
generating-function identity leaves a Volterra equation of the second kind
for the absorption-rate row X(t) (which lives on fresh-service columns,
s = 0):

    X(t) = g'(t) - integral over nu in [u, t] of  X(nu) K(nu, t) d nu,
    K(nu, t)  = F_1(nu, t) down(t) + F_0(nu, t) local(t) + F_-1(nu, t) up(t),
    g'(t) = start_row [ F_{1-j}(u, t) down(t) + F_{-j}(u, t) local(t)
                        + F_{-1-j}(u, t) up(t) ],

where up/local/down are the generator blocks and j the starting level.  The
kernel satisfies K(t, t) = local(t), so a product-trapezoid discretization
with the diagonal term kept implicit is stable and second-order accurate.
The kernel is never materialized.  Once the boundary is stripped the
weights form a semigroup (Poisson(a) * Poisson(b) = Poisson(a + b)), and in
absolute levels the forcing and the history both read levels 1, 0 and -1,
so forcing minus history at step i is one lattice state:

    Z_0 = unit mass at level j, stage (a1, s1),
    Z_i = (Z_{i-1} - h w_{i-1} X(t_{i-1}) at level 0, service stage 0)
          * F(t_{i-1}, t_i),

w the trapezoid weights.  A step is two 1-D convolutions with the Poisson
pmfs of its stage means, arrivals along the index L k + a and services
along (-L) m + s, so it costs O(lattice), not O(i).  The lattice spans
levels -1 - A to max(j, 1 + D), with A and D the horizon's arrival and
service cycle counts at tails below 1e-16: mass below it cannot climb back
to level -1 within the horizon, nor mass above it come down to level 1, so
it is dropped.

Each convolution is one GEMM.  The pmf taps of every step come from the
ratio recurrence before the march, each row cut once past its mean where
a tap falls below 1e-18 of the head; b + 1 is the longest row.  Each
stream's layout stores its sequences in blocks of b behind one zero block,
so block q of the output reads only input blocks q - 1 and q: the
(rows, 2b) window matrix of block pairs times the (2b, b) block Toeplitz
[T1 T0]^T of the step's taps, written straight into the other stream's
layout.  The implicit solve needs no factorization:

    I + h/2 local^T = d (I + alpha X + beta Y),
    d = 1 - h (lam + mu)/2,  alpha = h lam / 2d,  beta = h mu / 2d,

with X = kron(N_k^T, I) and Y = kron(I, N_m^T) commuting nilpotents, so
its inverse is the finite, exact Neumann series

    (1/d) sum over p < k, q < m of (-alpha)^p (-beta)^q C(p + q, p) X^p Y^q,

a causal kernel on the (a, s) grid tabulated for all steps at once.  The
forcing-minus-history rows at levels -1..1 meet the generator blocks in one
constant matrix, so a step is a handful of BLAS-sized calls.

The absorbing-ODE route is `oracle.busy_oracle`, which integrates the
killed process on the levels its horizon can reach.  This module
imports nothing from `oracle`, and the oracle reads only the result type
`VolterraSolution` from here, so the two routes share no code path; they
must agree and tests enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelSpec, _as_index, _normalize_phase, _stage_blocks

# The lattice's cycle counts are cut this many standard deviations past the
# Poisson mean (plus a floor for tiny means); the mass beyond is below 1e-16.
_TAIL_SIGMAS = 12.0
_TAIL_FLOOR = 35.0


def _table_width(mean: float) -> int:
    return int(math.ceil(mean + _TAIL_SIGMAS * math.sqrt(mean) + _TAIL_FLOOR))


def _unit_blocks(spec: ModelSpec):
    """Constant factors of the busy-level generator blocks.

    up(t) = lam(t)*U, local(t) = lam(t)*LA + mu(t)*LS, down(t) = mu(t)*D.
    """
    k, m = spec.k, spec.m
    eye_k, eye_m = np.eye(k), np.eye(m)
    arr_local, arr_done = _stage_blocks(k, 1.0)
    srv_local, srv_done = _stage_blocks(m, 1.0)
    return (
        np.kron(arr_done, eye_m),                   # U
        np.kron(arr_local, eye_m),                  # LA
        np.kron(eye_k, srv_local),                  # LS
        np.kron(eye_k, srv_done),                   # D
    )


def _poisson_taps(means: np.ndarray) -> np.ndarray:
    """pmf(Poisson(means[i]), x) for x = 0..b, one row per mean, by the
    ratio recurrence, shape (len(means), b + 2).

    Row i is cut once past means[i] where a tap falls below 1e-18 of its
    head and is zero past its cut; b + 1 is the longest row, so the last
    column is zero throughout.
    """
    head = np.exp(-means)
    if not head.all():
        raise RuntimeError("Volterra march: the step is too coarse for these "
                           "rates")
    cols = [head]
    growing = np.ones(len(means), dtype=bool)
    while growing.any():
        growing &= (len(cols) <= means) | (cols[-1] >= 1e-18 * head)
        cols.append(np.where(growing, cols[-1] * means / len(cols), 0.0))
    return np.stack(cols, axis=1)


class _BlockedLayout:
    """`channels` sequences of `length` lattice entries in blocks of b
    behind one zero block, so that convolving them all with a `_poisson_taps`
    row of width b + 2, dropping what runs off the end, is one GEMM: row
    (c, q) of the window matrix holds blocks q - 1 and q of sequence c.
    `seq` and `out` are (channels, length) views of the sequences and of
    the last carry's result.
    """

    def __init__(self, channels: int, length: int, b: int):
        blocks = -(-length // b)
        data = np.zeros((channels, (blocks + 1) * b))
        self.seq = data[:, b:b + length]
        row, col = data.strides
        self._window = np.lib.stride_tricks.as_strided(
            data, shape=(channels, blocks, 2 * b), strides=(row, b * col, col))
        self._rows = np.empty((channels * blocks, 2 * b))
        self._rows_3d = self._rows.reshape(channels, blocks, 2 * b)
        self._out = np.empty((channels * blocks, b))
        self.out = self._out.reshape(channels, blocks * b)[:, :length]
        # T[c, r] = taps[b + r - c], or the zero column b + 1 outside 0..b
        lag = b + np.arange(b)[None, :] - np.arange(2 * b)[:, None]
        self._toeplitz = np.where((lag >= 0) & (lag <= b), lag, b + 1)

    def carry(self, taps: np.ndarray) -> np.ndarray:
        """Convolve every sequence with one `_poisson_taps` row into `out`,
        which is returned."""
        np.copyto(self._rows_3d, self._window)
        np.matmul(self._rows, taps[self._toeplitz], out=self._out)
        return self.out


def _inverse_kernels(k: int, m: int, h: float, lam: np.ndarray,
                     mu: np.ndarray) -> np.ndarray:
    """The exact Neumann series of the module docstring for the inverse of
    I + h/2 local(t)^T at each rate pair, shape (len(lam), k m + 1).

    X^p Y^q shifts (a, s) by (p, q), so each term is one entry of a causal
    kernel on the (a, s) grid, flattened at p m + q.  The last column is a
    zero for `_causal_index` to read.
    """
    d = 1.0 - 0.5 * h * (lam + mu)
    binom = np.array([[math.comb(p + q, p) for q in range(m)]
                      for p in range(k)], dtype=float)
    kern = np.zeros((len(lam), k * m + 1))
    grid = kern[:, :-1].reshape(len(lam), k, m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        arr = (-0.5 * h * lam / d)[:, None] ** np.arange(k)
        srv = (-0.5 * h * mu / d)[:, None] ** np.arange(m)
        np.multiply(arr[:, :, None], srv[:, None, :], out=grid)
        grid *= binom
        grid /= d[:, None, None]
    return kern


def _causal_index(k: int, m: int) -> np.ndarray:
    """Index into a `_inverse_kernels` row that gives R = (I + h/2 local)^-1,
    so x R solves (I + h/2 local^T) y = x: R[(a', s'), (a, s)] is the
    kernel at (a - a', s - s'), or the row's trailing zero where either
    shift is negative."""
    a, s = np.divmod(np.arange(k * m), m)
    da = a[None, :] - a[:, None]
    ds = s[None, :] - s[:, None]
    return np.where((da >= 0) & (ds >= 0), da * m + ds, k * m)


@dataclass(frozen=True, eq=False)
class VolterraSolution:
    """Busy-period CDF started at (level, phase) at time u.

    values[i, a] is the probability that the system has emptied by times[i]
    with arrival stage a at that moment; sum over a for the plain CDF.
    off_support tracks how much of the computed absorption row leaked off
    the fresh-service columns (a pure discretization diagnostic).  The
    oracle route marches levels 1..solved_levels of its truncated system
    (None for the Volterra route), and cap_mass is the largest probability
    on its top level, solved_levels, at a record (0 for the Volterra route).
    reach_bound is the a-priori bound on that probability by which the
    oracle chose solved_levels, e^-Lambda (e Lambda / n*)^n* (see
    `oracle.busy_oracle`); None for the Volterra route and where the
    oracle's level_cap bound the march instead.
    error_estimate is max over times of |fine - coarse| / 3 of the totals of
    the two marches behind a refined Volterra solution: the Richardson
    estimate of the raw march's error at half the step.  It is not an error
    bar for the refined values, which are usually orders of magnitude closer
    (M/M/1 at step 0.01: estimate 3.9e-4, refined error 6.5e-7).  It is None
    for raw marches and the oracle.  Solutions compare and hash by
    identity, as their arrays have no single truth value.
    """

    level: int
    phase: int
    u: float
    step: float
    times: np.ndarray
    values: np.ndarray
    source: str
    off_support: float = 0.0
    cap_mass: float = 0.0
    error_estimate: float | None = None
    solved_levels: int | None = None
    reach_bound: float | None = None

    def total(self) -> np.ndarray:
        return self.values.sum(axis=1)


def busy_period_cdf(spec: ModelSpec, level: int, phase, u: float = 0.0,
                    horizon: float = 5.0, step: float = 1.0 / 512,
                    refine: bool = True) -> VolterraSolution:
    """Volterra route to the busy-period CDF.

    Product-trapezoid march with the diagonal kernel block implicit; the
    absorption density is accumulated into a CDF on the same grid.  With
    refine=True (the default) a second march at half the step sharpens the
    values by Richardson extrapolation of the second-order scheme; the
    reported grid stays at `step`, and the difference between the two
    marches is kept as `error_estimate`.  refine=False exposes the raw march,
    which is what step-halving order studies should use.  Raises
    RuntimeError when the march leaves [0, 1] by more than rounding allows,
    the symptom of too coarse a step.
    """
    if refine:
        coarse = _volterra_march(spec, level, phase, u, horizon, step)
        # half the coarse march's own step: halving `step` itself puts the
        # fine grid on other times when `step` does not divide `horizon`
        fine = _volterra_march(spec, level, phase, u, horizon, coarse.step / 2)
        values = (4.0 * fine.values[::2] - coarse.values) / 3.0
        gap = np.abs(fine.total()[::2] - coarse.total()).max()
        return VolterraSolution(
            level=coarse.level, phase=coarse.phase, u=coarse.u,
            step=coarse.step, times=coarse.times, values=values,
            source="volterra", off_support=fine.off_support,
            error_estimate=float(gap / 3.0),
        )
    return _volterra_march(spec, level, phase, u, horizon, step)


def _volterra_march(spec: ModelSpec, level: int, phase, u: float,
                    horizon: float, step: float) -> VolterraSolution:
    level = _as_index(level, "level")
    if level < 1:
        raise ValueError("busy period starts at level >= 1")
    for name, value in (("u", u), ("horizon", horizon), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    q0 = _normalize_phase(spec, phase)
    n_steps = int(round(horizon / step))
    if n_steps < 2:
        raise ValueError("horizon must cover at least two steps")
    h = horizon / n_steps
    times = u + h * np.arange(n_steps + 1)
    dens = _absorption_rows(spec, level, q0, times, h)
    if not np.isfinite(dens).all():
        raise RuntimeError(
            "Volterra march is not finite; the step is too coarse for these "
            "rates"
        )

    k, m = spec.k, spec.m
    on_support = dens.reshape(-1, k, m)[:, :, 0]
    off_support = float(np.abs(dens.reshape(-1, k, m)[:, :, 1:]).max()) if m > 1 else 0.0
    increments = 0.5 * h * (on_support[1:] + on_support[:-1])
    values = np.vstack([np.zeros((1, k)), np.cumsum(increments, axis=0)])

    total = values.sum(axis=1)
    if total.min() < -1e-2 or total.max() > 1.01:
        raise RuntimeError(
            "Volterra march left [0, 1]; the step is too coarse for these rates"
        )
    return VolterraSolution(
        level=level, phase=q0, u=float(u), step=h, times=times,
        values=values, source="volterra", off_support=off_support,
    )


def _absorption_rows(spec: ModelSpec, level: int, q0: int, times: np.ndarray,
                     h: float) -> np.ndarray:
    """Absorption-rate rows X(t_i) of the product-trapezoid march on the
    grid `times` of step h, started at `level` in phase q0, (len(times), km).
    The march's tables are freed on return."""
    a1, s1 = divmod(q0, spec.m)
    k, m = spec.k, spec.m
    km = k * m
    n_steps = len(times) - 1

    lam = spec.arrival.value(times)
    mu = spec.service.value(times)
    acc_a = spec.arrival.accumulated(times)
    acc_d = spec.service.accumulated(times)
    # the free process on levels bottom..top; mass outside cannot return to
    # levels -1..1 within the horizon
    bottom = -1 - (_table_width(acc_a[-1] - acc_a[0]) // k + 1)
    top = max(level, 1 + _table_width(acc_d[-1] - acc_d[0]) // m + 1)
    span = top - bottom + 1
    inverse = _inverse_kernels(k, m, h, lam, mu)
    # arrivals move the index L k + a (one sequence per service stage),
    # services the index (top - L) m + s (one per arrival stage); each carry
    # writes its output into the other stream's layout
    taps_a = _poisson_taps(np.diff(acc_a))
    taps_d = _poisson_taps(np.diff(acc_d))
    arr = _BlockedLayout(m, span * k, taps_a.shape[1] - 2)
    srv = _BlockedLayout(k, span * m, taps_d.shape[1] - 2)
    arr_to_srv = srv.seq.reshape(k, span, m)[:, ::-1]
    srv_to_arr = arr.seq.reshape(m, span, k)[:, ::-1]
    arr_out = arr.out.reshape(m, span, k).transpose(2, 1, 0)
    srv_out = srv.out.reshape(k, span, m).transpose(2, 1, 0)
    arr.seq[s1, (level - bottom) * k + a1] = 1.0
    # the last history term joins at level 0, fresh service
    inject = arr.seq[0, -bottom * k:(1 - bottom) * k]
    slab = arr.seq[:, (-1 - bottom) * k:(2 - bottom) * k]

    # forcing minus history on levels -1..1, slab order (s, level, a), maps
    # to [lam part, mu part] of the row before the implicit solve:
    # lam (row_0 LA + row_-1 U) + mu (row_1 D + row_0 LS)
    blk_u, blk_la, blk_ls, blk_d = _unit_blocks(spec)
    zero = np.zeros((km, km))
    natural = np.block([[blk_u, zero], [blk_la, blk_ls], [zero, blk_d]])
    s_idx, lvl, a_idx = np.indices((m, 3, k)).reshape(3, -1)
    to_rhs = natural[lvl * km + a_idx * m + s_idx]
    rates = np.column_stack([lam, mu])
    causal = _causal_index(k, m)
    weights = np.full(n_steps, h)
    weights[0] = 0.5 * h

    dens = np.zeros((n_steps + 1, km))
    # a singular implicit matrix (d = 0) makes the rows non-finite, which
    # the caller reports as too coarse a step
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_steps + 1):
            if i:
                inject -= weights[i - 1] * dens[i - 1, ::m]
                arr.carry(taps_a[i - 1])
                np.copyto(arr_to_srv, arr_out)
                srv.carry(taps_d[i - 1])
                np.copyto(srv_to_arr, srv_out)
            rhs = rates[i] @ (slab.reshape(-1) @ to_rhs).reshape(2, km)
            dens[i] = rhs @ inverse[i][causal] if i else rhs
    return dens
