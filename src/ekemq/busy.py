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

`busy_oracle` integrates the killed process directly: the periodic oracle's
truncated system (levels truncated high) with the empty level made
absorbing, so its k empty states count absorption by arrival stage.  It
reuses the periodic oracle's structure builder and RK4 step
(`oracle._structure_matrices`, `oracle._rk4_step`) and shares no code path
with the Volterra route, which imports nothing from `oracle`; the two must
agree and tests enforce it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .model import ModelSpec, _stage_blocks
from .oracle import _rk4_step, _structure_matrices

# Poisson pmf tables are cut this many standard deviations past the mean
# (plus a floor for tiny means); entries beyond are below 1e-16 of the mass.
_TAIL_SIGMAS = 12.0
_TAIL_FLOOR = 35.0


def _table_width(mean: float) -> int:
    return int(math.ceil(mean + _TAIL_SIGMAS * math.sqrt(mean) + _TAIL_FLOOR))


def _poisson_table(means: np.ndarray, width: int) -> np.ndarray:
    """pmf(Poisson(means[i]), x) for x = 0..width-1, shape (len(means), width).

    Log-space keeps large means stable; means equal to zero reduce to the
    unit mass at x = 0.
    """
    counts = np.arange(width, dtype=float)
    log_fact = gammaln(counts + 1.0)
    means = np.asarray(means, dtype=float)[:, None]
    safe = np.maximum(means, 1e-300)
    with np.errstate(under="ignore"):
        return np.exp(counts[None, :] * np.log(safe) - means - log_fact[None, :])


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


def net_change_matrix(spec: ModelSpec, u: float, t: float, n: int) -> np.ndarray:
    """Free-process transition weights at net level change n, (km, km).

    The literal sum F_n = sum over A - D = n of P_A kron P_D, with cycle
    counts cut where the pmf tables end.  Each Toeplitz block is indexed from
    a pmf row padded with k - 1 (m - 1) leading zeros, which supply the zero
    weights of negative stage counts.
    """
    lam_cum = float(spec.arrival.cumulative(u, t))
    mu_cum = float(spec.service.cumulative(u, t))
    k, m = spec.k, spec.m
    a_max = _table_width(lam_cum) // k + 1
    d_max = _table_width(mu_cum) // m + 1
    pa = _poisson_table(np.array([lam_cum]), a_max * k + k)[0]
    pd = _poisson_table(np.array([mu_cum]), d_max * m + m)[0]
    # P_A[a1, a2] = pa[A k + a2 - a1] is read at A k + (a2 - a1 + k - 1)
    # from the padded row, likewise P_D
    pa = np.pad(pa, (k - 1, 0))
    pd = np.pad(pd, (m - 1, 0))
    da = np.arange(k)[None, :] - np.arange(k)[:, None] + k - 1
    ds = np.arange(m)[None, :] - np.arange(m)[:, None] + m - 1
    out = np.zeros((k * m, k * m))
    for a_cnt in range(max(0, n), min(a_max, d_max + n) + 1):
        out += np.kron(pa[a_cnt * k + da], pd[(a_cnt - n) * m + ds])
    return out


def _carry(z: np.ndarray, mean: float) -> np.ndarray:
    """Convolve the columns of z with the pmf of Poisson(mean), dropping
    what runs off the end.

    The pmf comes from the ratio recurrence, cut once past the mean where a
    tap falls below 1e-18 of the head.
    """
    taps = [math.exp(-mean)]
    if not taps[0]:
        raise RuntimeError("Volterra march: the step is too coarse for these "
                           "rates")
    while len(taps) <= mean or taps[-1] >= 1e-18 * taps[0]:
        taps.append(taps[-1] * mean / len(taps))
    out = taps[0] * z
    for x in range(1, len(taps)):
        out[x:] += taps[x] * z[:-x]
    return out


def _normalize_phase(spec: ModelSpec, phase) -> int:
    if isinstance(phase, tuple):
        a, s = phase
        if not (0 <= a < spec.k and 0 <= s < spec.m):
            raise ValueError("start phase out of range")
        return a * spec.m + s
    phase = int(phase)
    if not 0 <= phase < spec.phase_count:
        raise ValueError("start phase out of range")
    return phase


@dataclass(frozen=True)
class VolterraSolution:
    """Busy-period CDF started at (level, phase) at time u.

    values[i, a] is the probability that the system has emptied by times[i]
    with arrival stage a at that moment; sum over a for the plain CDF.
    off_support tracks how much of the computed absorption row leaked off
    the fresh-service columns (a pure discretization diagnostic), cap_mass
    the probability parked at the truncation cap (oracle route only).
    error_estimate is max over times of |fine - coarse| / 3 of the totals of
    the two marches behind a refined Volterra solution: the Richardson
    estimate of the raw march's error at half the step.  It is not an error
    bar for the refined values, which are usually orders of magnitude closer
    (M/M/1 at step 0.01: estimate 3.9e-4, refined error 6.5e-7).  It is None
    for raw marches and the oracle.
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
    if level < 1:
        raise ValueError("busy period starts at level >= 1")
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    q0 = _normalize_phase(spec, phase)
    a1, s1 = divmod(q0, spec.m)
    k, m = spec.k, spec.m
    km = k * m
    n_steps = int(round(horizon / step))
    if n_steps < 2:
        raise ValueError("horizon must cover at least two steps")
    h = horizon / n_steps
    times = u + h * np.arange(n_steps + 1)

    lam = spec.arrival.value(times)
    mu = spec.service.value(times)
    acc_a = spec.arrival.accumulated(times)
    acc_d = spec.service.accumulated(times)
    blk_u, blk_la, blk_ls, blk_d = _unit_blocks(spec)
    # the free process on levels bottom..top; mass outside cannot return to
    # levels -1..1 within the horizon
    bottom = -1 - (_table_width(acc_a[-1] - acc_a[0]) // k + 1)
    top = max(level, 1 + _table_width(acc_d[-1] - acc_d[0]) // m + 1)
    z = np.zeros((top - bottom + 1, k, m))
    z[level - bottom, a1, s1] = 1.0

    dens = np.zeros((n_steps + 1, km))
    eye = np.eye(km)
    for i in range(n_steps + 1):
        if i:
            # the last history term joins at level 0, fresh service; the
            # trapezoid weight is a half at the start point
            z[-bottom, :, 0] -= h * dens[i - 1, ::m] * (0.5 if i == 1 else 1.0)
            # arrivals move the index L k + a, services (-L) m + s
            z = _carry(z.reshape(-1, m), acc_a[i] - acc_a[i - 1])
            z = z.reshape(-1, k, m)[::-1].transpose(0, 2, 1).reshape(-1, k)
            z = _carry(z, acc_d[i] - acc_d[i - 1])
            z = z.reshape(-1, m, k)[::-1].transpose(0, 2, 1)
        # forcing minus history at levels 1, 0 and -1, before the kernel's
        # generator blocks
        rows = [z[lvl - bottom].reshape(km) for lvl in (1, 0, -1)]
        local_i = lam[i] * blk_la + mu[i] * blk_ls
        rhs = (mu[i] * (rows[0] @ blk_d) + rows[1] @ local_i
               + lam[i] * (rows[2] @ blk_u))
        dens[i] = np.linalg.solve(eye + (0.5 * h) * local_i.T, rhs) if i else rhs

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


def busy_oracle(spec: ModelSpec, level: int, phase, u: float = 0.0,
                horizon: float = 5.0, step: float = 1.0 / 512,
                level_cap: int = 40, substeps: int = 4) -> VolterraSolution:
    """Absorbing-ODE route: integrate the killed process and read the sinks.

    Records the sinks every `step` (rounded so that whole steps fill the
    horizon) after `substeps` RK4 steps each.  The level cap must be generous
    enough that essentially no probability visits it; the run aborts when
    more than 1e-10 ever sits at the cap.
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
    k, m = spec.k, spec.m
    km = k * m
    h = (horizon / n_rec) / substeps
    op = _structure_matrices(k, m, level_cap, absorbing=True)
    dim = op.shape[1]

    total_steps = n_rec * substeps
    nodes = u + (horizon / total_steps) * 0.5 * np.arange(2 * total_steps + 1)
    lam = spec.arrival.value(nodes)
    mu = spec.service.value(nodes)

    # the k sinks come first, then levels 1..level_cap
    p = np.zeros(dim)
    p[k + (level - 1) * km + q0] = 1.0
    values = np.zeros((n_rec + 1, k))
    cap_slice = slice(k + (level_cap - 1) * km, dim)
    cap_mass = 0.0

    idx = 0
    for rec in range(1, n_rec + 1):
        for _ in range(substeps):
            p = _rk4_step(op, p, h, lam, mu, idx)
            idx += 1
        values[rec] = p[:k]
        cap_mass = max(cap_mass, float(p[cap_slice].sum()))
        if cap_mass > 1e-10:
            raise RuntimeError(
                f"probability {cap_mass:.3e} reached the level cap {level_cap}; "
                "raise level_cap"
            )

    return VolterraSolution(
        level=level, phase=q0, u=float(u), step=horizon / n_rec,
        times=u + (horizon / n_rec) * np.arange(n_rec + 1),
        values=values, source="ode", cap_mass=cap_mass,
    )
