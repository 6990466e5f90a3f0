"""Model primitives for a single-server queue with Erlang-staged arrivals and
service under rates that repeat with period one.

An arrival is complete after k exponential stages, each finishing at rate
lam(t); a service is complete after m stages at rate mu(t).  Both rates are
trigonometric polynomials in t with period one, so their averages and
integrals are available in closed form.  The state of the system is the pair
(queue level, phase), where the phase combines the current arrival stage
a in {0..k-1} and, while the server is busy, the current service stage
s in {0..m-1}.  Phases are flattened lexicographically as a*m + s.

The level process is a quasi-birth-death chain: the generator restricted to
one busy level splits into a block that moves one level up (an arrival stage
completing from stage k-1), a block that moves one level down (a service
stage completing from stage m-1), and a local block.  Each is a Kronecker
product of the stage chains' blocks (`_stage_blocks`); the busy-period march
builds them from those, and the periodic oracle applies them by slicing.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

_TWO_PI = 2.0 * math.pi

# Nonnegativity of a rate function is checked at construction on a grid of
# _POSITIVITY_GRID points, or of _POSITIVITY_POINTS_PER_HARMONIC points per
# period of its top harmonic where that is finer, so that a dip narrower
# than the fixed grid's spacing cannot pass between its points.  Each
# sampled local minimum is then refined by _POSITIVITY_NEWTON_STEPS Newton
# steps on the derivative, so that a dip between two grid points counts at
# its true depth.
_POSITIVITY_GRID = 4096
_POSITIVITY_POINTS_PER_HARMONIC = 64
_POSITIVITY_NEWTON_STEPS = 4


def _as_index(value, name: str) -> int:
    """value as an int; a float (even 2.0) raises TypeError naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _as_terms(terms) -> tuple[tuple[int, float], ...]:
    """Normalize harmonic terms to a sorted tuple of (harmonic, amplitude)."""
    out = []
    for j, amp in terms:
        j = _as_index(j, "harmonic index")
        if j < 1:
            raise ValueError(f"harmonic index must be >= 1, got {j}")
        amp = float(amp)
        if not math.isfinite(amp):
            raise ValueError(f"harmonic {j} has a non-finite amplitude {amp}")
        out.append((j, amp))
    out.sort()
    seen = [j for j, _ in out]
    if len(set(seen)) != len(seen):
        raise ValueError("duplicate harmonic index in rate function")
    return tuple(out)


@dataclass(frozen=True)
class RateFunction:
    """Nonnegative 1-periodic rate written as a finite trigonometric sum.

    value(t) = base + sum_j amp_cos[j] * cos(2 pi j t)
                    + sum_j amp_sin[j] * sin(2 pi j t)

    The representation keeps the period-average (`mean`) and the running
    integral (`accumulated`) exact, which the series method relies on; no
    numerical quadrature of the rate itself is ever needed.
    """

    base: float
    cos: tuple[tuple[int, float], ...] = field(default=())
    sin: tuple[tuple[int, float], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "cos", _as_terms(self.cos))
        object.__setattr__(self, "sin", _as_terms(self.sin))
        if not 0.0 < self.base < math.inf:
            raise ValueError("rate function must have a strictly positive, finite mean")
        top = max((j for j, _ in self.cos + self.sin), default=0)
        points = max(_POSITIVITY_GRID, _POSITIVITY_POINTS_PER_HARMONIC * top)
        grid = np.arange(points) / points
        values = self.value(grid)
        t = grid[(values <= np.roll(values, 1)) & (values <= np.roll(values, -1))]
        for _ in range(_POSITIVITY_NEWTON_STEPS):
            slope, curvature = self._derivatives(t)
            t = t - np.divide(slope, curvature, out=np.zeros_like(t),
                              where=curvature > 0.0)
        low = min(float(np.min(values)), float(np.min(self.value(t))))
        if low < -1e-12:
            raise ValueError(f"rate function dips negative (min {low:.3e})")

    def value(self, t):
        """Rate at time t (scalar or array)."""
        t = np.asarray(t, dtype=float)
        out = np.full(t.shape, self.base)
        for j, amp in self.cos:
            out += amp * np.cos(_TWO_PI * j * t)
        for j, amp in self.sin:
            out += amp * np.sin(_TWO_PI * j * t)
        return out if out.ndim else float(out)

    def _derivatives(self, t: np.ndarray):
        """First and second derivatives of the rate at the times t."""
        slope = np.zeros_like(t)
        curvature = np.zeros_like(t)
        for j, amp in self.cos:
            w = _TWO_PI * j
            slope -= amp * w * np.sin(w * t)
            curvature -= amp * w * w * np.cos(w * t)
        for j, amp in self.sin:
            w = _TWO_PI * j
            slope += amp * w * np.cos(w * t)
            curvature -= amp * w * w * np.sin(w * t)
        return slope, curvature

    def mean(self) -> float:
        """Average over one period; the harmonics integrate to zero."""
        return self.base

    def accumulated(self, t):
        """Integral of the rate from 0 to t, in closed form."""
        t = np.asarray(t, dtype=float)
        out = self.base * t.astype(float)
        for j, amp in self.cos:
            out = out + amp * np.sin(_TWO_PI * j * t) / (_TWO_PI * j)
        for j, amp in self.sin:
            out = out + amp * (1.0 - np.cos(_TWO_PI * j * t)) / (_TWO_PI * j)
        return out if out.ndim else float(out)

    def cumulative(self, u, t):
        """Integral of the rate over [u, t].  Requires t >= u."""
        u = np.asarray(u, dtype=float)
        t = np.asarray(t, dtype=float)
        if np.any(t - u < -1e-15):
            raise ValueError("cumulative rate needs t >= u")
        out = self.accumulated(t) - self.accumulated(u)
        return out if np.ndim(out) else float(out)


def ergodic_margin(k: int, m: int, arrival_mean: float, service_mean: float) -> float:
    """Stability margin arrival_mean * m - service_mean * k.

    Customers arrive at average rate arrival_mean / k and are served at
    average rate service_mean / m, so the system is stable exactly when the
    returned margin is negative.
    """
    return arrival_mean * m - service_mean * k


@dataclass(frozen=True)
class ModelSpec:
    """Queue description: stage counts and the two periodic stage rates.

    k and m must be coprime; this keeps the k + m characteristic exponents
    of the phase process distinct, which the series representation needs.
    Construction fails for unstable parameter sets.
    """

    k: int
    m: int
    arrival: RateFunction
    service: RateFunction

    def __post_init__(self):
        object.__setattr__(self, "k", _as_index(self.k, "k"))
        object.__setattr__(self, "m", _as_index(self.m, "m"))
        if self.k < 1 or self.m < 1:
            raise ValueError("stage counts must be >= 1")
        if math.gcd(self.k, self.m) != 1:
            raise ValueError(
                f"stage counts must be coprime, got k={self.k}, m={self.m}"
            )
        margin = ergodic_margin(self.k, self.m, self.arrival.mean(), self.service.mean())
        if not margin < 0.0:
            raise ValueError(
                "unstable model: arrival_mean*m - service_mean*k = "
                f"{margin:g} must be negative"
            )

    @property
    def phase_count(self) -> int:
        """Number of phases at a busy level, k*m."""
        return self.k * self.m

    @property
    def arrival_mean(self) -> float:
        return self.arrival.mean()

    @property
    def service_mean(self) -> float:
        return self.service.mean()

    @property
    def load(self) -> float:
        """Customer arrival rate over service rate, (lam/k)/(mu/m)."""
        return (self.arrival_mean / self.k) / (self.service_mean / self.m)


def _normalize_phase(spec: ModelSpec, phase) -> int:
    """Flat index a*m + s of a phase given as a pair (a, s), such as a tuple,
    a list or an array, or already flat.  Entries must be integers: a
    float such as 1.7 raises TypeError rather than being truncated."""
    if np.ndim(phase) == 0:
        a, s = divmod(_as_index(phase, "phase"), spec.m)
    elif len(phase) == 2:
        a, s = (_as_index(x, "phase") for x in phase)
    else:
        raise ValueError(f"start phase must be flat or a pair (a, s), got {phase!r}")
    if not (0 <= a < spec.k and 0 <= s < spec.m):
        raise ValueError("start phase out of range")
    return a * spec.m + s


def _stage_blocks(count: int, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Local and completion blocks of a cyclic Erlang stage chain.

    local moves the stage pointer forward inside one cycle (with -rate on
    the diagonal), completion carries the stage-(count-1) -> stage-0 jump
    that finishes the cycle.
    """
    local = -rate * np.eye(count)
    for i in range(count - 1):
        local[i, i + 1] = rate
    completion = np.zeros((count, count))
    completion[count - 1, 0] = rate
    return local, completion
