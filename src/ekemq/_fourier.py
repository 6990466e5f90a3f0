"""The periodic law's Fourier containers: its evaluator and its boundary.

The oracle's law is its Fourier series, and `TrigInterpolant` evaluates a
block of its columns at any times.  The series route reads one slice of it,
the empty-system boundary (`BoundaryFunctions`): the columns of the k idle
and km level-1 states in the law's solved series c_0..c_N, which
`oracle.extract_boundary` cuts, so series-vs-oracle agreement checks the
series given the oracle's boundary; the levels beyond it are computed
independently and compared in tests, not assumed anywhere.  The boundary
evaluates its series at the nodes of the series' period rule
(`_quad.PERIOD_NODES`) on first use, so that every evaluator on it shares
one set of samples.

numpy does all of it, and no route module is imported here, so the series
route reads the boundary without importing the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _quad
from .model import ModelSpec


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


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


@dataclass(frozen=True, eq=False)
class BoundaryFunctions:
    """The empty-system boundary the series method needs, as the Fourier
    series of the law's k idle and km level-1 states.

    series holds their c_0..c_N, (N + 1, k + km) complex rows, the idle
    states first, for the model spec: `oracle.extract_boundary` slices it
    from the law's solved series.  One `TrigInterpolant` of it serves
    `idle_at`, `first_at` and `period_samples`, the values at the nodes of
    the series' period rule.

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
