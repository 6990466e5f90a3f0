"""The series route's one quadrature rule, for every period and window
integral: NODES-point Gauss-Legendre on PANELS equal panels, which resolves
integrands oscillating up to roughly exp(2 pi i 40 u) to machine precision.

The Legendre nodes are built once per NODES and the period rule on [0, 1]
once per (NODES, PANELS); both are read at call time, so a caller that
changes NODES or PANELS gets the new rule on its next call.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

NODES = 8
PANELS = 64


@lru_cache(maxsize=4)
def _legendre(nodes: int):
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    xi.flags.writeable = False
    wi.flags.writeable = False
    return xi, wi


def _composite(a: float, b: float, nodes: int, panels: int):
    if not b > a:
        raise ValueError("need b > a")
    xi, wi = _legendre(nodes)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w


def composite_gauss(a: float, b: float):
    """Nodes and weights integrating smooth functions over [a, b].

    The interval is cut into PANELS equal pieces, each carrying a
    NODES-point Gauss-Legendre rule.  Returns (x, w) as flat arrays.
    """
    return _composite(a, b, NODES, PANELS)


@lru_cache(maxsize=4)
def _period_rule(nodes: int, panels: int):
    x, w = _composite(0.0, 1.0, nodes, panels)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def period_rule():
    """composite_gauss(0, 1) under the current rule, as read-only arrays.

    The same (NODES, PANELS) returns the same node array, so a value derived
    at the nodes can be kept together with the node array it was computed
    at and reused while `period_rule()[0]` is still that array.
    """
    return _period_rule(NODES, PANELS)
