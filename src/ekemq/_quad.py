"""The series route's one quadrature rule, for every period and window
integral: NODES-point Gauss-Legendre on PANELS equal panels, which resolves
integrands oscillating up to roughly exp(2 pi i 40 u) to machine precision.

The Legendre nodes are built once, at import, and so is the rule on the
period [0, 1]: PERIOD_NODES and PERIOD_WEIGHTS are read-only constants.
"""

from __future__ import annotations

import numpy as np

NODES = 8
PANELS = 64

_XI, _WI = np.polynomial.legendre.leggauss(NODES)


def composite_gauss(a: float, b: float):
    """Nodes and weights integrating smooth functions over [a, b].

    The interval is cut into PANELS equal pieces, each carrying the
    NODES-point Gauss-Legendre rule.  Returns (x, w) as flat arrays.
    """
    if not b > a:
        raise ValueError("need b > a")
    edges = np.linspace(a, b, PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _XI[None, :]).ravel()
    w = (half[:, None] * _WI[None, :]).ravel()
    return x, w


PERIOD_NODES, PERIOD_WEIGHTS = composite_gauss(0.0, 1.0)
PERIOD_NODES.flags.writeable = False
PERIOD_WEIGHTS.flags.writeable = False
