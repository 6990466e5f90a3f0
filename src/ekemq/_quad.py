"""The series route's one quadrature rule, for every period and window
integral: NODES-point Gauss-Legendre on PANELS equal panels, which resolves
integrands oscillating up to roughly exp(2 pi i 40 u) to machine precision.
"""

from __future__ import annotations

import numpy as np

NODES = 8
PANELS = 64


def composite_gauss(a: float, b: float):
    """Nodes and weights integrating smooth functions over [a, b].

    The interval is cut into PANELS equal pieces, each carrying a
    NODES-point Gauss-Legendre rule.  Returns (x, w) as flat arrays.
    """
    if not b > a:
        raise ValueError("need b > a")
    xi, wi = np.polynomial.legendre.leggauss(NODES)
    edges = np.linspace(a, b, PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * xi[None, :]).ravel()
    w = (half[:, None] * wi[None, :]).ravel()
    return x, w
