"""Special-function kernels: ball form factors for the direct mode sum, and
E1(z) + log z, the entire completion used by the 2D regular part of G.
"""

from __future__ import annotations

import numpy as np
from scipy.special import exp1, j1


def ball_form_factor(dim, t):
    """Fourier profile of the unit-mass ball: 3(sin t - t cos t)/t^3 or 2 J1(t)/t."""
    t = np.asarray(t, dtype=float)
    if dim == 3:
        out = np.empty_like(t)
        small = t < 0.1
        ts = t[small]
        t2 = ts * ts
        out[small] = 1.0 - t2 / 10.0 + t2 * t2 / 280.0 - t2 * t2 * t2 / 15120.0
        tb = t[~small]
        out[~small] = 3.0 * (np.sin(tb) - tb * np.cos(tb)) / tb**3
    elif dim == 2:
        out = np.empty_like(t)
        small = t < 1e-4
        out[small] = 1.0 - t[small] ** 2 / 8.0
        tb = t[~small]
        out[~small] = 2.0 * j1(tb) / tb
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)


def e1_plus_log(z):
    """E1(z) + log(z), the entire completion of the exponential integral.

    Stable through z = 0 (value -euler_gamma); used wherever the screened
    2D kernel must be split from its logarithmic singularity.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    small = z <= 1.0
    zs = z[small]
    acc = np.full_like(zs, -np.euler_gamma)
    term = np.ones_like(zs)
    for j in range(1, 26):
        term *= -zs / j
        acc -= term / j
    out[small] = acc
    zb = z[~small]
    out[~small] = exp1(zb) + np.log(zb)
    return out if out.ndim else float(out)
