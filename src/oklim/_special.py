"""Special-function kernels: ball form factors for the direct mode sum.

``sharp``'s direct sum evaluates them once per shell |k|^2 of its orthant
walk.  Nothing here is shared with the Green's function G.  scipy.special's
j1 is imported in the 2D branch, once per call, and not at module level:
``sharp`` imports this module, so a module-level import would load scipy on
``import oklim``, while only the 2D direct oracle needs it.
"""

from __future__ import annotations

import numpy as np


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
        from scipy.special import j1  # here, not at module level: see the module docstring

        out = np.empty_like(t)
        small = t < 1e-4
        out[small] = 1.0 - t[small] ** 2 / 8.0
        tb = t[~small]
        out[~small] = 2.0 * j1(tb) / tb
    else:
        raise ValueError(f"dim must be 2 or 3, got {dim}")
    return out if out.ndim else float(out)

