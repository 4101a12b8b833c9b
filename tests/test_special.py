import numpy as np
import scipy.special

from oklim.sharp import ball_form_factor


def test_form_factor_small_argument_limits():
    for dim in (2, 3):
        assert abs(ball_form_factor(dim, 1e-9) - 1.0) < 1e-15
    # series/closed-form seams agree
    for dim, seam in ((3, 0.1), (2, 1e-4)):
        lo = ball_form_factor(dim, seam * (1 - 1e-9))
        hi = ball_form_factor(dim, seam * (1 + 1e-9))
        assert abs(lo - hi) < 1e-11


def test_form_factor_closed_forms():
    t = np.linspace(0.2, 80.0, 500)
    expect3 = 3 * (np.sin(t) - t * np.cos(t)) / t**3
    assert np.max(np.abs(ball_form_factor(3, t) - expect3)) < 1e-13
    expect2 = 2 * scipy.special.j1(t) / t
    assert np.max(np.abs(ball_form_factor(2, t) - expect2)) < 1e-12

