import itertools
import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oklim import green, limits
from oklim.errors import SingularPoint

from conftest import direct_fourier_green, random_torus_point


def test_matches_direct_fourier_oracle(params):
    rng = np.random.default_rng(7)
    for dim in (2, 3):
        for _ in range(10):
            x = random_torus_point(rng, dim, min_dist=0.2)
            assert abs(green.green_eval(dim, x, params)
                       - direct_fourier_green(dim, x)) < 1e-10


def test_parameter_independence():
    sets = [green.EwaldParameters.for_alpha(math.sqrt(math.pi)),
            green.EwaldParameters.for_alpha(2 * math.sqrt(math.pi)),
            green.EwaldParameters(alpha=1.1, real_cutoff=15, fourier_cutoff=9)]
    rng = np.random.default_rng(11)
    for dim in (2, 3):
        X = np.array([random_torus_point(rng, dim, min_dist=1e-3) for _ in range(50)])
        vals = [green.green_eval_many(dim, X, p) for p in sets]
        for v in vals[1:]:
            assert np.max(np.abs(v - vals[0])) < 1e-10


@pytest.mark.parametrize("dim", [2, 3])
def test_truncation_bound_covers_short_cutoffs(dim):
    # short cutoffs truncate visibly; each bound must cover the error against
    # long cutoffs at the same alpha, at points of the cell and in g(0)
    rng = np.random.default_rng(13)
    X = np.array([random_torus_point(rng, dim, min_dist=1e-2) for _ in range(40)])
    for alpha, rc, fc in ((math.sqrt(math.pi), 3, 2), (1.0, 5, 2), (3.0, 3, 2), (1.0, 3, 1),
                          (3.0, 2, 2), (5.5, 1, 3)):
        short = green.EwaldParameters(alpha=alpha, real_cutoff=rc, fourier_cutoff=fc)
        long = green.EwaldParameters(alpha=alpha, real_cutoff=rc + 8, fourier_cutoff=fc + 6)
        err = np.max(np.abs(green.green_eval_many(dim, X, short)
                            - green.green_eval_many(dim, X, long)))
        err0 = abs(green.regular_part_at_zero(dim, short)
                   - green.regular_part_at_zero(dim, long))
        assert max(err, err0) <= green.truncation_bound(dim, short)
    assert 0.0 < green.truncation_bound(dim) < 1e-13
    # alpha = 0.05 hits the real_cutoff cap: the 3D bound reports the real tail
    # (the 2D theta form uses no Ewald parameters)
    assert 1e-7 < green.truncation_bound(3, green.EwaldParameters.for_alpha(0.05)) < 1e-5


def test_evenness_and_lattice_symmetry(params):
    rng = np.random.default_rng(3)
    for dim in (2, 3):
        for _ in range(5):
            x = random_torus_point(rng, dim, min_dist=0.05)
            g = green.green_eval(dim, x, params)
            assert abs(green.green_eval(dim, -x, params) - g) < 1e-12
            for perm in itertools.permutations(range(dim)):
                for signs in itertools.product((1, -1), repeat=dim):
                    px = np.array(signs) * x[list(perm)]
                    assert abs(green.green_eval(dim, px, params) - g) < 1e-12


def test_values_do_not_depend_on_batch_row_or_sign(params):
    rng = np.random.default_rng(17)
    for dim in (2, 3):
        X = np.array([random_torus_point(rng, dim, min_dist=1e-3) for _ in range(300)])
        vals = green.green_eval_many(dim, X, params)
        grads = green.green_grad_many(dim, X, params)
        p = rng.permutation(len(X))
        assert np.array_equal(green.green_eval_many(dim, X[p], params), vals[p])
        assert np.array_equal(green.green_eval_many(dim, -X[p], params), vals[p])
        assert np.array_equal(green.green_grad_many(dim, X[p], params), grads[p])
        assert np.array_equal(green.green_grad_many(dim, -X, params), -grads)
        assert np.array_equal(green.green_eval_many(dim, X[5:8], params), vals[5:8])


@pytest.mark.parametrize("alpha", [None, math.sqrt(math.pi), 10.7])
def test_gradient_rows_are_bitwise_their_one_row_calls(alpha):
    # the 3D image-sum gradient contracts each row alone: a matrix product over the
    # batch would round a row by its place in it
    params = None if alpha is None else green.EwaldParameters.for_alpha(alpha)
    rng = np.random.default_rng(29)
    for dim in (2, 3):
        X = np.array([random_torus_point(rng, dim, min_dist=1e-3) for _ in range(50)])
        grads = green.green_grad_many(dim, X, params)
        for x, g in zip(X, grads):
            assert np.array_equal(green.green_grad_many(dim, x[None], params)[0], g)


def test_ewald_parameters_reject_non_finite_alpha():
    # alpha = inf used to select fourier_cutoff 200: a k-table of ~64M vectors on first use
    with pytest.raises(ValueError):
        green.EwaldParameters.for_alpha(math.inf)
    with pytest.raises(ValueError):
        green.EwaldParameters(alpha=math.inf, real_cutoff=2, fourier_cutoff=2)


@pytest.mark.parametrize("alpha", [True, np.True_])
def test_ewald_parameters_reject_a_bool_alpha(alpha):
    # EwaldParameters(True, 3, 5) stored alpha=True, and for_alpha(True) ran alpha 1
    with pytest.raises(ValueError, match="alpha"):
        green.EwaldParameters(alpha, 3, 5)
    with pytest.raises(ValueError, match="alpha"):
        green.EwaldParameters.for_alpha(alpha)


@pytest.mark.parametrize("cutoff", [True, False, 2.5, 3.0, np.float64(3), "3", 0, -2])
@pytest.mark.parametrize("name", ["real_cutoff", "fourier_cutoff"])
def test_ewald_parameters_reject_cutoffs_that_are_not_positive_integers(name, cutoff):
    # real_cutoff=True summed one image, and 2.5 failed with a TypeError at first use
    kwargs = {"real_cutoff": 7, "fourier_cutoff": 3, name: cutoff}
    with pytest.raises(ValueError, match=name):
        green.EwaldParameters(alpha=math.sqrt(math.pi), **kwargs)
    kwargs[name] = np.int64(3)  # numpy integers are integers
    assert green.EwaldParameters(alpha=math.sqrt(math.pi), **kwargs) == green.EwaldParameters(
        alpha=math.sqrt(math.pi), **{**kwargs, name: 3})


def test_gradient_matches_finite_differences(params):
    rng = np.random.default_rng(5)
    h = 1e-6
    for dim in (2, 3):
        X = np.array([random_torus_point(rng, dim, min_dist=1e-2) for _ in range(50)])
        grads = green.green_grad_many(dim, X, params)
        for x, g in zip(X, grads):
            fd = np.empty(dim)
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                fd[j] = (green.green_eval(dim, x + e, params)
                         - green.green_eval(dim, x - e, params)) / (2 * h)
            assert np.linalg.norm(fd - g) < 1e-6 * max(np.linalg.norm(g), 1.0)


def test_gradient_symmetries(params):
    assert np.linalg.norm(green.green_grad(2, [0.5, 0.5], params)) < 1e-12
    x = np.array([0.23, 0.61, 0.08])
    s = green.green_grad(3, x, params) + green.green_grad(3, -x, params)
    assert np.linalg.norm(s) < 1e-12


def test_near_origin_2d_log_behavior(params):
    x = np.array([1e-4, 0.0])
    expect = -math.log(1e-4) / (2 * math.pi) + green.regular_part_at_zero(2, params)
    assert abs(green.green_eval(2, x, params) - expect) < 1e-6


def test_regular_part_at_zero_stability():
    for dim in (2, 3):
        vals = [green.regular_part_at_zero(
            dim, green.EwaldParameters(alpha=math.sqrt(math.pi), real_cutoff=rc,
                                       fourier_cutoff=6))
            for rc in (13, 17, 21)]
        assert max(vals) - min(vals) < 1e-8
        a1 = green.regular_part_at_zero(dim, green.EwaldParameters.for_alpha(1.2))
        a2 = green.regular_part_at_zero(dim, green.EwaldParameters.for_alpha(2.4))
        assert abs(a1 - a2) < 1e-10


def test_regular_part_definitional_identity(params):
    x = np.array([0.25, 0.0, 0.0])
    g = green.regular_part(3, x, params)
    expect = green.green_eval(3, x, params) - 1.0 / (4 * math.pi * 0.25)
    assert abs(g - expect) < 1e-12


def test_regular_part_continuity_and_symmetry(params):
    g0 = green.regular_part_at_zero(2, params)
    diffs = [abs(green.regular_part(2, [r, 0.0], params) - g0)
             for r in (1e-2, 1e-3, 1e-4)]
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 1e-6
    # down to and through the underflow of |x|^2, on an axis and on the diagonal
    for e in (8, 100, *range(154, 163), 300):
        r = 10.0 ** -e
        for x in ([r, 0.0], [r / math.sqrt(2), r / math.sqrt(2)]):
            assert abs(green.regular_part(2, x, params) - g0) <= 1e-16, (e, x)
    x = np.array([0.11, 0.31, 0.05])
    for perm in itertools.permutations(range(3)):
        assert abs(green.regular_part(3, x[list(perm)], params)
                   - green.regular_part(3, x, params)) < 1e-12


def test_regular_part_smooth_through_origin(params):
    # finite differences of g stay bounded across |x| in [0, 1e-2]
    for dim in (2, 3):
        rs = np.linspace(0.0, 1e-2, 41)
        vals = np.array([green.regular_part(dim, [r] + [0.0] * (dim - 1), params)
                         for r in rs])
        slopes = np.diff(vals) / np.diff(rs)
        assert np.max(np.abs(slopes)) < 1.0  # g' ~ r/2 near 0; nowhere near blowup


def test_singular_point_guard(params):
    with pytest.raises(SingularPoint):
        green.green_eval(2, [0.0, 0.0], params)
    with pytest.raises(SingularPoint):
        green.green_eval(3, [1.0 - 1e-12, 0.0, 0.0], params)


def _singular_cell_integral(dim, h):
    """Integral of the free-space singular part over the centered cell cube."""
    xg, wg = leggauss(40)
    if dim == 3:
        inv = 1.0 / np.sqrt(1.0 + xg[:, None] ** 2 + xg[None, :] ** 2)
        return (6 * h * h / 8.0) * np.einsum("i,j,ij->", wg, wg, inv) / (4 * math.pi)
    i1 = float(np.sum(wg * np.log(1.0 + xg**2)))
    return -(h * h / 2.0) * (2 * (math.log(h / 2.0) - 0.5) + 0.5 * i1) / (2 * math.pi)


@pytest.mark.parametrize("dim", [2, 3])
def test_zero_mean_on_grid(dim):
    # midpoint sum over the N^d grid, singular cell replaced by its analytic
    # integral plus the regular part's cell average
    N = 64
    h = 1.0 / N
    p = green.EwaldParameters(alpha=math.sqrt(math.pi), real_cutoff=7, fourier_cutoff=3)
    ax = np.arange(N) / N
    grids = np.meshgrid(*([ax] * dim), indexing="ij")
    X = np.stack([g.ravel() for g in grids], axis=-1)
    X = X[np.any(X != 0.0, axis=1)]
    riemann = float(np.sum(green.green_eval_many(dim, X, p))) * h**dim
    cell = (_singular_cell_integral(dim, h)
            + green.regular_part_at_zero(dim, p) * h**dim + dim * h ** (dim + 2) / 72.0)
    assert abs(riemann + cell) < 1e-4


def test_torus_point_reduction_and_distance():
    # a torus point is stored as v % 1.0 per coordinate; distances are min-image
    c = limits.PointConfiguration(2, [(1.0, (1.25, -0.25)), (1.0, (0.95, 0.05))])
    assert c.positions.tolist() == [[0.25, 0.75], [0.95, 0.05]]
    dist = c.pairs[3][0]
    assert abs(dist - math.hypot(0.30, 0.30)) < 1e-15
    assert dist <= math.sqrt(2) / 2 + 1e-15
    with pytest.raises(ValueError):
        limits.PointConfiguration(2, [(1.0, (0.1,))])


# 4 pi g(0) for the simple cubic lattice (Nijboer & de Wette, Physica 23, 1957)
_SC_4PI_G0 = -2.837297479480619


def test_simple_cubic_lattice_constant(params):
    assert abs(4 * math.pi * green.regular_part_at_zero(3, params) - _SC_4PI_G0) < 1e-14


@pytest.mark.parametrize("alpha", green.PAIR_SUM_ALPHAS)
def test_simple_cubic_lattice_constant_within_each_pair_sum_tail(alpha):
    p = green.EwaldParameters.for_alpha(alpha)
    g0 = _SC_4PI_G0 / (4 * math.pi)
    assert abs(green.regular_part_at_zero(3, p) - g0) <= green.truncation_bound(3, p)


def test_per_point_green_without_params_runs_the_one_pair_parameters():
    # params=None resolves in one place, to the parameters of a one-pair sum
    p = green.EwaldParameters.for_count(2)
    X = np.random.default_rng(29).uniform(-0.5, 0.5, (40, 3))
    assert np.array_equal(green.green_eval_many(3, X), green.green_eval_many(3, X, p))
    assert np.array_equal(green.green_grad_many(3, X), green.green_grad_many(3, X, p))
    x = (0.1, 0.2, 0.3)
    assert green.green_eval(3, x) == green.green_eval(3, x, p)
    assert np.array_equal(green.green_grad(3, x), green.green_grad(3, x, p))
    assert green.regular_part(3, x) == green.regular_part(3, x, p)
    assert green.regular_part_at_zero(3) == green.regular_part_at_zero(3, p)
    assert green.truncation_bound(3) == green.truncation_bound(3, p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("dim", [2, 3])
def test_non_finite_coordinates_are_rejected(dim, bad):
    x = [0.1, 0.2, 0.3][:dim]
    x[dim - 1] = bad
    calls = [lambda: green.green_eval(dim, x), lambda: green.green_grad(dim, x),
             lambda: green.green_eval_many(dim, [x[::-1], x]),
             lambda: green.green_grad_many(dim, [x]), lambda: green.regular_part(dim, x)]
    for call in calls:
        with pytest.raises(ValueError, match=f"finite coordinates, got {bad}"):
            call()


@pytest.mark.parametrize("call", [
    lambda: green.green_eval(4, (0.1, 0.2, 0.3, 0.4)),
    lambda: green.green_eval(1, (0.3,)),
    lambda: green.green_grad(4, (0.1, 0.2, 0.3, 0.4)),
    lambda: green.regular_part(1, (0.3,)),
    lambda: green.regular_part_at_zero(4),
    lambda: green.truncation_bound(4),
    lambda: green.green_eval_many(2, [[0.1, 0.2, 0.3]]),
    lambda: green.green_eval_many(3, [[0.1, 0.2]]),
    lambda: green.green_grad_many(2, [[0.1, 0.2, 0.3]]),
    lambda: green.green_grad_many(3, [0.1, 0.2]),
    lambda: limits.interaction_energy(2, np.ones(2), np.array([[0.1, 0.2, 0.3], [0.6, 0.1, 0.8]])),
    lambda: limits.interaction_gradient(3, np.ones(2), np.array([[0.1, 0.2], [0.6, 0.1]])),
    lambda: limits.interaction_energy(4, np.ones(2), np.array([[0.1] * 4, [0.6] * 4])),
    lambda: limits.interaction_energy(2, np.ones(2), np.array([[0.1, math.inf], [0.6, 0.1]])),
    lambda: green.green_eval(2, (0.1, 0.2, 0.3)),
    lambda: green.green_grad(3, [[0.1, 0.2, 0.3]]),
    lambda: green.regular_part(2, 0.5),
], ids=["eval-4d", "eval-1d", "grad-4d", "regular-1d", "g0-4d", "bound-4d", "many-2d-on-3",
        "many-3d-on-2", "grad-many-2d-on-3", "grad-many-3d-on-2", "energy-2d-on-3",
        "gradient-3d-on-2", "energy-4d", "energy-inf", "eval-2d-on-3", "grad-nested-row",
        "regular-scalar"])
def test_a_dimension_other_than_2_or_3_or_of_the_rows_is_a_value_error(call):
    # unchecked, the other dimension's kernel or a dropped column gives a number
    # silently, too few columns an IndexError, and an inf coordinate nan
    with pytest.raises(ValueError, match="dim must be 2 or 3|coordinates per row|finite"):
        call()


def test_2d_truncation_bound_is_the_theta_series_tail():
    # positive, independent of the Ewald parameters, and met by the fewest terms
    bound = green.truncation_bound(2)
    assert 0.0 < bound <= 1e-17
    for alpha in (0.05, 1.0, 3.0):
        assert green.truncation_bound(2, green.EwaldParameters.for_alpha(alpha)) == bound
    assert bound == green._theta_tail(green.THETA_TERMS)
    assert green._theta_tail(green.THETA_TERMS - 1) > 1e-17


def test_2d_green_has_no_bias_against_the_theta_series():
    # each value is checked at 1e-15 below; an offset common to all values hides there,
    # but a pair sum adds it once per pair.  The mean error over 2000 points has a
    # rounding spread near 5e-19, and a one-ulp error in _LOG_CONST moves it by 4.4e-18.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    X = rng.random((2000, 2)) - 0.5
    X = X[np.linalg.norm(X, axis=1) >= 0.01]
    G = green.green_eval_many(2, X)
    with mp.workdps(30):
        q = mp.exp(-mp.pi)
        eta_i = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))
        errors = [mp.mpf(g) - mp.mpf(y) ** 2 / 2
                  + mp.log(abs(mp.jtheta(1, mp.pi * mp.mpc(x, y), q)) / eta_i) / (2 * mp.pi)
                  for (x, y), g in zip(X.tolist(), G.tolist())]
        mean = float(mp.fsum(errors) / len(errors))
        g0 = -mp.log(mp.pi * mp.jtheta(1, 0, q, 1) / eta_i) / (2 * mp.pi)
        log_const = mp.log(2) - mp.pi / 4 - mp.log(eta_i)
    assert abs(mean) <= 3e-18
    # the constants are correctly rounded: g(0) is off by at most half an ulp
    assert green.regular_part_at_zero(2) == float(g0)
    assert green._LOG_CONST == float(log_const)


def test_2d_theta_form_matches_the_theta_series():
    # mpmath's jtheta sums the whole theta series at 30 digits; the kernel cuts the
    # series after THETA_TERMS terms and evaluates it in double precision:
    # G = -(1/2pi) log|theta1(pi z, e^-pi) / eta(i)| + y^2/2, eta(i) = Gamma(1/4) / (2 pi^(3/4))
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(23)
    dirs = rng.normal(size=(20, 2))
    faces = np.column_stack([np.full(10, 0.5), rng.random(10) - 0.5])
    axes = np.column_stack([np.zeros(6), np.linspace(-0.45, 0.45, 6)])
    X = np.concatenate([
        rng.random((60, 2)) - 0.5,
        1e-6 * dirs / np.linalg.norm(dirs, axis=1)[:, None],  # 1e-6 from the origin
        faces, faces[:, ::-1], -faces,
        [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5], [1e-6, 0.0], [0.0, 1e-6]],
        # the faces |y| = 1/2, where |cos^2 w| and so the series terms peak
        [[0.0, 0.5], [0.25, 0.5], [-0.25, -0.5], [0.0, -0.5], [0.5, 0.5]],
        axes, axes[:, ::-1], -axes,  # x = 0 or y = 0: a gradient component of zero
    ])
    G = green.green_eval_many(2, X)
    grad = green.green_grad_many(2, X)
    r = np.geomspace(1e-8, 1e-3, 11)
    near = r[:, None] * dirs[:11] / np.linalg.norm(dirs[:11], axis=1)[:, None]
    with mp.workdps(30):
        q = mp.exp(-mp.pi)
        eta_i = mp.gamma(mp.mpf(1) / 4) / (2 * mp.pi ** (mp.mpf(3) / 4))

        def g_ref(x):
            u = mp.pi * mp.mpc(x[0], x[1])
            return -mp.log(abs(mp.jtheta(1, u, q)) / eta_i) / (2 * mp.pi) + mp.mpf(x[1]) ** 2 / 2

        for x, g, dg in zip(X, G, grad):
            u = mp.pi * mp.mpc(x[0], x[1])
            w = mp.pi * mp.jtheta(1, u, q, 1) / mp.jtheta(1, u, q)  # d/dz log theta1(pi z)
            dg_ref = np.array([float(-w.real / (2 * mp.pi)), float(w.imag / (2 * mp.pi) + x[1])])
            assert abs(g - float(g_ref(x))) <= 1e-15
            assert np.max(np.abs(dg - dg_ref)) <= 1e-13 * max(np.linalg.norm(dg_ref), 1.0)
        # g(x) = G(x) + log|x| / 2pi near the origin, where G itself is large
        for x in near:
            ref = g_ref(x) + mp.log(mp.sqrt(mp.mpf(x[0]) ** 2 + mp.mpf(x[1]) ** 2)) / (2 * mp.pi)
            assert abs(green.regular_part(2, x) - float(ref)) <= 1e-15
        # g(0) = -(1/2pi) log(pi theta1'(0) / eta(i)), the limit of G + log|x| / 2pi
        g0_ref = -mp.log(mp.pi * mp.jtheta(1, 0, q, 1) / eta_i) / (2 * mp.pi)
    assert abs(green.regular_part_at_zero(2) - float(g0_ref)) <= 1e-16
    # G is even in each coordinate, so its derivative across a zero coordinate is 0
    assert np.all(grad[X == 0.0] == 0.0)


HESSIAN_PARAMS = [None, math.sqrt(math.pi), 10.7]  # 2.75 (the per-point choice), sqrt(pi), 10.7


def _hessian_points(rng, dim, count=60):
    return np.array([random_torus_point(rng, dim, min_dist=0.05) for _ in range(count)])


@pytest.mark.parametrize("alpha", HESSIAN_PARAMS)
@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_matches_central_differences_of_the_gradient(dim, alpha):
    params = None if alpha is None else green.EwaldParameters.for_alpha(alpha)
    X = _hessian_points(np.random.default_rng([dim, 41]), dim)
    hess = green.green_hess_many(dim, X, params)
    h = 1e-6
    fd = np.empty_like(hess)
    for j in range(dim):
        e = np.zeros(dim)
        e[j] = h
        fd[:, :, j] = (green.green_grad_many(dim, X + e, params)
                       - green.green_grad_many(dim, X - e, params)) / (2 * h)
    scale = np.maximum(1.0, np.abs(hess).max(axis=(1, 2)))
    assert (np.abs(fd - hess).max(axis=(1, 2)) <= 1e-7 * scale).all()


@pytest.mark.parametrize("alpha", HESSIAN_PARAMS)
@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_trace_is_one_away_from_lattice_points(dim, alpha):
    # -lap G = delta - 1: the identity holds for the exact G, whatever the method
    params = None if alpha is None else green.EwaldParameters.for_alpha(alpha)
    X = _hessian_points(np.random.default_rng([dim, 43]), dim, 200)
    trace = np.trace(green.green_hess_many(dim, X, params), axis1=1, axis2=2)
    assert np.abs(trace - 1.0).max() <= 1e-11


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_is_even_and_symmetric(dim):
    X = _hessian_points(np.random.default_rng([dim, 47]), dim)
    hess = green.green_hess_many(dim, X)
    assert np.array_equal(green.green_hess_many(dim, -X), hess)
    assert np.array_equal(hess, hess.transpose(0, 2, 1))


@pytest.mark.parametrize("alpha", HESSIAN_PARAMS)
@pytest.mark.parametrize("dim", [2, 3])
def test_kernel_rows_with_the_hessian_are_bitwise_their_one_row_calls(dim, alpha):
    # the placement's Newton steps read these rows from stacked calls over the restarts
    params = green._resolve(None if alpha is None else green.EwaldParameters.for_alpha(alpha))
    X = np.array([random_torus_point(np.random.default_rng([dim, i]), dim, min_dist=1e-3)
                  * np.where(np.arange(dim) % 2, -1.0, 1.0) for i in range(40)])
    X = green.min_image(X)
    value, grad, hess = green._pair_part(dim, X, params, 2)
    # the Hessian leaves the value and gradient bits alone
    plain = green._pair_part(dim, X, params, 1)
    assert np.array_equal(plain[0], value) and np.array_equal(plain[1], grad)
    # the whole G's Hessian, the per-pair part plus the long-range part, row by row as well
    whole = green.green_hess_many(dim, X, params)
    for i in range(len(X)):
        one = green._pair_part(dim, X[i:i + 1], params, 2)
        assert one[0][0] == value[i]
        assert np.array_equal(one[1][0], grad[i]) and np.array_equal(one[2][0], hess[i])
        assert np.array_equal(green.green_hess_many(dim, X[i:i + 1], params)[0], whole[i])
