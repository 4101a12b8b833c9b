import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oklim import local

PI = math.pi


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def disc_perimeter_oracle(m, n=4096):
    """Perimeter of the area-m disc from polyline length, Richardson-refined."""
    r = math.sqrt(m / PI)

    def polyline(k):
        th = 2 * PI * np.arange(k + 1) / k
        pts = r * np.stack([np.cos(th), np.sin(th)], axis=1)
        return float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))

    p1, p2 = polyline(n), polyline(2 * n)
    return (4 * p2 - p1) / 3.0


def f0_quadrature_oracle(m, n_r=256, n_ang=512):
    """-(1/2 pi) II_{B x B} log|x-y| by staggered tensor-product quadrature.

    Radial Gauss-Legendre x uniform angles for both factors; the two angular
    grids are offset by half a step so no node pair coincides, and the double
    angular sum collapses exactly to a single sum over relative angles.
    Effective node pairs: (n_r * n_ang)^2 >= 1e6.
    """
    a = math.sqrt(m / PI)
    xr, wr = leggauss(n_r)
    r = 0.5 * a * (xr + 1.0)
    w = 0.5 * a * wr * r
    rel = (np.arange(n_ang) + 0.5) * (2 * PI / n_ang)
    d2 = (r[:, None, None] ** 2 + r[None, :, None] ** 2
          - 2.0 * r[:, None, None] * r[None, :, None] * np.cos(rel)[None, None, :])
    s = np.einsum("i,k,ikm->", w, w, np.log(d2)) * 0.5 * (2 * PI) ** 2 / n_ang
    return -s / (2 * PI)


def ball_h1_radial_oracle(n=200):
    """|chi_{B_1}|^2_{H^-1(R^3)} from a radial Poisson solve by quadrature."""
    xr, wr = leggauss(n)
    rho = 0.5 * (xr + 1.0)
    wrho = 0.5 * wr

    def potential(p):
        s1 = 0.5 * p * (xr + 1.0)
        w1 = 0.5 * p * wr
        s2 = p + 0.5 * (1 - p) * (xr + 1.0)
        w2 = 0.5 * (1 - p) * wr
        return float(np.sum(w1 * s1 * s1) / p + np.sum(w2 * s2))

    v = np.array([potential(p) for p in rho])
    return float(np.sum(wrho * v * 4 * PI * rho**2))


def brute_force_partition(M, steps=200, max_parts=4):
    """Minimum of sum e2d(parts) over the simplex grid with step M/steps."""
    s = M / steps

    def val(ms):
        ms = np.asarray(ms, dtype=float) * s
        return np.sum(ms * ms / (2 * PI) + 2.0 * np.sqrt(PI * ms), axis=0)

    best = val([steps])
    best_parts = (steps,)
    for a in range(1, steps):
        b = steps - a
        v = float(val([a, b]))
        if v < best:
            best, best_parts = v, (a, b)
    grid = np.arange(1, steps)
    for a in range(1, steps - 1):
        b = grid[(grid >= a) & (grid <= steps - a - 1)]
        c = steps - a - b
        keep = c >= b
        if not np.any(keep):
            continue
        v = val([np.full(np.sum(keep), a), b[keep], c[keep]])
        i = int(np.argmin(v))
        if v[i] < best:
            best, best_parts = float(v[i]), (a, int(b[keep][i]), int(c[keep][i]))
    for a in range(1, steps - 2):
        for b in range(a, (steps - a) // 2 + 1):
            rest = steps - a - b
            c = grid[(grid >= b) & (grid <= rest - 1)]
            d = rest - c
            keep = d >= c
            if not np.any(keep):
                continue
            v = val([np.full(np.sum(keep), a), np.full(np.sum(keep), b), c[keep], d[keep]])
            i = int(np.argmin(v))
            if v[i] < best:
                best, best_parts = float(v[i]), (a, b, int(c[keep][i]), int(d[keep][i]))
    return best, best_parts


# ---------------------------------------------------------------------------
# 2D closed form and envelope
# ---------------------------------------------------------------------------

def test_e2d_closed_form_and_perimeter_oracle():
    rng = np.random.default_rng(0)
    ms = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
    for m in ms:
        assert abs(local.e2d(m) - (m * m / (2 * PI) + 2 * math.sqrt(PI * m))) \
            <= 1e-12 * local.e2d(m)
    for m in (0.5, PI, 7.3):
        assert abs(disc_perimeter_oracle(m) - 2 * math.sqrt(PI * m)) \
            <= 1e-10 * 2 * math.sqrt(PI * m)


def test_e2d_value_at_pi():
    assert abs(local.e2d(PI) - 2.5 * PI) < 1e-12


def test_e2d_substitution_identity():
    # e2d(m) = 2^(5/3) pi f(m / (2^(4/3) pi)) with f(x) = x^2 + sqrt(x)
    rng = np.random.default_rng(1)
    for m in np.exp(rng.uniform(-2, 4, size=10)):
        x = m / (2 ** (4.0 / 3.0) * PI)
        expect = 2 ** (5.0 / 3.0) * PI * (x * x + math.sqrt(x))
        assert abs(local.e2d(m) - expect) <= 1e-12 * expect


def test_envelope_single_particle_below_threshold():
    res = local.envelope(2, 1.0)
    assert res.n == 1
    assert res.per_mass == 1.0
    assert 1.0 < local.SINGLE_PARTICLE_THRESHOLD < 2.0


def test_envelope_matches_brute_force():
    best, parts = brute_force_partition(20.0)
    res = local.envelope(2, 20.0)
    assert res.envelope_value <= best + 1e-12
    nz = [p for p in parts if p > 0]
    assert max(nz) - min(nz) <= 1  # equal parts win on the grid


def test_envelope_continuous_relaxation_bracket():
    rng = np.random.default_rng(2)
    for M in rng.uniform(local.OPTIMAL_PER_MASS, 80.0, size=25):
        t_star = M / local.OPTIMAL_PER_MASS
        res = local.envelope(2, M)
        assert res.n in (math.floor(t_star), math.ceil(t_star))


def test_envelope_invariants():
    rng = np.random.default_rng(3)
    for M in rng.uniform(0.05, 60.0, size=50):
        res = local.envelope(2, M)
        assert abs(res.n * res.per_mass - M) <= 1e-12 * M
        assert res.envelope_value <= local.e2d(M) * (1 + 1e-15)
        if res.n == 1:
            assert res.envelope_value == local.e2d(M)
        else:
            assert res.envelope_value < local.e2d(M)
            assert res.per_mass >= local.SINGLE_PARTICLE_THRESHOLD - 1e-9


def test_envelope_subadditive():
    rng = np.random.default_rng(4)
    for _ in range(100):
        m1, m2 = rng.uniform(0.1, 40.0, size=2)
        lhs = local.envelope(2, m1 + m2).envelope_value
        rhs = local.envelope(2, m1).envelope_value + local.envelope(2, m2).envelope_value
        assert lhs <= rhs * (1 + 1e-12)


def _envelope_by_search(M):
    """The former O(M) search: every count up to ceil(M / threshold) + 1, first minimum."""
    ns = np.arange(1, int(math.ceil(M / local.SINGLE_PARTICLE_THRESHOLD)) + 2, dtype=float)
    m = M / ns
    vals = ns * (m * m / (2 * math.pi) + 2.0 * np.sqrt(math.pi * m))
    i = int(np.argmin(vals))
    return i + 1, float(vals[i])


# masses at which n and n + 1 parts cost exactly the same in floating point, n = 1, 2, 3
_EXACT_TIES = (6.982743252093421, 12.173829802451708, 17.24562742100342)


def test_envelope_matches_the_full_search():
    for n, M in enumerate(_EXACT_TIES, start=1):
        assert _envelope_by_search(M)[0] == n  # the search keeps the first minimum
        assert n * local.e2d(M / n) == (n + 1) * local.e2d(M / (n + 1))
    rng = np.random.default_rng(29)
    Ms = np.concatenate([np.exp(rng.uniform(math.log(0.05), math.log(1e4), 400)),
                         local.OPTIMAL_PER_MASS * np.arange(1, 30), _EXACT_TIES])
    for M in Ms:
        res = local.envelope(2, M)
        n, value = _envelope_by_search(M)
        assert (res.n, res.envelope_value) == (n, value)  # same arithmetic: bitwise equal
    assert np.array_equal(local.envelope_many(2, Ms), [_envelope_by_search(M)[1] for M in Ms])


def test_envelope_tie_breaks_to_smaller_n():
    # at M with n e2d(M/n) == (n+1) e2d(M/(n+1)) the smaller count is returned;
    # nearby masses bracket the transition
    lo, hi = 2 * local.SINGLE_PARTICLE_THRESHOLD, 2 * local.OPTIMAL_PER_MASS
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if local.envelope(2, mid).n == 1:
            lo = mid
        else:
            hi = mid
    assert local.envelope(2, lo).n == 1
    assert local.envelope(2, hi).n == 2


# ---------------------------------------------------------------------------
# f0
# ---------------------------------------------------------------------------

def test_f0_against_quadrature_oracle():
    val = f0_quadrature_oracle(1.0)
    assert abs(val - local.f0(1.0)) <= 1e-4 * abs(local.f0(1.0))


def test_f0_closed_form_value():
    # log(m/pi) vanishes at m = pi, leaving the pure disc constant
    assert abs(local.f0(PI) - PI / 8.0) < 1e-14


def test_f0_scaling_identity():
    lam, m0 = 2.0, 1.0
    lhs = local.f0(lam**2 * m0) / lam**4
    rhs = local.f0(m0) - (m0**2 / (4 * PI)) * 2 * math.log(lam)
    assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


# ---------------------------------------------------------------------------
# 3D ball ansatz
# ---------------------------------------------------------------------------

def test_e3d_ball_unit_radius():
    b = local.e3d_ball(4 * PI / 3)
    assert abs(b.perimeter_term - 4 * PI) < 1e-12
    assert abs(b.self_h1_term - 8 * PI / 15) < 1e-12
    assert abs(b.total - 68 * PI / 15) <= 1e-12 * b.total
    assert b.total == b.parts_sum()


def test_e3d_ball_radial_poisson_oracle():
    oracle = ball_h1_radial_oracle()
    b = local.e3d_ball(4 * PI / 3)
    assert abs(b.self_h1_term - oracle) <= 1e-8 * oracle


def test_e3d_ball_small_mass_limit():
    b = local.e3d_ball(1e-9)
    r = local.ball_radius_3d(1e-9)
    assert b.self_h1_term / b.perimeter_term == pytest.approx(2 * r**3 / 15, rel=1e-12)
    assert b.total < 1e-3


def test_scalar_energies_are_bitwise_the_array_path():
    # the scalar functions and the envelope read one table, so they agree to the bit
    masses = np.exp(np.random.default_rng(24).uniform(math.log(1e-6), math.log(40.0), 6000))
    for dim, scalar in ((2, local.e2d), (3, lambda m: local.e3d_ball(m).total)):
        whole = masses[local._best_count(dim, masses)[0] == 1]
        assert whole.size >= 2000
        assert [scalar(m) for m in whole.tolist()] == local.envelope_many(dim, whole).tolist()
    assert [local.f0(m) for m in masses.tolist()] == local._particles(2, masses)[3].tolist()


def test_unit_radii_are_within_one_ulp_of_the_exact_roots():
    mpmath = pytest.importorskip("mpmath")
    masses = np.exp(np.random.default_rng(24).uniform(math.log(1e-6), math.log(1e4), 2000))
    with mpmath.workdps(40):
        for dim in (2, 3):
            for m, r in zip(masses.tolist(), local._particles(dim, masses)[0].tolist()):
                mp, pi = mpmath.mpf(m), mpmath.pi
                exact = mpmath.sqrt(mp / pi) if dim == 2 else mpmath.cbrt(3 * mp / (4 * pi))
                assert abs(mpmath.mpf(r) - exact) <= math.ulp(float(exact))


def test_scalar_energies_overflow_to_inf_without_a_warning():
    # the RuntimeWarning filter of the test settings turns a numpy overflow warning into an error
    assert local.e2d(1e200) == math.inf
    assert local.f0(1e200) == -math.inf
    assert local.e3d_ball(1e308).total == math.inf


def test_e3d_ball_dilation_identity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = rng.uniform(0.1, 30.0)
        eps = rng.uniform(-0.4 * m, m)
        b = local.e3d_ball(m)
        lhs = ((1 + eps / m) ** (2.0 / 3.0) * b.perimeter_term
               + (1 + eps / m) ** (5.0 / 3.0) * b.self_h1_term)
        rhs = local.e3d_ball(m + eps).total
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_concavity_coefficient_signs():
    assert abs(local.concavity_coefficient(2 * PI)) < 1e-10
    assert local.concavity_coefficient(PI) < 0
    assert local.concavity_coefficient(4 * PI) > 0


def test_ball_energy_second_differences_concave_then_convex():
    h = 1e-3
    ms = np.arange(0.1, 2 * PI - 0.1, h)
    tot = np.array([local.e3d_ball(m).total for m in np.concatenate([ms - h, ms, ms + h])])
    n = len(ms)
    second = tot[2 * n:] - 2 * tot[n:2 * n] + tot[:n]
    assert np.all(second < 0)
    big = 4 * PI
    s = (local.e3d_ball(big + h).total - 2 * local.e3d_ball(big).total
         + local.e3d_ball(big - h).total)
    assert s > 0


def test_monotonicity_of_local_energies():
    ms = np.linspace(0.05, 50.0, 300)
    e2 = np.array([local.e2d(m) for m in ms])
    e3 = np.array([local.e3d_ball(m).total for m in ms])
    assert np.all(np.diff(e2) > 0)
    assert np.all(np.diff(e3) > 0)


# ---------------------------------------------------------------------------
# splitting threshold
# ---------------------------------------------------------------------------

def test_splitting_threshold_defining_equation():
    mstar = local.splitting_threshold_3d()
    gap = local.e3d_ball(mstar).total - 2 * local.e3d_ball(mstar / 2).total
    assert abs(gap) < 1e-8 * local.e3d_ball(mstar).total


def test_splitting_threshold_algebraic_oracle():
    # with e(m) = c2 m^(2/3) + c5 m^(5/3) and c2/c5 = 10 pi the root reduces to
    # m* = 10 pi (2^(1/3) - 1) / (1 - 2^(-2/3))
    closed = 10 * PI * (2 ** (1.0 / 3.0) - 1) / (1 - 2 ** (-2.0 / 3.0))
    assert abs(local.splitting_threshold_3d() - closed) <= 4 * math.ulp(closed)


def test_single_ball_wins_below_threshold():
    m = local.splitting_threshold_3d() / 2
    assert local.e3d_ball(m).total < 2 * local.e3d_ball(m / 2).total


# ---------------------------------------------------------------------------
# 3D envelope (ball ansatz)
# ---------------------------------------------------------------------------

def _ball(m):
    r = (3.0 * np.asarray(m, dtype=float) / (4 * PI)) ** (1.0 / 3.0)
    return 4 * PI * r * r + 8 * PI * r**5 / 15.0


@pytest.mark.parametrize("M, n, value", [(22.1, 2, 64.8604), (40.0, 3, 116.1985),
                                         (100.0, 6, 289.7605)])
def test_envelope_3d_values(M, n, value):
    res = local.envelope(3, M)
    assert res.n == n and res.per_mass == M / n
    assert res.envelope_value == pytest.approx(value, abs=5e-5)
    assert res.envelope_value == pytest.approx(n * local.e3d_ball(M / n).total, rel=1e-15)


def test_envelope_3d_count_changes_at_the_splitting_mass():
    mstar = local.splitting_threshold_3d()
    assert local.envelope(3, mstar * (1 - 1e-12)).n == 1
    assert local.envelope(3, mstar * (1 + 1e-12)).n == 2
    below = np.exp(np.linspace(math.log(1e-6), math.log(0.999 * mstar), 500))
    ref = np.array([local.e3d_ball(m).total for m in below])
    assert np.all(np.abs(local.envelope_many(3, below) - ref) <= 1e-15 * ref)


def test_envelope_3d_matches_brute_force_splits():
    # every equal split into k <= 60 balls, and k1 balls of mass a plus k2 of mass b
    ks = np.arange(1.0, 61.0)
    for M in (0.5, 5.0, 22.1, 40.0, 100.0, 300.0):
        res = local.envelope(3, M)
        equal = ks * _ball(M / ks)
        assert res.n == int(ks[np.argmin(equal)])
        assert res.envelope_value == pytest.approx(float(np.min(equal)), rel=1e-15)
        for k1 in range(1, 9):
            a = M / k1 * np.linspace(0.01, 0.99, 197)
            for k2 in range(1, 9):
                two = k1 * _ball(a) + k2 * _ball((M - k1 * a) / k2)
                assert res.envelope_value <= float(np.min(two)) * (1 + 1e-12)


def test_envelope_rejects_a_dim_other_than_2_or_3():
    with pytest.raises(ValueError, match="dim"):
        local.envelope(4, 1.0)
    with pytest.raises(ValueError, match="dim"):
        local.envelope_many(1, [1.0])


# ---------------------------------------------------------------------------
# Lipschitz probe of the 2D envelope
# ---------------------------------------------------------------------------

def lipschitz_probe_envelope(delta, n_pairs=10_000):
    """Max adjacent difference quotient of the 2D envelope over a grid on [delta, 1/delta]."""
    grid = np.linspace(delta, 1.0 / delta, n_pairs + 1)
    vals = local.envelope_many(2, grid)
    return float(np.max(np.abs(np.diff(vals)) / np.diff(grid)))


def test_lipschitz_probe_stability_under_refinement():
    v1 = lipschitz_probe_envelope(0.1)
    v2 = lipschitz_probe_envelope(0.1, n_pairs=20_000)
    assert math.isfinite(v1)
    assert abs(v2 - v1) <= 0.05 * v1


def test_lipschitz_probe_monotone_in_interval():
    assert lipschitz_probe_envelope(0.5) <= lipschitz_probe_envelope(0.1)


def test_lipschitz_probe_bounded_at_transitions():
    # slope near partition-count transition masses n * 2^(2/3) pi stays bounded
    probes = []
    for n in (1, 2, 3):
        center = n * local.OPTIMAL_PER_MASS
        grid = np.linspace(center - 0.05, center + 0.05, 201)
        vals = local.envelope_many(2, grid)
        probes.append(np.max(np.abs(np.diff(vals)) / np.diff(grid)))
    bound = lipschitz_probe_envelope(0.05)
    assert all(p <= bound * 1.01 for p in probes)
