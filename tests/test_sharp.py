import contextlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import scipy.special
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oklim import green, limits, local, sharp
from oklim.errors import (CutoffTooSmall, DiameterTooLarge, InadmissibleConfiguration,
                          OverlappingBalls, UnequalMasses2D)

PI = math.pi

FIXTURES_2D = [
    sharp.BallConfiguration(2, 0.01, [(2.0, (0.3, 0.7))]),
    sharp.BallConfiguration(2, 0.01, [(2 ** (2 / 3) * PI, (0.0, 0.0)),
                                      (2 ** (2 / 3) * PI, (0.5, 0.5))]),
    sharp.BallConfiguration(2, 0.05, [(1.5, (0.1, 0.2)), (1.5, (0.6, 0.1)),
                                      (1.5, (0.35, 0.8))]),
    sharp.BallConfiguration(2, 0.2, [(1.0, (0.1, 0.1)),
                                     (0.8, (0.1 + 0.2 * math.sqrt(1 / PI)
                                            + 0.2 * math.sqrt(0.8 / PI) + 2e-5, 0.1))]),
]

FIXTURES_3D = [
    sharp.BallConfiguration(3, 0.05, [(1.0, (0.3, 0.7, 0.2))]),
    sharp.BallConfiguration(3, 0.02, [(1.0, (0.0, 0.0, 0.0)), (1.0, (0.5, 0.5, 0.5))]),
    sharp.BallConfiguration(3, 0.1, [(1.0, (0.1, 0.2, 0.3)), (0.7, (0.6, 0.7, 0.9)),
                                     (1.3, (0.9, 0.2, 0.6))]),
]


def _jittered_2d_n9():
    """Unequal masses on a jittered 3 x 3 lattice at eta = 1e-4."""
    rng = np.random.default_rng(9)
    sites = np.stack(np.meshgrid(np.arange(3) / 3, np.arange(3) / 3, indexing="ij"),
                     axis=-1).reshape(-1, 2)
    x = (sites + rng.uniform(-0.05, 0.05, sites.shape)) % 1.0
    return sharp.BallConfiguration(2, 1e-4, list(zip(rng.uniform(0.5, 1.5, 9), map(tuple, x))))


JITTERED_2D_N9 = _jittered_2d_n9()


def exact_total_via_green(config, params):
    """Closed-form energy through the point Green's function.

    Exact for balls: the regular part g solves lap g = 1 on the cell, so its
    pair-ball averages are g(0) + a^2/5 (3D) and g(0) + a^2/4 (2D) for self
    pairs and G(c) + (a^2+b^2)/10 resp. (a^2+b^2)/8 for cross pairs, by the
    mean value property of g minus its quadratic part.
    """
    eta = config.eta
    m = config.masses
    x = config.positions
    a = config.radii
    g0 = green.regular_part_at_zero(config.dim, params)
    if config.dim == 3:
        pref = eta
        base = sum(local.e3d_ball(mi).total for mi in m)
        self_part = sum(mi**2 * (g0 + ai**2 / 5.0) for mi, ai in zip(m, a))
        cross = 0.0
        for i in range(len(m)):
            for j in range(len(m)):
                if i != j:
                    gv = green.green_eval(3, x[i] - x[j], params)
                    cross += m[i] * m[j] * (gv + (a[i] ** 2 + a[j] ** 2) / 10.0)
        return base + pref * (self_part + cross)
    pref = 1.0 / abs(math.log(eta))
    base = sum(local.e2d(mi) for mi in m)
    self_part = sum(local.f0(mi) + mi**2 * (g0 + ai**2 / 4.0) for mi, ai in zip(m, a))
    cross = 0.0
    for i in range(len(m)):
        for j in range(len(m)):
            if i != j:
                gv = green.green_eval(2, x[i] - x[j], params)
                cross += m[i] * m[j] * (gv + (a[i] ** 2 + a[j] ** 2) / 8.0)
    return base + pref * (self_part + cross)


# ---------------------------------------------------------------------------
# validation and error paths
# ---------------------------------------------------------------------------

def test_configuration_validation():
    with pytest.raises(ValueError):
        sharp.BallConfiguration(3, 0.3, [(1.0, (0.1, 0.1, 0.1))])
    with pytest.raises(DiameterTooLarge):
        sharp.BallConfiguration(3, 0.25, [(10.0, (0.1, 0.1, 0.1))])
    with pytest.raises(OverlappingBalls):
        sharp.BallConfiguration(3, 0.1, [(1.0, (0.1, 0.1, 0.1)),
                                         (1.0, (0.15, 0.1, 0.1))])
    with pytest.raises(ValueError):
        sharp.sharp_energy(FIXTURES_3D[0], fourier_cutoff=8)


@pytest.mark.parametrize("cfg", FIXTURES_2D + FIXTURES_3D)
def test_radii_are_one_read_only_array_of_the_masses(cfg):
    # bitwise eta times the unit radii of local's particle table
    assert cfg.radii.tolist() == (cfg.eta * local._particles(cfg.dim, cfg.masses)[0]).tolist()
    assert cfg.radii is cfg.radii and not hasattr(cfg, "particles")
    assert cfg.pairs[3].tolist() == limits._pairs(cfg.positions)[3].tolist()
    for a in (cfg.radii, *cfg.pairs):
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert sharp.ball_scale_radius(cfg.dim, cfg.masses, cfg.eta).tolist() == cfg.radii.tolist()


def test_cutoff_too_small_on_direct_mode():
    cfg = sharp.BallConfiguration(3, 0.02, [(1.0, (0.1, 0.2, 0.3))])
    with pytest.raises(CutoffTooSmall):
        sharp.sharp_energy(cfg, fourier_cutoff=40, method="direct")


# ---------------------------------------------------------------------------
# agreement of independent evaluations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", FIXTURES_2D + FIXTURES_3D + [JITTERED_2D_N9])
def test_matches_exact_green_identity(config, params):
    bd = sharp.sharp_energy(config)
    expect = exact_total_via_green(config, params)
    assert abs(bd.total - expect) <= 1e-10 * abs(expect)
    assert bd.total == pytest.approx(bd.parts_sum(), rel=1e-12)
    assert bd.tail_bound <= 1e-8 * abs(bd.total)


@pytest.mark.parametrize("dim", [3, 2])
@pytest.mark.parametrize("eta", [0.05, 1e-4, 1e-6])
def test_single_ball_decomposition_cross_check(eta, dim, params):
    # scale-free whole-space self part plus g-integral, g-integral taken as
    # m^2 g(0) (plus f0 in 2D) and its second-order ball correction.  pref times
    # the singular self-mean is the whole-space self energy, so the regular self
    # term is exact at every scale
    m = 1.0 if dim == 3 else 2.0
    cfg = sharp.BallConfiguration(dim, eta, [(m, (0.4, 0.1, 0.8)[:dim])])
    bd = sharp.sharp_energy(cfg)
    a = cfg.radii[0]
    g0 = green.regular_part_at_zero(dim, params)
    if dim == 3:
        regular_self = eta * m * m * (g0 + a * a / 5.0)
        expect = local.e3d_ball(m).total + regular_self
    else:
        regular_self = (local.f0(m) + m * m * g0 + m * m * a * a / 4.0) / abs(math.log(eta))
        expect = local.e2d(m) + regular_self
    assert abs(bd.regular_self_term - regular_self) <= 1e-14 * abs(regular_self)
    assert abs(bd.total - expect) <= 1e-6 * expect
    # the long-range coefficient matched to the scale: eta^-3, or (|log eta| eta^3)^-1
    gamma = eta**-3 if dim == 3 else 1.0 / (abs(math.log(eta)) * eta**3)
    assert bd.gamma == pytest.approx(gamma, rel=1e-15)
    assert sharp.gamma_for(3, 0.1) == pytest.approx(1000.0, rel=1e-12)


def test_direct_mode_agrees_2d():
    cfg = sharp.BallConfiguration(2, 0.25, [(1.0, (0.1, 0.2)), (0.7, (0.6, 0.7))])
    bd_e = sharp.sharp_energy(cfg)
    bd_d = sharp.sharp_energy(cfg, fourier_cutoff=300, method="direct")
    assert abs(bd_d.total - bd_e.total) <= max(bd_d.tail_bound, 1e-10)
    bd_d2 = sharp.sharp_energy(cfg, fourier_cutoff=600, method="direct")
    assert abs(bd_d2.total - bd_d.total) <= 1e-8 * abs(bd_d.total)


@pytest.mark.slow
def test_direct_mode_agrees_3d():
    cfg = sharp.BallConfiguration(3, 0.25, [(1.0, (0.1, 0.2, 0.3)),
                                            (0.7, (0.6, 0.7, 0.9))])
    bd_e = sharp.sharp_energy(cfg)
    bd_d = sharp.sharp_energy(cfg, fourier_cutoff=260, method="direct")
    assert abs(bd_d.total - bd_e.total) <= bd_d.tail_bound


def _per_mode_pair_sums(config, cutoff):
    """diag and off of the truncated mode sum, one mode of the full cube at a time."""
    m, x, a = config.masses, config.positions, config.radii
    k = np.stack(np.meshgrid(*([np.arange(-cutoff, cutoff + 1.0)] * config.dim),
                             indexing="ij"), axis=-1).reshape(-1, config.dim)
    k2 = np.sum(k**2, axis=1)
    k = k[(k2 > 0) & (k2 <= cutoff**2)]
    S = np.zeros((config.n, config.n))
    for kv in k:
        t = 2 * PI * np.linalg.norm(kv) * a
        if config.dim == 3:
            phi = 3 * (np.sin(t) - t * np.cos(t)) / t**3
        else:
            phi = 2 * scipy.special.j1(t) / t
        mp = m * phi
        ph = 2 * PI * (x @ kv)
        S += np.outer(mp, mp) * np.cos(ph[:, None] - ph[None, :]) / (4 * PI**2 * (kv @ kv))
    return float(np.trace(S)), float(np.sum(S) - np.trace(S))


@pytest.mark.parametrize("dim, eta, cutoff, particles", [
    (2, 0.2, 24, [(1.3, (0.3, 0.7))]),
    (2, 0.2, 24, [(1.0, (0.1, 0.2)), (0.6, (0.1, 0.65))]),
    (2, 0.2, 24, [(1.0, (0.1, 0.2)), (0.6, (0.1, 0.65)), (1.4, (0.55, 0.4))]),
    (3, 0.15, 12, [(1.3, (0.3, 0.7, 0.2))]),
    (3, 0.15, 12, [(1.0, (0.1, 0.2, 0.3)), (0.6, (0.1, 0.65, 0.3))]),
    (3, 0.15, 12, [(1.0, (0.1, 0.2, 0.3)), (0.6, (0.1, 0.65, 0.3)), (1.4, (0.55, 0.4, 0.8))]),
])
def test_direct_pair_sums_match_per_mode_reference(monkeypatch, dim, eta, cutoff, particles):
    # the orthant/shell rearrangement against the sum it rearranges; the shared
    # coordinate puts a zero difference on an axis.  Small windows and blocks
    # put many window and block edges inside the cutoff.
    cfg = sharp.BallConfiguration(dim, eta, particles)
    ref_diag, ref_off = _per_mode_pair_sums(cfg, cutoff)
    for window, chunk in [(sharp._WINDOW, sharp._CHUNK), (29, 11)]:
        monkeypatch.setattr(sharp, "_WINDOW", window)
        monkeypatch.setattr(sharp, "_CHUNK", chunk)
        diag, off, _ = sharp._pair_sums_direct(cfg, cutoff)
        assert abs(diag - ref_diag) <= 1e-13 * abs(ref_diag)
        assert abs(off - ref_off) <= 1e-13 * abs(ref_off)


def test_direct_mode_calls_nothing_of_green_or_limits(monkeypatch):
    # the oracle is independent of G: it still runs with every G kernel broken
    def broken(*args, **kwargs):
        raise AssertionError("the direct mode sum called into green or limits")

    for module, name in [(green, "_pair_part"), (green, "_set_long_range"),
                         (green, "regular_part_at_zero"), (green, "truncation_bound"),
                         (limits, "_second_order_parts")]:
        monkeypatch.setattr(module, name, broken)
    for cfg in (sharp.BallConfiguration(2, 0.25, [(1.0, (0.1, 0.2)), (0.7, (0.6, 0.7))]),
                sharp.BallConfiguration(3, 0.25, [(1.0, (0.1, 0.2, 0.3)), (0.7, (0.6, 0.7, 0.9))])):
        bd = sharp.sharp_energy(cfg, fourier_cutoff=300, method="direct")
        assert math.isfinite(bd.total) and 0.0 < bd.tail_bound


@pytest.mark.parametrize("dim, eta, cutoff, particles", [
    (2, 0.2, 60, [(1.0, (0.1, 0.2)), (0.6, (0.1, 0.65)), (1.4, (0.55, 0.4))]),
    (3, 0.15, 20, [(1.0, (0.1, 0.2, 0.3)), (0.6, (0.1, 0.65, 0.3)), (1.4, (0.55, 0.4, 0.8))]),
])
def test_direct_pair_sums_are_invariant_under_permutation(dim, eta, cutoff, particles):
    # particles 0 and 1 share coordinates; every order of the three gives the same sums
    diag, off, _ = sharp._pair_sums_direct(sharp.BallConfiguration(dim, eta, particles), cutoff)
    for order in [(1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)]:
        cfg = sharp.BallConfiguration(dim, eta, [particles[i] for i in order])
        d, o, _ = sharp._pair_sums_direct(cfg, cutoff)
        assert abs(d - diag) <= 1e-14 * abs(diag)
        assert abs(o - off) <= 1e-14 * abs(off)


def _mpmath_tail(dim, cutoff, masses, radii):
    """1.6 times the envelope integral, split at each kink where the envelope switches."""
    mpmath.mp.dps = 30

    def f(t):
        return 3 * (1 + t) / t**3 if dim == 3 else mpmath.sqrt(8 / mpmath.pi) * t**-1.5

    t_kink = mpmath.findroot(lambda t: f(t) - 1, 2.0)
    kinks = [t_kink / (2 * mpmath.pi * mpmath.mpf(r)) for r in radii]

    def integrand(k):
        env = sum(mpmath.mpf(mi) * min(1, f(2 * mpmath.pi * k * mpmath.mpf(r)))
                  for mi, r in zip(masses, radii))
        shell = 4 * mpmath.pi * k * k if dim == 3 else 2 * mpmath.pi * k
        return env**2 * shell / (4 * mpmath.pi**2 * k * k)

    points = [mpmath.mpf(cutoff)] + sorted(k for k in kinks if k > cutoff) + [mpmath.inf]
    return 1.6 * float(mpmath.quad(integrand, points))


@pytest.mark.parametrize("cutoff", [16, 100, 500])
@pytest.mark.parametrize("dim, radii", [(2, (0.02, 0.004, 0.0005)), (3, (0.03, 0.006, 0.0008))])
def test_direct_tail_is_the_exact_envelope_integral(dim, radii, cutoff):
    # the kinks sit near |k| = 11, 55 and 420, so the cutoffs fall between them
    masses = np.array([1.0, 0.5, 2.0])
    tail = sharp._direct_mode_tail(dim, cutoff, masses, np.array(radii))
    assert tail == pytest.approx(_mpmath_tail(dim, cutoff, masses, radii), rel=1e-12)


def test_direct_mode_memory_stays_bounded():
    # in 3D the whole (k_2, k_3) plane would be (cutoff + 1)^2 int64 per array
    for dim, cutoff in [(2, 500), (3, 400)]:
        cfg = sharp.BallConfiguration(dim, 0.25, [(1.0, (0.1, 0.2, 0.3)[:dim]),
                                                  (0.7, (0.6, 0.7, 0.9)[:dim])])
        tracemalloc.start()
        try:
            sharp.sharp_energy(cfg, fourier_cutoff=cutoff, method="direct")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3e6, (dim, peak)


@pytest.mark.parametrize("cutoff", [16, 100, 300])
@pytest.mark.parametrize("config", FIXTURES_2D + FIXTURES_3D + [JITTERED_2D_N9])
def test_direct_mode_emits_no_warnings(config, cutoff):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.suppress(CutoffTooSmall):
            sharp.sharp_energy(config, fourier_cutoff=cutoff, method="direct")


# 2 or 3 discs of unequal mass on jittered sites of the 2 x 2 lattice, shifted as
# a whole.  Radii stay below 0.25 sqrt(1.5 / pi) < 0.18 and sites move by at most
# 0.04 per coordinate, so neighbours keep a gap above 0.42 - 0.35.  With eta >= 0.22
# and at most 3 discs, the direct sum's tail at cutoff 300 stays within its contract.
_SITES_2D = np.array([(0.0, 0.0), (0.5, 0.0), (0.0, 0.5), (0.5, 0.5)])


@st.composite
def disjoint_discs(draw):
    n = draw(st.integers(2, 3))
    eta = draw(st.floats(0.22, 0.25))
    masses = draw(st.lists(st.floats(0.7, 1.5), min_size=n, max_size=n))
    jitter = draw(st.lists(st.floats(-0.04, 0.04), min_size=2 * n, max_size=2 * n))
    shift = draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    x = (_SITES_2D[draw(st.permutations(range(4)))[:n]]
         + np.reshape(jitter, (n, 2)) + np.array(shift)) % 1.0
    return sharp.BallConfiguration(2, eta, list(zip(masses, map(tuple, x))))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(disjoint_discs())
def test_closed_form_agrees_with_direct_mode_sum(cfg):
    # the direct mode sum shares no code with G: agreement is not circular
    bd = sharp.sharp_energy(cfg)
    bd_d = sharp.sharp_energy(cfg, fourier_cutoff=300, method="direct")
    assert 0.0 < bd.tail_bound <= 1e-8 * abs(bd.total)
    assert abs(bd_d.total - bd.total) <= bd_d.tail_bound + bd.tail_bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(disjoint_discs(), st.data())
def test_invariant_under_permutation_and_translation(cfg, data):
    base = sharp.sharp_energy(cfg).total
    order = data.draw(st.permutations(range(cfg.n)))
    shift = np.array(data.draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0))))
    moved = sharp.BallConfiguration(
        2, cfg.eta, zip(cfg.masses[order], (cfg.positions[order] + shift) % 1.0))
    assert abs(sharp.sharp_energy(moved).total - base) <= 1e-12 * abs(base)


def test_tail_bound_is_greens_truncation_bound():
    cfg = FIXTURES_2D[2]
    pref = 1.0 / abs(math.log(cfg.eta))
    for alpha in (math.sqrt(PI), 3.0):
        p = green.EwaldParameters.for_alpha(alpha)
        bd = sharp.sharp_energy(cfg, params=p)
        expect = pref * green.truncation_bound(2, p) * float(np.sum(cfg.masses)) ** 2
        assert bd.tail_bound == pytest.approx(expect, rel=1e-15)
        assert bd.tail_bound > 0.0
    # alpha = 0.05 hits the real_cutoff cap; its 3D real tail breaks the contract
    # (the 2D theta form uses no Ewald parameters)
    with pytest.raises(CutoffTooSmall):
        sharp.sharp_energy(FIXTURES_3D[2], params=green.EwaldParameters.for_alpha(0.05))


def test_doubling_cutoff_stability():
    for cfg in (FIXTURES_2D[1], FIXTURES_3D[1]):
        a = sharp.sharp_energy(cfg, fourier_cutoff=16).total
        b = sharp.sharp_energy(cfg, fourier_cutoff=32).total
        assert abs(b - a) < 1e-8 * abs(a)


def test_near_touching_pair_accuracy(params):
    # worst-case geometry for the short-range quadratures
    cfg = FIXTURES_2D[3]
    bd = sharp.sharp_energy(cfg)
    expect = exact_total_via_green(cfg, params)
    assert abs(bd.total - expect) <= 1e-10 * abs(expect)


# ---------------------------------------------------------------------------
# structural properties
# ---------------------------------------------------------------------------

def test_translation_invariance():
    cfg = FIXTURES_3D[1]
    base = sharp.sharp_energy(cfg).total
    shift = np.array([0.2, 0.7, 0.4])
    moved = sharp.BallConfiguration(3, cfg.eta, zip(cfg.masses, (cfg.positions + shift) % 1.0))
    assert abs(sharp.sharp_energy(moved).total - base) < 1e-10


def test_parseval_positivity():
    for cfg in FIXTURES_2D + FIXTURES_3D:
        bd = sharp.sharp_energy(cfg)
        assert bd.self_h1_term >= 0.0
        pref = cfg.eta if cfg.dim == 3 else 1.0 / abs(math.log(cfg.eta))
        h_norm = (bd.self_h1_term + bd.regular_self_term + bd.cross_term) / pref
        assert h_norm >= 0.0


def test_cross_term_tracks_green(params):
    # cross term / (eta 2 m^2) reproduces G at the separation
    m, eta = 1.0, 0.005
    for sep in ((0.5, 0.5, 0.5), (0.3, 0.0, 0.0)):
        cfg = sharp.BallConfiguration(3, eta, [(m, (0.0, 0.0, 0.0)), (m, sep)])
        bd = sharp.sharp_energy(cfg)
        gv = green.green_eval(3, sep, params)
        assert abs(bd.cross_term / (eta * 2 * m * m) - gv) <= 1e-4 * abs(gv)
    c_far = sharp.sharp_energy(
        sharp.BallConfiguration(3, eta, [(m, (0, 0, 0)), (m, (0.5, 0.5, 0.5))])).cross_term
    c_near = sharp.sharp_energy(
        sharp.BallConfiguration(3, eta, [(m, (0, 0, 0)), (m, (0.3, 0.0, 0.0))])).cross_term
    g_far = green.green_eval(3, (0.5, 0.5, 0.5), params)
    g_near = green.green_eval(3, (0.3, 0.0, 0.0), params)
    assert (c_near > c_far) == (g_near > g_far)


def test_additivity_over_separated_balls(params):
    m, eta = 1.0, 0.004
    for dim, sep in ((3, (0.5, 0.5, 0.5)), (2, (0.5, 0.0))):
        pair = sharp.BallConfiguration(dim, eta, [(m, (0.0,) * dim), (m, sep)])
        bd = sharp.sharp_energy(pair)
        single = sharp.sharp_energy(
            sharp.BallConfiguration(dim, eta, [(m, (0.0,) * dim)])).total
        pref = eta if dim == 3 else 1.0 / abs(math.log(eta))
        predicted = pref * 2 * m * m * green.green_eval(dim, sep, params)
        assert abs((bd.total - 2 * single) - predicted) <= 1e-4 * abs(predicted)


def test_2d_log_extraction_limit(params):
    # |v|^2 - m^2 |log eta| / (2 pi) is Cauchy in eta with limit f0(m) + m^2 g(0)
    m = 2.0
    seq = []
    for eta in (0.02, 0.005, 1e-3, 1e-4):
        cfg = sharp.BallConfiguration(2, eta, [(m, (0.25, 0.65))])
        bd = sharp.sharp_energy(cfg)
        seq.append(abs(math.log(eta)) * bd.regular_self_term)
    diffs = np.abs(np.diff(seq))
    assert np.all(np.diff(diffs) < 0)
    limit = local.f0(m) + m * m * green.regular_part_at_zero(2, params)
    assert abs(seq[-1] - limit) < 1e-3


def test_second_order_quotient_single_ball(params):
    table = sharp.second_order_quotient(
        limits.PointConfiguration(3, [(1.0, (0.2, 0.4, 0.6))]), [0.02, 0.01])
    g0 = green.regular_part_at_zero(3, params)
    assert abs(table.quotients[-1] - g0) < 1e-3
    r = local.ball_radius_3d(1.0)
    assert table.quotients[-1] == pytest.approx(g0 + 0.01**2 * r * r / 5.0, abs=1e-10)
    assert "ball-ansatz" in table.reference_kind


# the README 3D pair, and three unequal 3D masses
SWEEP_TEMPLATES_3D = [
    limits.PointConfiguration(3, [(1.0, (0.0, 0.0, 0.0)), (1.0, (0.5, 0.5, 0.5))]),
    limits.PointConfiguration(3, [(0.7, (0.1, 0.2, 0.3)), (1.3, (0.6, 0.5, 0.4)),
                                  (2.1, (0.3, 0.8, 0.75))]),
]


@pytest.mark.parametrize("template", SWEEP_TEMPLATES_3D)
def test_eta2_fit_meets_the_closed_forms(template, params):
    # q(eta) = F0 + c eta^2 with c = (2/10) sum_{i, j} m_i m_j r_i^2, r_i the unit-scale radius
    table = sharp.second_order_quotient(template, [0.04, 0.02, 0.01], params)
    m = template.masses.tolist()
    c = 0.2 * sum(mi * mj * local.ball_radius_3d(mi) ** 2 for mi in m for mj in m)
    f0 = limits.f0_energy(template, params).total
    f0_hat, slope = sharp.richardson_extrapolate(table.etas**2, table.quotients)
    # the quotients are doubles near F0, and one rounding unit u of each moves the
    # fitted slope by up to u sum|x - mean x| / sum (x - mean x)^2 over x = eta^2:
    # up to about 1e-12 of c here (subtracting the reference from each total missed
    # c by about 1e-10)
    x = table.etas**2 - np.mean(table.etas**2)
    assert abs(slope - c) <= 2 * np.spacing(abs(f0)) * np.sum(np.abs(x)) / np.sum(x * x)
    assert abs(f0_hat - f0) <= 1e-15 * abs(f0)
    assert table.f0 == f0


@pytest.mark.parametrize("template, etas", [
    (SWEEP_TEMPLATES_3D[1], [0.04, 0.02, 0.01]),
    (limits.PointConfiguration(2, [(2 ** (2 / 3) * PI, (0.0, 0.0)),
                                   (2 ** (2 / 3) * PI, (0.5, 0.5))]), [1e-2, 1e-3, 1e-4]),
])
def test_sweep_energies_are_bitwise_sharp_energy(template, etas, params):
    table = sharp.second_order_quotient(template, etas, params)
    for row in table.rows:
        ball = sharp.BallConfiguration(template.dim, row.eta,
                                       zip(template.masses, template.positions))
        assert row.energy == sharp.sharp_energy(ball, params=params).total


def test_second_order_quotient_2d_admissibility():
    bad_mass = limits.PointConfiguration(2, [(1.0, (0, 0)), (2.0, (0.5, 0.5))])
    with pytest.raises(UnequalMasses2D):
        sharp.second_order_quotient(bad_mass, [0.01])
    not_optimal = limits.PointConfiguration(2, [(1.0, (0, 0)), (1.0, (0.5, 0.5))])
    with pytest.raises(InadmissibleConfiguration):
        sharp.second_order_quotient(not_optimal, [0.01])


def test_richardson_exact_on_linear_data():
    etas = np.array([0.04, 0.02, 0.01])
    f0_hat, c_hat = sharp.richardson_extrapolate(etas, 3.5 + 2.0 * etas)
    assert f0_hat == pytest.approx(3.5, abs=1e-12)
    assert c_hat == pytest.approx(2.0, abs=1e-10)


def test_richardson_needs_two_distinct_scales():
    # a repeated eta leaves the slope undetermined: lstsq would return a minimum-norm guess
    with pytest.raises(ValueError, match="two distinct scales"):
        sharp.richardson_extrapolate([0.02, 0.02], [1.0, 1.1])
