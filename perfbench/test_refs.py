"""Tests of the benchmark's own references (refs.py), which share no code with oklim.

    python3 -m pytest -q perfbench/test_refs.py
"""

import math

import numpy as np
import pytest
from scipy.special import j1

import refs


def gaussian_mode_sum(dim, x, kmax=60):
    """G as the |k| <= kmax mode sum with a Gaussian summability factor exp(-4 pi^2 k^2 t).

    The factor's exact bias on G is -t (it solves the heat equation with the
    zero-mean source), which is added back; with exp(-4 pi^2 kmax^2 t) =
    1e-16 what remains is the heat content of the singularity, below 1e-13 at
    min-image distances >= 0.2.
    """
    t = 16 * math.log(10) / (4 * math.pi**2 * kmax**2)
    rng = np.arange(-kmax, kmax + 1)
    k = np.stack([g.ravel() for g in np.meshgrid(*([rng] * dim), indexing="ij")], axis=-1)
    k2 = np.sum(k * k, axis=1)
    keep = (k2 > 0) & (k2 <= kmax**2)
    k, k2 = k[keep].astype(float), k2[keep]
    terms = np.exp(-4 * math.pi**2 * k2 * t) * np.cos(2 * math.pi * (k @ np.asarray(x)))
    return float(np.sum(terms / (4 * math.pi**2 * k2))) - t


def far_points(dim, count, min_dist=0.2, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        x = rng.random(dim)
        if np.linalg.norm(x - np.rint(x)) >= min_dist:
            out.append(x)
    return np.array(out)


@pytest.mark.parametrize("dim", [2, 3])
def test_green_matches_mode_sum(dim):
    pts = far_points(dim, 6 if dim == 3 else 20)
    kmax = 40 if dim == 3 else 60
    got = refs.Ewald(dim).G(pts)
    want = [gaussian_mode_sum(dim, x, kmax) for x in pts]
    assert np.max(np.abs(got - want)) <= 1e-8


@pytest.mark.parametrize("dim", [2, 3])
def test_splitting_parameter_independence(dim):
    pts = far_points(dim, 50, min_dist=0.01, seed=1)
    a, b = refs.Ewald(dim), refs.Ewald(dim, alpha=3.0)
    assert np.max(np.abs(a.G(pts) - b.G(pts))) <= 1e-12
    assert np.max(np.abs(a.grad(pts) - b.grad(pts))) <= 1e-12
    assert abs(a.g0() - b.g0()) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_gradient_is_derivative_of_green(dim):
    ew = refs.Ewald(dim)
    pts = far_points(dim, 5, seed=2)
    h = 1e-5
    for x in pts:
        fd = [(ew.G(x + h * e)[0] - ew.G(x - h * e)[0]) / (2 * h) for e in np.eye(dim)]
        assert np.allclose(ew.grad(x)[0], fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("dim", [2, 3])
def test_regular_part_at_zero_is_the_limit(dim):
    # g = G - singular part has Laplacian 1, so g(x) - g(0) = O(|x|^2)
    ew = refs.Ewald(dim)
    x = np.full(dim, 1e-3 / math.sqrt(dim))
    r = float(np.linalg.norm(x))
    singular = 1 / (4 * math.pi * r) if dim == 3 else -math.log(r) / (2 * math.pi)
    assert abs(ew.G(x)[0] - singular - ew.g0()) <= r * r


def test_envelope_is_the_minimum_over_equal_partitions():
    for M in (0.3, 1.9, 2.5, 10.0, 40.0, 123.0):
        brute = min(n * refs.e2d(M / n) for n in range(1, 500))
        assert refs.envelope_2d(M) == pytest.approx(brute, rel=1e-15)


def test_disc_log_self_interaction():
    # -(1/2 pi) double integral of log|x - y| over the area-m disc, by quadrature
    # of the pair-distance density of the unit disc
    m = 1.7
    a = math.sqrt(m / math.pi)
    u = np.linspace(0, 2, 400_001)[1:-1]
    dens = (4 * u / math.pi) * (np.arccos(u / 2) - (u / 2) * np.sqrt(1 - u * u / 4))
    mean_log = float(np.sum(dens * np.log(a * u)) * (u[1] - u[0]))
    assert refs.f0(m) == pytest.approx(-m * m / (2 * math.pi) * mean_log, rel=1e-6)


def test_finite_scale_quotient_is_limit_plus_exact_eta_squared_term():
    ew = refs.Ewald(3)
    m = np.array([1.0, 0.7, 1.3])
    x = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.9], [0.9, 0.2, 0.6]])
    r2 = np.array([refs.radius(3, mi, 1.0) ** 2 for mi in m])
    c = float(np.sum(m * m * r2) / 5 + (np.sum(m) * np.sum(m * r2) - np.sum(m * m * r2)) / 5)
    for eta in (0.04, 0.01):
        q = (refs.finite_scale_energy(ew, eta, m, x) - sum(map(refs.ball_energy, m))) / eta
        assert q == pytest.approx(refs.f0_energy(ew, m, x) + c * eta**2, abs=1e-10)


def test_finite_scale_energy_matches_truncated_mode_sum_2d():
    # eta = 0.25 keeps the bare form-factor sum convergent enough to reach 1e-7
    eta, kmax = 0.25, 600
    m = np.array([1.0, 0.7])
    x = np.array([[0.1, 0.2], [0.6, 0.7]])
    a = np.array([refs.radius(2, mi, eta) for mi in m])
    rng = np.arange(-kmax, kmax + 1, dtype=float)
    total = 0.0
    for k1 in rng:  # one row of the mode lattice at a time keeps memory small
        k = np.stack([np.full_like(rng, k1), rng], axis=-1)
        k2 = np.sum(k * k, axis=1)
        keep = (k2 > 0) & (k2 <= kmax**2)
        k, k2 = k[keep], k2[keep]
        t = 2 * math.pi * np.sqrt(k2)[:, None] * a[None, :]
        vhat = (m * 2 * j1(t) / t * np.exp(-2j * math.pi * (k @ x.T))).sum(axis=1)
        total += float(np.sum(np.abs(vhat) ** 2 / (4 * math.pi**2 * k2)))
    spectral = float(np.sum(2 * np.sqrt(math.pi * m))) + total / abs(math.log(eta))
    assert refs.finite_scale_energy(refs.Ewald(2), eta, m, x) == pytest.approx(spectral, rel=1e-7)
