"""The 3D structure-factor pair sum against per-pair sums of G and grad G.

The oracle is the pair sum built from ``green_eval_many``/``green_grad_many``
one pair at a time, the per-point API that the structure-factor kernel does
not call; agreement is checked to a fraction of (sum m)^2.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from oklim import green, limits, optimize


def pair_energy(masses, positions, params):
    iu, ju, diffs, _ = limits._pairs(positions)
    return 2.0 * float(np.sum(masses[iu] * masses[ju] * green.green_eval_many(3, diffs, params)))


def pair_gradient(masses, positions, params):
    iu, ju, diffs, _ = limits._pairs(positions)
    w = (2.0 * masses[iu] * masses[ju])[:, None] * green.green_grad_many(3, diffs, params)
    out = np.zeros_like(positions)
    np.add.at(out, iu, w)
    np.add.at(out, ju, -w)
    return out


def near_face_configuration(n, seed, min_dist=0.02):
    """Unequal masses; about a third of the coordinates on or next to a cell face or mid-cell.

    Points closer than ``min_dist`` are redrawn: near coalescence grad G grows
    like 1/r^2, and rounding alone would then exceed the tolerances.
    """
    rng = np.random.default_rng([n, seed])
    x = np.empty((0, 3))
    while len(x) < n:
        p = rng.random(3)
        special = rng.random(3) < 0.35
        p[special] = rng.choice([0.0, 1e-7, 1.0 - 1e-7, 0.5 - 1e-7, 0.5 + 1e-7], special.sum())
        if np.all(np.linalg.norm(green.min_image(x - p), axis=1) >= min_dist):
            x = np.vstack([x, p])
    return rng.uniform(0.3, 2.0, n), x


@pytest.mark.parametrize("n", [2, 3, 4, 8, 27, 64])
def test_structure_factor_sum_matches_the_per_pair_sum(n):
    for seed in range(3):
        m, x = near_face_configuration(n, seed)
        params = green.EwaldParameters.for_count(n)
        scale = float(np.sum(m)) ** 2
        energy = limits.interaction_energy(3, m, x)
        assert abs(energy - pair_energy(m, x, params)) <= 1e-14 * scale
        grad = limits.interaction_gradient(3, m, x)
        assert np.max(np.abs(grad - pair_gradient(m, x, params))) <= 1e-13 * scale


def test_gradient_matches_central_differences_of_the_energy():
    h = 1e-6
    for n in (3, 30):
        m, x = near_face_configuration(n, 7)
        x = 0.1 + 0.8 * x  # central differences need the points off the cell faces
        grad = limits.interaction_gradient(3, m, x)
        fd = np.zeros_like(x)
        for i in range(n):
            for k in range(3):
                e = np.zeros_like(x)
                e[i, k] = h
                fd[i, k] = (limits.interaction_energy(3, m, x + e)
                            - limits.interaction_energy(3, m, x - e)) / (2 * h)
        assert np.max(np.abs(grad - fd)) <= 1e-7 * float(np.sum(m)) ** 2


@pytest.mark.parametrize("alpha", green.PAIR_SUM_ALPHAS)
def test_each_candidate_alpha_is_within_its_tail_of_long_cutoffs(alpha):
    params = green.EwaldParameters.for_alpha(alpha)
    bound = green.truncation_bound(3, params)
    assert bound <= 1e-13
    long = green.EwaldParameters(alpha=alpha, real_cutoff=params.real_cutoff + 3,
                                 fourier_cutoff=params.fourier_cutoff + 6)
    for n in (2, 9, 40):
        m, x = near_face_configuration(n, 3)
        weight = float(np.sum(m)) ** 2 - float(np.sum(m * m))  # sum_{i != j} m_i m_j
        energy = limits.interaction_energy(3, m, x, params)
        assert abs(energy - pair_energy(m, x, long)) <= bound * weight
        grad = limits.interaction_gradient(3, m, x, params)
        # each grad G term is off by its real and Fourier gradient tails; both
        # are far below the value bound at these cutoffs
        assert np.max(np.abs(grad - pair_gradient(m, x, long))) <= 10 * bound * weight


def test_alpha_is_chosen_from_the_particle_count():
    counts = (0, 1, 2, 13, 14, 209, 210, 250)
    chosen = {n: green.EwaldParameters.for_count(n).alpha for n in counts}
    assert chosen == {0: 2.75, 1: 2.75, 2: 2.75, 13: 2.75, 14: 5.5,
                      209: 5.5, 210: 10.7, 250: 10.7}
    assert [green.EwaldParameters.for_count(n).real_cutoff for n in (2, 14, 250)] == [4, 2, 1]


# every 3D G's choices without explicit parameters, and the sqrt(pi) of the params fixture
ALPHAS = (*green.PAIR_SUM_ALPHAS, math.sqrt(math.pi))


def _face_points():
    """|x| on and 1e-12 inside the faces and corners of [0, 1/2]^3, and 1e-6 from the origin."""
    edge = (0.0, 1e-12, 0.5 - 1e-12, 0.5)
    X = np.array([p for p in itertools.product(edge, repeat=3) if max(p) > 1e-12])
    near = 1e-6 * np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0] / np.sqrt(3)])
    return np.vstack([X, near])


@pytest.mark.parametrize("alpha", ALPHAS)
def test_real_space_tail_is_certified_on_the_faces_and_corners(alpha):
    # the terms of the images in o(c + 6)^3 that o(c)^3 omits, summed on their own
    params = green.EwaldParameters.for_alpha(alpha)
    c = params.real_cutoff
    omitted = ~np.all(np.isin(green._images(c + 6), green._offsets(c)), axis=1)
    r = green._image_distances(_face_points(), c + 6)[:, omitted]
    tail = np.sum(erfc(alpha * r) / r, axis=1) / (4 * math.pi)
    assert np.max(tail) <= green._real_tail_bound(alpha, c) <= green.truncation_bound(3, params)
    assert green.truncation_bound(3, params) <= 1e-13


def test_alpha_005_hits_the_real_cutoff_cap():
    params = green.EwaldParameters.for_alpha(0.05)
    assert params.real_cutoff == green._MAX_REAL_CUTOFF
    assert green.truncation_bound(3, params) > 1e-13


def _k_ball(params):
    """The k-vectors 0 < |k| <= fc and their coefficients c_k."""
    fc, alpha = params.fourier_cutoff, params.alpha
    r = np.arange(-fc, fc + 1)
    kvecs = np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)
    k2 = np.sum(kvecs**2, axis=1)
    kvecs, k2 = kvecs[(k2 > 0) & (k2 <= fc * fc)], k2[(k2 > 0) & (k2 <= fc * fc)]
    return kvecs, np.exp(-math.pi**2 * k2 / alpha**2) / (4 * math.pi**2 * k2)


def trig_set_long_range(masses, positions, params, gradient=False):
    """The set long-range part summed per k-vector with cos and sin, over the ball |k| <= fc."""
    kvecs, coef = _k_ball(params)
    mm, total = float(masses @ masses), float(np.sum(masses))
    energy, grad = 0.0, np.zeros_like(positions)
    for lo in range(0, len(kvecs), 2000):  # in blocks of k-vectors, to keep the phases small
        k, c = kvecs[lo:lo + 2000], coef[lo:lo + 2000]
        phase = 2 * math.pi * positions @ k.T
        cos, sin = np.cos(phase), np.sin(phase)
        re, im = masses @ cos, masses @ sin
        energy += float(c @ (re * re + im * im - mm))
        grad += 4 * math.pi * masses[:, None] * (((cos * im - sin * re) * c) @ k)
    return grad if gradient else energy - (total * total - mm) / (4 * params.alpha**2)


def trig_long_range(X, params, order=0):
    """The per-point long-range part at rows x, or its gradient (``order`` 1) or Hessian (2).

    Summed per k-vector of the ball with cos or sin.
    """
    kvecs, coef = _k_ball(params)
    phase = 2 * math.pi * X @ kvecs.T
    if order == 2:
        return -(2 * math.pi) ** 2 * np.einsum("jk,ka,kb->jab", np.cos(phase) * coef, kvecs, kvecs)
    if order == 1:
        return -2 * math.pi * (np.sin(phase) * coef) @ kvecs
    return np.cos(phase) @ coef - 1.0 / (4 * params.alpha**2)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_per_point_long_range_matches_the_per_k_trig_sum(alpha):
    params = green.EwaldParameters.for_alpha(alpha)
    X = np.vstack([_face_points(), np.random.default_rng(9).uniform(-0.5, 0.5, (300, 3))])
    value = green._long_range(3, np.abs(X), params)
    assert np.max(np.abs(value - trig_long_range(np.abs(X), params))) <= 1e-14
    grad = green._long_range(3, X, params, 1)
    assert np.max(np.abs(grad - trig_long_range(X, params, 1))) <= 1e-14
    # the Hessian, -(2 pi)^2 sum c_k k k^T cos(2 pi k.x), is checked otherwise only by
    # central differences and by its trace
    hess = green._long_range(3, X, params, 2)
    assert np.max(np.abs(hess - trig_long_range(X, params, 2))) <= 1e-13 * np.max(np.abs(hess))


@pytest.mark.parametrize("n, chunk", [(2, None), (4, None), (27, None), (27, 3000), (250, None),
                                      (250, 50000)])
def test_separable_structure_factor_matches_the_per_k_trig_sum(monkeypatch, n, chunk):
    if chunk:  # a few particles per chunk, several chunks
        monkeypatch.setattr(green, "_CHUNK", chunk)
    m, x = near_face_configuration(n, 5)
    params = green.EwaldParameters.for_count(n)
    scale = float(np.sum(m)) ** 2
    energy = green._set_long_range(3, m, x, params)
    assert abs(energy - trig_set_long_range(m, x, params)) <= 1e-14 * scale
    # the gradient form returns the value with it, from the same S
    value, grad = green._set_long_range(3, m, x, params, 1)
    assert value == energy
    assert np.max(np.abs(grad - trig_set_long_range(m, x, params, gradient=True))) <= 1e-14 * scale


def test_structure_factor_memory_stays_bounded():
    # the (4 F^2, chunk) outer products of the value hold at most _CHUNK elements and
    # the gradient's (4 F^2, 3 chunk) sums a quarter of that; the tables of 1000
    # particles, (2, 3, n, 2F) with the derivative ones, add about a quarter more
    params = green.EwaldParameters.for_alpha(10.7)
    rng = np.random.default_rng([1000, 3])
    m, x = rng.uniform(0.5, 1.5, 1000), rng.random((1000, 3))
    green._set_long_range(3, m, x, params, 1)  # the cached weights, outside the trace
    for order in (0, 1):
        tracemalloc.start()
        try:
            green._set_long_range(3, m, x, params, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * green._CHUNK, (order, peak)


def test_structure_factor_bits_do_not_depend_on_the_blas_thread_count():
    # at 700 particles a matrix product run whole, as one BLAS call, gives other last
    # bits on two threads than on one, in the value and in the gradient
    code = ("import numpy as np\n"
            "from oklim import green\n"
            "rng = np.random.default_rng(5)\n"
            "m, x = rng.uniform(0.5, 1.5, 700), rng.random((700, 3))\n"
            "for alpha in (5.5, 10.7):\n"
            "    params = green.EwaldParameters.for_alpha(alpha)\n"
            "    value, grad = green._set_long_range(3, m, x, params, 1)\n"
            "    print(value.hex(), grad.tobytes().hex())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outputs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=env, check=True).stdout)
    assert outputs[0] == outputs[1]


def test_f0_tail_names_the_parameters_that_ran():
    m, x = near_face_configuration(40, 1)
    bd = limits.f0_energy(limits.PointConfiguration(3, list(zip(m, x))))
    params = green.EwaldParameters.for_count(40)
    assert bd.tail_bound == green.truncation_bound(3, params) * float(np.sum(m)) ** 2
    assert bd.tail_bound <= 1e-13 * float(np.sum(m)) ** 2


@pytest.mark.parametrize("n, configs", [(64, 8), (250, 2)])
def test_structure_factor_sum_is_bitwise_permutation_invariant(n, configs):
    rng = np.random.default_rng([n, 99])
    for _ in range(configs):
        x, m = rng.random((n, 3)), rng.uniform(0.5, 1.5, n)
        base = limits.interaction_energy(3, m, x)
        grad = limits.interaction_gradient(3, m, x)
        p = rng.permutation(n)
        assert limits.interaction_energy(3, m[p], x[p]) == base
        assert np.allclose(limits.interaction_gradient(3, m[p], x[p]), grad[p],
                           rtol=0, atol=1e-14 * n * n)


def test_single_particle_pair_sum_is_exactly_zero():
    x = np.array([[0.3, 0.4, 0.9]])
    assert limits.interaction_energy(3, np.array([1.7]), x) == 0.0
    assert not limits.interaction_gradient(3, np.array([1.7]), x).any()


@pytest.mark.parametrize("n, restarts", [(4, 3), (8, 2)])
def test_place_reaches_the_minima_of_the_per_pair_sum(monkeypatch, n, restarts):
    masses = np.ones(n)
    result = optimize.place(3, masses, restarts=restarts, seed=0)
    # the per-pair sum at the parameters place resolved, through the one pass the
    # descent makes per round over the trial points x[r] of the live restarts; the
    # Hessians of the Newton finish only steer the steps, so they come from the library
    pair_sum = optimize._pair_sum

    def reference(dim, m, x, pairs, params, order=0):
        out = ([pair_energy(m, xr, params) for xr in x],
               np.stack([pair_gradient(m, xr, params) for xr in x]))
        if order == 2:
            out += (pair_sum(dim, m, x, pairs, params, order)[2],)
        return out
    monkeypatch.setattr(optimize, "_pair_sum", reference)
    reference = optimize.place(3, masses, restarts=restarts, seed=0)
    assert abs(result.energy - reference.energy) <= 1e-12 * abs(reference.energy)
