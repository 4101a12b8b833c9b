import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from oklim import green, limits, optimize
from oklim.errors import CoincidentPoints, IncommensurateCount, NoConvergence

PI = math.pi


def test_two_particles_reproducible_distances():
    dists = []
    for seed in range(10):
        res = optimize.place(2, [1.0, 1.0], restarts=1, seed=seed, tol=1e-8)
        assert res.converged
        assert res.grad_norm <= 1e-8
        dists.append(res.pairwise_distances)
    ref = np.array(dists[0])
    for d in dists[1:]:
        assert np.max(np.abs(np.array(d) - ref)) < 1e-6


def test_energy_matches_limit_cross_term(params):
    res = optimize.place(2, [1.0, 1.0], restarts=2, seed=1, tol=1e-8, params=params)
    bd = limits.f0_energy(res.config, params, "ordered")
    assert abs(res.energy - bd.cross_term) <= 1e-12 * max(1.0, abs(res.energy))


def test_translation_gauge(params):
    res = optimize.place(2, [1.0, 1.0, 1.0], restarts=2, seed=5, tol=1e-6, params=params)
    x = res.config.positions
    shift = np.array([0.37, 0.81])
    moved = (x + shift) % 1.0
    e2 = optimize.interaction_energy(2, res.config.masses, moved, params)
    assert abs(e2 - res.energy) < 1e-12


def test_first_order_optimality_via_finite_differences(params):
    res = optimize.place(2, [1.0, 1.0], restarts=1, seed=3, tol=1e-10, params=params)
    x = res.config.positions
    m = res.config.masses
    h = 1e-5
    for i in range(x.shape[0]):
        for j in range(2):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            fd = (optimize.interaction_energy(2, m, xp, params)
                  - optimize.interaction_energy(2, m, xm, params)) / (2 * h)
            # at a stationary point the analytic gradient and the finite
            # difference agree at the curvature-times-tolerance scale
            g = optimize.interaction_gradient(2, m, x, params)[i, j]
            assert abs(fd - g) <= 1e-5 * max(1.0, abs(res.energy))


def test_seed_determinism_bitwise():
    r1 = optimize.place(2, [1.0, 1.0], restarts=3, seed=42, tol=1e-8)
    r2 = optimize.place(2, [1.0, 1.0], restarts=3, seed=42, tol=1e-8)
    assert r1.energy == r2.energy
    assert r1.pairwise_distances == r2.pairwise_distances
    assert r1.config.positions.tolist() == r2.config.positions.tolist()
    assert r1.iterations == r2.iterations


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("restarts", [0, 2])
def test_place_gives_the_same_bits_for_any_order_of_the_given_start(dim, restarts):
    rng = np.random.default_rng([dim, 28])
    m, x = rng.uniform(0.5, 1.5, 6), rng.random((6, dim))
    given = optimize.place(dim, m, restarts=restarts, initial_positions=x)
    reversed_ = optimize.place(dim, m[::-1], restarts=restarts, initial_positions=x[::-1])
    for name in ("energy", "grad_norm", "iterations", "evaluations", "pairwise_distances"):
        assert getattr(reversed_, name) == getattr(given, name)
    assert np.array_equal(reversed_.config.masses, m[::-1])
    assert np.array_equal(reversed_.config.positions, given.config.positions[::-1])


@pytest.mark.parametrize("energies, converged, picked", [
    ((-1.0, -1.0 - 2e-16, -0.9), (True, True, True), 0),  # one minimum, last bits apart
    ((-1.0, -1.0 - 1e-10, -0.9), (True, True, True), 1),  # a real gap
    ((-1.0, -2.0, -1.0 - 1e-16), (True, False, True), 0),  # converged starts come first
    ((-1.0, -2.0), (False, False), 1),  # best effort among unconverged starts
])
def test_restarts_tied_in_the_last_bits_go_to_the_earliest_start(
        monkeypatch, energies, converged, picked):
    runs = iter(zip(energies, converged))

    def descend(x0, *rest):
        # the descent's protocol: yield the start as the one trial point, without asking for
        # its Hessian, and end on its pass
        e, conv = next(runs)

        def trial_points():
            yield x0, optimize._pairs(x0)[2], False
            return x0, e, 0.0, 1, conv, 1, None
        return trial_points()

    monkeypatch.setattr(optimize, "_descend", descend)
    restarts = len(energies)
    try:
        res = optimize.place(2, [1.0, 2.0, 3.0], restarts=restarts, seed=5)
    except NoConvergence as exc:
        res = exc.result
    start = np.random.default_rng([5, picked]).random((3, 2))
    # the descent runs on the masses / 2 (mean mass 2), so its energies scale back by 4
    assert res.energy == 4.0 * energies[picked] and res.converged == converged[picked]
    assert np.array_equal(res.config.positions, start)


def test_square_count_never_beats_injected_candidate(params):
    res = optimize.place(2, [1.0] * 4, restarts=4, seed=2, tol=1e-8, params=params)
    lattice = optimize.lattice_candidate_energy(2, 4, 1.0, params)
    assert res.converged
    assert res.energy <= lattice + 1e-12


def test_lattice_candidates_2d(params):
    for n in (4, 16):
        e_sq = optimize.lattice_candidate_energy(2, n, 1.0, params)
        assert e_sq == optimize.lattice_candidate_energy(2, n, 1.0, params)  # bitwise
        # the square lattice of n = k^2 unit masses has E/n = -log(n)/(4 pi) exactly
        assert abs(e_sq / n + math.log(n) / (4 * math.pi)) <= 1e-14
    for n in (3, 8):  # 8 = 2 k^2 is no square count either
        with pytest.raises(IncommensurateCount):
            optimize.lattice_candidate_energy(2, n, 1.0, params)


@pytest.mark.parametrize("call", [
    lambda: optimize.square_lattice_positions(4, 16),
    lambda: optimize.square_lattice_positions(1, 4),
    lambda: optimize.lattice_candidate_energy(4, 16, 1.0),
    lambda: optimize.lattice_candidate_energy(4, 8, 1.0),  # dim before count
    lambda: optimize.lattice_candidate_energy(2, 4, math.nan),
    lambda: optimize.lattice_candidate_energy(2, 4, math.inf),
    lambda: optimize.lattice_candidate_energy(2, 4, -1.0),
    lambda: optimize.lattice_candidate_energy(2, 8, 0.0),  # mass before count
])
def test_lattice_candidates_reject_a_bad_dim_or_mass(call):
    # an unchecked dim or mass gives an array of the wrong shape or a meaningless energy
    with pytest.raises(ValueError, match="dim must be 2 or 3|masses must be positive"):
        call()


@pytest.mark.parametrize("n", [0, 1])
def test_lattice_candidates_reject_fewer_than_two_particles(n):
    # the count rule of place: n = 0 failed in a reshape, and n = 1 gave an energy of 0.0
    with pytest.raises(ValueError, match="placement needs at least two particles"):
        optimize.lattice_candidate_energy(2, n, 1.0)


def test_simple_cubic_regrouping_identity(params):
    # 8 points on the 2x2x2 lattice: every particle sees the same 7 offsets
    e = optimize.lattice_candidate_energy(3, 8, 1.5, params)
    offsets = [np.array(v) * 0.5 for v in
               [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]]
    avg = np.mean([green.green_eval(3, off, params) for off in offsets])
    assert abs(e - 8 * 7 * 1.5**2 * avg) <= 1e-12 * abs(e)


def test_no_convergence_reports_best_effort():
    with pytest.raises(NoConvergence) as info:
        optimize.place(2, [1.0, 1.0], restarts=1, seed=0, tol=1e-12, max_iterations=3)
    res = info.value.result
    assert res is not None
    assert not res.converged
    assert res.grad_norm > 1e-12


def test_input_validation():
    with pytest.raises(ValueError):
        optimize.place(2, [1.0], restarts=1, seed=0, tol=1e-8)
    for dim in (1, 4):  # not an IndexError or a broadcast error from the descent
        with pytest.raises(ValueError, match="dim must be 2 or 3"):
            optimize.place(dim, [1.0, 1.0], restarts=1, seed=0)
    with pytest.raises(ValueError):
        optimize.place(2, [1.0, 1.0], restarts=1, seed=0, tol=1e-3)


def test_place_rejects_negative_restarts_and_empty_start_lists():
    with pytest.raises(ValueError):
        optimize.place(2, [1.0] * 3, restarts=-1, seed=0)
    # before any start: even without a seeded start, a negative seed is no seed
    for restarts in (0, 1):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            optimize.place(2, [1.0] * 4, restarts=restarts, seed=-1)
    with pytest.raises(ValueError):
        optimize.place(2, [1.0] * 3, restarts=0, seed=0)  # 3 points: no square lattice
    with pytest.raises(ValueError):
        optimize.place(2, [1.0, math.nan], restarts=1, seed=0)
    with pytest.raises(ValueError, match="no starts"):
        optimize.place(2, [1.0] * 4, restarts=0, seed=0)  # 4 points: no lattice start either


@pytest.mark.parametrize("name, value", [("restarts", 2.5), ("restarts", True), ("seed", 1.5),
                                         ("seed", True), ("max_iterations", 2.5),
                                         ("max_iterations", np.float64(3))])
def test_place_rejects_counts_that_are_not_integers(name, value):
    # restarts=2.5 and max_iterations=2.5 raised TypeError from range, seed=1.5 numpy's
    # TypeError, and restarts=True ran one restart
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        optimize.place(2, [1.0] * 3, **{"restarts": 1, "seed": 0, name: value})


@pytest.mark.parametrize("dim, n, restarts", [(2, 3, 1), (3, 4, 2), (2, 8, 2)])
def test_place_gives_the_unit_mass_positions_at_any_power_of_two_mass(dim, n, restarts):
    # the descent's tolerance, noise floor, Newton switch and first step were absolute: at
    # mass 2^-17 it stopped early, at 2^20 it took other steps.  The pair sum is homogeneous
    # of degree 2 in the masses, so the energy and the gradient norm scale by 2^(2k)
    unit = optimize.place(dim, np.ones(n), restarts=restarts, seed=0)
    for k in (-17, 20):
        res = optimize.place(dim, np.full(n, 2.0**k), restarts=restarts, seed=0)
        assert np.array_equal(res.config.positions, unit.config.positions)
        assert res.energy == unit.energy * 4.0**k and res.grad_norm == unit.grad_norm * 4.0**k
        assert (res.iterations, res.evaluations) == (unit.iterations, unit.evaluations)


@pytest.mark.parametrize("dim, n, restarts, mass", [(2, 3, 1, 1e-5), (3, 4, 2, 1e-4)])
def test_place_at_small_masses_reaches_the_unit_mass_minimum(dim, n, restarts, mass):
    # these stopped as converged after 1 and 3 iterations, at distances 0.250-0.477 and
    # 0.507-0.702
    unit = optimize.place(dim, np.ones(n), restarts=restarts, seed=0)
    res = optimize.place(dim, np.full(n, mass), restarts=restarts, seed=0)
    assert res.converged
    assert np.allclose(res.pairwise_distances, unit.pairwise_distances, rtol=0, atol=1e-9)


@pytest.mark.parametrize("initial, problem", [
    ([[0.2, 0.3]], "initial_positions needs 2 rows, got 1"),  # one row for two masses
    ([[0.2, 0.3, 0.1], [0.7, 0.6, 0.4]],  # 3D rows in 2D
     r"initial_positions needs 2 coordinates per row, got shape \(2, 3\)"),
    ([[0.2, 0.3], [math.inf, 0.6]], "initial_positions needs finite coordinates, got inf"),
], ids=["one-row", "3d-rows", "inf-row"])
def test_place_rejects_initial_positions_before_the_descent(initial, problem):
    with pytest.raises(ValueError, match=problem):
        optimize.place(2, [1.0, 1.0], restarts=1, seed=0, initial_positions=initial)


def test_coincident_start_is_coincident_points_without_a_warning():
    # the start's pair table is checked where it is built; unchecked, log(0) warns first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoincidentPoints):
            optimize.place(2, [1.0, 1.0, 1.0], restarts=0,
                           initial_positions=[[0.1, 0.2], [0.1, 0.2], [0.5, 0.5]])


def test_six_particles_3d_converge():
    # a steepest-descent line search runs out here at |grad| = 8e-5
    res = optimize.place(3, np.ones(6), restarts=1, seed=1)
    assert res.converged
    assert res.grad_norm <= 1e-8
    assert res.iterations < 200


def test_quasi_newton_reaches_tight_tolerance_bitwise_reproducibly(params):
    runs = [optimize.place(2, [1.0] * 8, restarts=2, seed=1, tol=1e-12, params=params)
            for _ in range(2)]
    assert runs[0].grad_norm <= 1e-12
    assert runs[0].config.positions.tolist() == runs[1].config.positions.tolist()
    assert runs[0].energy == runs[1].energy
    g = optimize.interaction_gradient(2, runs[0].config.masses, runs[0].config.positions,
                                      params)
    assert float(np.linalg.norm(g)) <= 1e-12


def test_place_does_not_import_scipy_optimize():
    code = ("import sys, oklim\n"
            "oklim.place(2, [1.0, 1.0, 1.0], restarts=1, seed=0)\n"
            "print('scipy.optimize' in sys.modules)")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       env=env, check=True)
    assert r.stdout.strip() == "False"


@pytest.mark.parametrize("dim, n, restarts, seed, before", [
    (2, 8, 2, 3, 86), (2, 9, 1, 0, 75), (3, 4, 2, 5, 49)])
def test_the_newton_finish_cuts_the_evaluations(dim, n, restarts, seed, before):
    # `before`: the evaluations of an L-BFGS descent to the default tolerance, without the
    # Newton finish; the Newton steps cover |grad| from 1e-2 to 1e-8 in a few steps
    res = optimize.place(dim, np.ones(n), restarts=restarts, seed=seed)
    assert res.converged
    assert res.evaluations <= 0.85 * before


@pytest.mark.parametrize("dim, n", [(2, 7), (3, 5)])
def test_min_hessian_eigenvalue_is_the_smallest_beside_the_translations(dim, n):
    rng = np.random.default_rng([dim, n, 29])
    m, x = rng.uniform(0.5, 1.5, n), rng.random((n, dim))
    res = optimize.place(dim, m, restarts=1, seed=2, initial_positions=x)
    hessian = limits.interaction_hessian(dim, res.config.masses, res.config.positions,
                                         res.params)
    eigenvalues = np.linalg.eigvalsh(hessian)  # the d translations give the d zeros
    scale = np.abs(eigenvalues).max()
    assert np.abs(eigenvalues[:dim]).max() <= 1e-12 * scale
    assert res.min_hessian_eigenvalue > 0.0  # positive definite beside the translations
    assert abs(res.min_hessian_eigenvalue - eigenvalues[dim]) <= 1e-12 * scale
    # the particles' order does not move its bits
    reversed_ = optimize.place(dim, m[::-1], restarts=1, seed=2, initial_positions=x[::-1])
    assert reversed_.min_hessian_eigenvalue == res.min_hessian_eigenvalue


def test_min_hessian_eigenvalue_is_none_past_the_newton_rows():
    # 2D, 50 particles: 98 rows once the translations are out, past _NEWTON_ROWS
    with pytest.raises(NoConvergence) as info:
        optimize.place(2, np.ones(50), restarts=1, seed=0, max_iterations=1)
    assert (50 - 1) * 2 > optimize._NEWTON_ROWS
    assert info.value.result.min_hessian_eigenvalue is None


@pytest.mark.parametrize("dim, n, saddle", [(2, 4, -0.44127120), (2, 9, -1.57364619),
                                            (2, 16, -3.53016960), (3, 27, -12.19238781)])
def test_place_leaves_the_square_lattice_saddle(dim, n, saddle):
    # the lattice's gradient is zero by symmetry, and its Hessian has a negative eigenvalue
    # beside the translations: a descent that stops on |grad| alone ended there, converged
    res = optimize.place(dim, np.ones(n), restarts=0,
                         initial_positions=optimize.square_lattice_positions(dim, n))
    assert res.converged
    assert res.min_hessian_eigenvalue > 0.0
    assert res.energy < saddle


def test_curvature_bits_do_not_depend_on_the_blas_thread_count():
    # eigh with vectors at 64 and 96 reduced rows, up to _NEWTON_ROWS
    code = ("import hashlib, numpy as np\n"
            "from oklim import limits, optimize\n"
            "for n in (33, 49):\n"
            "    x = np.random.default_rng(n).random((n, 2))\n"
            "    eigenvalues, w = optimize._curvature(\n"
            "        limits.interaction_hessian(2, np.ones(n), x), 2)\n"
            "    print(len(eigenvalues), hashlib.sha256(eigenvalues.tobytes() + w.tobytes())"
            ".hexdigest())\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        outputs.append(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                      text=True, env=env, check=True).stdout)
    assert [line.split()[0] for line in outputs[0].splitlines()] == ["64", "96"]
    assert outputs[0] == outputs[1]
