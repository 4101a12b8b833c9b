"""Acceptance suite: one test per criterion, each at its stated tolerance and
runtime budget; a summary line per criterion is printed at the end of the run.
"""

import math

import numpy as np

from oklim import green, limits, local, optimize, sharp

from conftest import criterion, direct_fourier_green, random_torus_point
from test_local import (ball_h1_radial_oracle, brute_force_partition,
                        disc_perimeter_oracle, f0_quadrature_oracle)

PI = math.pi


def test_criterion_01_closed_form_2d_local_energy():
    with criterion(1, "closed-form 2D local energy and disc-perimeter oracle", 1.0):
        rng = np.random.default_rng(101)
        ms = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), size=1000))
        for m in ms:
            expect = m * m / (2 * PI) + 2 * math.sqrt(PI * m)
            assert abs(local.e2d(m) - expect) <= 1e-12 * expect
        for m in (0.7, 2.0, PI):
            assert abs(disc_perimeter_oracle(m) - 2 * math.sqrt(PI * m)) \
                <= 1e-10 * (2 * math.sqrt(PI * m))


def test_criterion_02_f0_double_integral_oracle():
    with criterion(2, "f0(1) against the disc log-energy quadrature", 30.0):
        oracle = f0_quadrature_oracle(1.0, n_r=256, n_ang=512)  # (n_r n_ang)^2 pairs
        assert abs(local.f0(1.0) - oracle) <= 1e-4 * abs(local.f0(1.0))


def test_criterion_03_ball_energy_radial_oracle():
    with criterion(3, "3D ball energy 68 pi / 15 against radial solve", 1.0):
        b = local.e3d_ball(4 * PI / 3)
        assert abs(b.total - 68 * PI / 15) <= 1e-8 * b.total
        oracle = 4 * PI + ball_h1_radial_oracle()
        assert abs(b.total - oracle) <= 1e-8 * oracle


def test_criterion_04_concavity_boundary():
    with criterion(4, "concavity coefficient crosses zero at 2 pi", 1.0):
        lo, hi = 1.0, 20.0
        assert local.concavity_coefficient(lo) < 0 < local.concavity_coefficient(hi)
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if local.concavity_coefficient(mid) < 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - 2 * PI) < 1e-6

        h = 1e-3
        ms = np.arange(0.1, 2 * PI - 0.1, h)
        tot = np.array([local.e3d_ball(m).total
                        for m in np.concatenate([ms - h, ms, ms + h])])
        n = len(ms)
        assert np.all(tot[2 * n:] - 2 * tot[n:2 * n] + tot[:n] < 0)


def test_criterion_05_equal_mass_partitions():
    with criterion(5, "envelope beats the k <= 4 simplex-grid search", 120.0):
        for M in (5.0, 10.0, 20.0, 40.0):
            best, parts = brute_force_partition(M)
            res = local.envelope(2, M)
            assert res.envelope_value <= best + 1e-12 * best
            nz = [p for p in parts if p > 0]
            assert max(nz) - min(nz) <= 1  # equal within one grid step
        assert local.envelope(2, 1.0).n == 1


def test_criterion_06_green_function_correctness(params):
    with criterion(6, "Ewald vs direct Fourier sum, alpha independence, 2D log", 60.0):
        rng = np.random.default_rng(606)
        for dim in (2, 3):
            pts = np.array([random_torus_point(rng, dim, min_dist=0.2)
                            for _ in range(50)])
            vals = green.green_eval_many(dim, pts, params)
            for x, v in zip(pts, vals):
                assert abs(v - direct_fourier_green(dim, x)) < 1e-8
            alt = green.green_eval_many(
                dim, pts, green.EwaldParameters.for_alpha(2 * math.sqrt(PI)))
            assert np.max(np.abs(alt - vals)) < 1e-10
        x = np.array([1e-4, 0.0])
        expect = -math.log(1e-4) / (2 * PI) + green.regular_part_at_zero(2, params)
        assert abs(green.green_eval(2, x, params) - expect) < 1e-6


def test_criterion_07_gamma_expansion_3d(params):
    with criterion(7, "3D expansion: Richardson quotient vs limit energy", 120.0):
        cfg = limits.PointConfiguration(3, [(1.0, (0.0, 0.0, 0.0)),
                                            (1.0, (0.5, 0.5, 0.5))])
        table = sharp.second_order_quotient(cfg, [0.04, 0.02, 0.01])
        ref = 2 * local.e3d_ball(1.0).total
        assert table.reference == ref
        f0_hat, _ = sharp.richardson_extrapolate(table.etas, table.quotients)
        predicted = limits.f0_energy(cfg, params, "ordered").total
        assert abs(f0_hat - predicted) <= 1e-3 * abs(predicted)
        # the ordered convention is the one the finite-scale limit selects
        halved = limits.f0_energy(cfg, params, "halved").total
        assert abs(f0_hat - halved) > 1e-2 * abs(halved)


def test_criterion_08_gamma_expansion_2d(params):
    with criterion(8, "2D expansion: log-scaled quotients approach the limit", 300.0):
        m = 2 ** (2.0 / 3.0) * PI
        cfg = limits.PointConfiguration(2, [(m, (0.0, 0.0)), (m, (0.5, 0.5))])
        table = sharp.second_order_quotient(cfg, [1e-2, 1e-3, 1e-4])
        predicted = limits.f0_energy(cfg, params, "ordered").total
        gaps = np.abs(table.quotients - predicted)
        assert np.all(np.diff(gaps) < 0)  # monotone approach
        signs = np.sign(table.quotients - predicted)
        assert len(set(signs)) == 1
        assert gaps[-1] <= 5e-2 * abs(predicted)


def test_criterion_09_optimizer_soundness(params):
    with criterion(9, "reproducible placements, gauge invariance, lattice bound", 120.0):
        dists = []
        for seed in range(10):
            res = optimize.place(2, [1.0, 1.0], restarts=1, seed=seed, tol=1e-8,
                                 params=params)
            assert res.converged and res.grad_norm <= 1e-8
            dists.append(np.array(res.pairwise_distances))
        for d in dists[1:]:
            assert np.max(np.abs(d - dists[0])) < 1e-6

        shift = np.array([0.41, 0.13])
        moved = (res.config.positions + shift) % 1.0
        e2 = optimize.interaction_energy(2, res.config.masses, moved, params)
        assert abs(e2 - res.energy) < 1e-12

        res4 = optimize.place(2, [1.0] * 4, restarts=4, seed=11, tol=1e-8,
                              params=params)
        lattice = optimize.lattice_candidate_energy(2, 4, 1.0, params)
        assert res4.converged
        assert res4.energy <= lattice + 1e-12
