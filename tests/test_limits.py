import math

import numpy as np
import pytest

from oklim import green, limits, local
from oklim.errors import CoincidentPoints, UnequalMasses2D

PI = math.pi


def config(dim, entries):
    return limits.PointConfiguration(dim, entries)


def test_point_configuration_validation():
    with pytest.raises(ValueError):
        config(2, [])
    with pytest.raises(ValueError):
        config(2, [(-1.0, (0.1, 0.2))])
    with pytest.raises(CoincidentPoints):
        config(3, [(1.0, (0.1, 0.2, 0.3)), (1.0, (0.1, 0.2, 0.3))])
    # coincidence across the periodic wrap
    with pytest.raises(CoincidentPoints):
        config(2, [(1.0, (0.0, 0.0)), (1.0, (1.0 - 1e-12, 0.0))])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_configuration_rejects_non_finite_values(bad):
    with pytest.raises(ValueError):
        config(2, [(1.0, (0.1, bad)), (1.0, (0.6, 0.6))])
    with pytest.raises(ValueError):
        config(3, [(bad, (0.1, 0.2, 0.3))])
    with pytest.raises(ValueError):  # an inf coordinate would reduce to NaN
        config(2, [(1.0, (bad, 0.2))])


def test_point_configuration_arrays_are_built_once_and_read_only():
    rng = np.random.default_rng(8)
    raw = rng.uniform(-2.0, 3.0, (40, 3))
    raw[0] = (-1e-20, 1.0, 2.5)  # -1e-20 % 1.0 rounds to 1.0, which is stored as 0.0
    masses = rng.uniform(0.5, 2.0, 40)
    c = config(3, zip(masses, raw))
    # each coordinate is v % 1.0, with 1.0 (from tiny negative v) stored as 0.0
    assert c.positions.tolist() == [[0.0 if r == 1.0 else r for r in (v % 1.0 for v in p)]
                                    for p in raw.tolist()]
    assert c.positions[0].tolist() == [0.0, 0.0, 0.5]
    assert ((c.positions >= 0.0) & (c.positions < 1.0)).all()
    assert c.masses.tolist() == masses.tolist()
    assert not hasattr(c, "particles")
    # tuples of Python floats reduce to the same stored rows
    same = config(3, [(m, tuple(p)) for m, p in zip(masses.tolist(), raw.tolist())])
    assert np.array_equal(same.positions, c.positions)
    # the pair table is the one of ``_pairs`` over the stored positions
    for got, expect in zip(c.pairs, limits._pairs(c.positions)):
        assert np.array_equal(got, expect)
    assert c.positions is c.positions and c.masses is c.masses and c.pairs is c.pairs
    for a in (c.masses, c.positions, *c.pairs):
        with pytest.raises(ValueError):
            a[0] = 0.5


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 9, 250])
def test_pair_table_is_bitwise_the_row_major_gather(dim, n):
    rng = np.random.default_rng([dim, n])
    x = rng.random((n, dim))
    for k in range(dim):  # near 0 and near 1 on each axis: differences that wrap
        x[k % n, k], x[(k + 1) % n, k] = 1e-12, 1.0 - 1e-12
    iu, ju, diffs, dist = limits._pairs(x)
    ref_iu, ref_ju = np.triu_indices(n, k=1)
    ref = green.min_image(x[ref_iu] - x[ref_ju])
    assert np.array_equal(iu, ref_iu) and np.array_equal(ju, ref_ju)
    assert diffs.shape == (n * (n - 1) // 2, dim)
    assert np.array_equal(diffs, ref)
    assert np.array_equal(dist, np.linalg.norm(ref, axis=1))
    assert diffs[:, 0].flags.c_contiguous  # each coordinate column is contiguous
    for a in (iu, ju, diffs, dist):
        assert not a.flags.writeable
        assert a.base is None or not a.base.flags.writeable


def test_e0_2d_is_bitwise_the_per_mass_loop():
    rng = np.random.default_rng(4)
    masses = np.concatenate([rng.uniform(0.01, 80.0, 300),
                             local.OPTIMAL_PER_MASS * np.arange(1, 21)])  # integer optimal counts
    c = config(2, list(zip(masses, rng.random((len(masses), 2)))))
    loop = [local.envelope(2, m).envelope_value for m in c.masses]
    assert local.envelope_many(2, c.masses).tolist() == loop
    assert limits.e0(c) == float(np.sum(np.sort(loop)))


def test_e0_values_and_position_blindness():
    c1 = config(2, [(5.0, (0.1, 0.1))])
    assert limits.e0(c1) == local.envelope(2, 5.0).envelope_value
    shuffled = config(2, [(2.0, (0.9, 0.3)), (2.0, (0.4, 0.8))])
    base = config(2, [(2.0, (0.1, 0.1)), (2.0, (0.6, 0.6))])
    assert limits.e0(shuffled) == limits.e0(base)  # identical to the last bit

    c3 = config(3, [(1.0, (0, 0, 0)), (2.0, (0.5, 0.5, 0.5))])
    # below the splitting mass each 3D mass is one ball (vectorised cube root: a few ulps)
    ball_sum = local.e3d_ball(1.0).total + local.e3d_ball(2.0).total
    assert limits.e0(c3) == pytest.approx(ball_sum, rel=1e-15, abs=0.0)


def test_e0_3d_charges_each_mass_its_envelope():
    # above the splitting mass a 3D particle is charged its best split into balls
    heavy = config(3, [(40.0, (0.1, 0.2, 0.3)), (1.0, (0.6, 0.6, 0.6))])
    assert local.envelope(3, 40.0).n == 3
    expect = local.envelope(3, 1.0).envelope_value + local.envelope(3, 40.0).envelope_value
    assert limits.e0(heavy) == expect
    assert limits.e0(heavy) < local.e3d_ball(40.0).total + local.e3d_ball(1.0).total


def test_e0_split_comparison_consistent_with_envelope():
    # the envelope is subadditive, so splitting never helps; it is neutral
    # exactly when the envelope already splits the mass the same way
    M = 20.0
    one = config(2, [(M, (0.2, 0.2))])
    two = config(2, [(M / 2, (0.1, 0.1)), (M / 2, (0.6, 0.6))])
    assert local.envelope(2, M).n == 4  # refines through the even split
    assert limits.e0(two) == pytest.approx(limits.e0(one), rel=1e-14)

    one_small = config(2, [(1.0, (0.2, 0.2))])
    two_small = config(2, [(0.5, (0.1, 0.1)), (0.5, (0.6, 0.6))])
    assert local.envelope(2, 1.0).n == 1
    assert limits.e0(two_small) > limits.e0(one_small)


def test_f0_energy_single_particle_3d(params):
    m = 1.7
    c = config(3, [(m, (0.3, 0.4, 0.9))])
    bd = limits.f0_energy(c, params)
    assert bd.cross_term == 0.0
    expect = green.regular_part_at_zero(3, params) * m * m
    assert abs(bd.total - expect) < 1e-14
    assert bd.total == bd.parts_sum()


def test_f0_energy_two_particles_3d_formula(params):
    m = 1.3
    x1, x2 = (0.1, 0.2, 0.3), (0.6, 0.8, 0.1)
    c = config(3, [(m, x1), (m, x2)])
    bd = limits.f0_energy(c, params)
    g0 = green.regular_part_at_zero(3, params)
    gx = green.green_eval(3, np.array(x1) - np.array(x2), params)
    expect = 2 * g0 * m * m + 2 * m * m * gx
    assert abs(bd.total - expect) <= 1e-12 * abs(expect)
    halved = limits.f0_energy(c, params, "halved")
    assert abs(halved.cross_term - 0.5 * bd.cross_term) < 1e-15
    assert abs(halved.regular_self_term - bd.regular_self_term) == 0.0


def test_f0_energy_2d_formula_and_mass_guard(params):
    m = 2 ** (2.0 / 3.0) * PI
    c = config(2, [(m, (0.0, 0.0)), (m, (0.5, 0.5))])
    bd = limits.f0_energy(c, params)
    g0 = green.regular_part_at_zero(2, params)
    gx = green.green_eval(2, (0.5, 0.5), params)
    expect = 2 * (local.f0(m) + m * m * g0) + 2 * m * m * gx
    assert abs(bd.total - expect) <= 1e-12 * abs(expect)
    with pytest.raises(UnequalMasses2D):
        limits.f0_energy(config(2, [(1.0, (0, 0)), (2.0, (0.5, 0.5))]), params)


def test_f0_tail_bound_is_certified_and_nonzero(params):
    short = green.EwaldParameters(alpha=math.sqrt(PI), real_cutoff=3, fourier_cutoff=2)
    m = 2 ** (2.0 / 3.0) * PI
    cases = ((3, [(1.0, (0.1, 0.2, 0.3)), (0.7, (0.6, 0.8, 0.1))]),
             (2, [(m, (0.1, 0.2)), (m, (0.55, 0.65))]))
    for dim, entries in cases:
        c = config(dim, entries)
        mass2 = float(np.sum(c.masses)) ** 2
        bd = limits.f0_energy(c, params)
        assert bd.tail_bound == green.truncation_bound(dim, params) * mass2
        assert 0.0 < bd.tail_bound < 1e-12
        rough = limits.f0_energy(c, short)
        assert abs(rough.total - bd.total) <= rough.tail_bound


def test_f0_energy_translation_and_permutation_invariance(params):
    entries = [(1.0, (0.12, 0.41, 0.77)), (0.7, (0.55, 0.1, 0.3)), (1.4, (0.9, 0.9, 0.02))]
    base = limits.f0_energy(config(3, entries), params).total
    shift = np.array([0.31, 0.62, 0.17])
    moved = [(m, tuple((np.array(x) + shift) % 1.0)) for m, x in entries]
    assert abs(limits.f0_energy(config(3, moved), params).total - base) < 1e-12
    perm = [entries[2], entries[0], entries[1]]
    assert limits.f0_energy(config(3, perm), params).total == base


@pytest.mark.parametrize("dim", [2, 3])
def test_f0_energy_is_bitwise_permutation_invariant(dim, params):
    # 2D needs equal masses; 3D takes unequal ones
    rng = np.random.default_rng([dim, 2024])
    for _ in range(60):
        x = rng.random((6, dim))
        m = np.full(6, rng.uniform(0.5, 1.5)) if dim == 2 else rng.uniform(0.5, 1.5, 6)
        base = limits.f0_energy(config(dim, list(zip(m, x))), params).total
        p = rng.permutation(6)
        assert limits.f0_energy(config(dim, list(zip(m[p], x[p]))), params).total == base


def test_f0_energy_divergence_at_coalescence(params):
    m = 1.0
    for d in (1e-3, 1e-4):
        c = config(3, [(m, (0, 0, 0)), (m, (d, 0, 0))])
        total = limits.f0_energy(c, params).total
        asymptote = 2 * m * m / (4 * PI * d)
        assert abs(total / asymptote - 1.0) < 0.01


@pytest.mark.parametrize("dim", [2, 3])
def test_interaction_gradient_rejects_coincident_points(dim):
    x = np.array([[0.1] * dim, [0.6] * dim, [0.1] * dim])
    with pytest.raises(CoincidentPoints):
        limits.interaction_gradient(dim, np.ones(3), x)
    # coincidence across the periodic wrap
    x[2, 0] = 1.1 + 1e-12
    with pytest.raises(CoincidentPoints):
        limits.interaction_gradient(dim, np.ones(3), x)


@pytest.mark.parametrize("shift", [-1e3, 1e3, 1e6, 1e8])
def test_raw_pair_sums_reduce_their_rows_to_the_cell(shift):
    # the 3D structure factor takes cos and sin of 2 pi k.x at the coordinate it is given
    rng = np.random.default_rng(28)
    m, x = rng.uniform(0.5, 1.5, 6), rng.random((6, 3)) + shift
    reduced = x % 1.0
    assert limits.interaction_energy(3, m, x) == limits.interaction_energy(3, m, reduced)
    assert np.array_equal(limits.interaction_gradient(3, m, x),
                          limits.interaction_gradient(3, m, reduced))
    assert np.array_equal(green._positions(3, reduced), reduced)  # rows in the cell keep their bits


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_sum_needs_one_mass_per_position_row(dim):
    x = np.random.default_rng(6).random((2, dim))
    for masses in (np.ones(3), np.ones(1), np.ones((2, 1)), [1.0, -1.0], [1.0, math.nan]):
        for fn in (limits.interaction_energy, limits.interaction_gradient):
            with pytest.raises(ValueError, match="mass"):
                fn(dim, masses, x)


def test_check_admissible_2d_cases():
    m = local.OPTIMAL_PER_MASS
    for n in (1, 2, 3):
        pts = [(m, (0.1 + 0.31 * i, 0.2 + 0.17 * i)) for i in range(n)]
        rep = limits.check_admissible(config(2, pts))
        assert rep.is_optimal_partition

    rep1 = limits.check_admissible(config(2, [(1.0, (0.5, 0.5))]))
    assert rep1.is_compact and rep1.is_optimal_partition

    rep2 = limits.check_admissible(config(2, [(1.0, (0, 0)), (2.0, (0.5, 0.5))]))
    assert not rep2.is_optimal_partition

    # equal masses but wrong count: M = 2 * optimal mass split into 3
    bad = config(2, [(2 * m / 3, (0.1, 0.1)), (2 * m / 3, (0.5, 0.5)),
                     (2 * m / 3, (0.9, 0.6))])
    assert not limits.check_admissible(bad).is_optimal_partition


def test_e0_consistent_with_local_on_optimal_partitions():
    m = local.OPTIMAL_PER_MASS
    c = config(2, [(m, (0.1, 0.1)), (m, (0.5, 0.5)), (m, (0.9, 0.2))])
    assert limits.check_admissible(c).is_optimal_partition
    assert limits.e0(c) == pytest.approx(3 * local.e2d(m), rel=1e-14)


def test_check_admissible_3d_heuristics():
    thresh = local.splitting_threshold_3d()
    single = limits.check_admissible(config(3, [(1.0, (0.2, 0.2, 0.2))]))
    assert single.is_optimal_partition and single.is_compact
    assert any("heuristic" in d for d in single.detail)

    # below the splitting threshold a merge strictly lowers the ball-ansatz sum
    pair = limits.check_admissible(
        config(3, [(1.0, (0, 0, 0)), (1.0, (0.5, 0.5, 0.5))]))
    assert not pair.is_optimal_partition

    heavy = limits.check_admissible(config(3, [(1.5 * thresh, (0.1, 0.1, 0.1))]))
    assert not heavy.is_compact

    # the envelope of the total mass: three balls of 40/3 beat one of 40 and any other count
    three = limits.check_admissible(config(
        3, [(40.0 / 3, (0.1, 0.1, 0.1)), (40.0 / 3, (0.5, 0.5, 0.5)), (40.0 / 3, (0.1, 0.6, 0.3))]))
    assert three.is_optimal_partition and three.is_compact
    one = limits.check_admissible(config(3, [(40.0, (0.1, 0.1, 0.1))]))
    assert not one.is_optimal_partition and not one.is_compact
    assert any("n=3" in d for d in one.detail)


@pytest.mark.parametrize("dim", [2, 3])
def test_pair_hessian_matches_central_differences_of_the_gradient(dim):
    rng = np.random.default_rng([dim, 29])
    n = 6
    m, x = rng.uniform(0.5, 1.5, n), rng.random((n, dim))
    hess = limits.interaction_hessian(dim, m, x)
    assert hess.shape == (n * dim, n * dim)
    h = 1e-6
    fd = np.empty_like(hess)
    for k in range(n * dim):
        e = np.zeros(n * dim)
        e[k] = h
        e = e.reshape(n, dim)
        fd[:, k] = (limits.interaction_gradient(dim, m, x + e)
                    - limits.interaction_gradient(dim, m, x - e)).ravel() / (2 * h)
    scale = np.abs(hess).max()
    assert np.abs(fd - hess).max() <= 1e-7 * scale
    assert np.array_equal(hess, hess.T)
    # translation invariance: each block row sums to zero
    assert np.abs(hess.reshape(n, dim, n, dim).sum(axis=2)).max() <= 1e-13 * scale


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_each_row_of_a_stacked_hessian_pass_is_bitwise_its_own_call(dim, n):
    rng = np.random.default_rng([dim, n, 31])
    m = rng.uniform(0.5, 2.0, n)
    params = green._resolve(None, n)
    x = rng.random((3, n, dim))
    tables = [limits._pairs(xr)[2] for xr in x]
    stacked = np.concatenate([t.T for t in tables], axis=1).T
    energies, grads, hessians = limits._pair_sum(dim, m, x, stacked, params, 2)
    assert hessians.shape == (3, n * dim, n * dim)
    for xr, table, e, g, hess in zip(x, tables, energies, grads, hessians):
        (one_e,), (one_g,) = limits._pair_sum(dim, m, xr[None], table, params, 1)
        assert e == one_e and np.array_equal(g, one_g)  # the value and gradient bits stay
        assert np.array_equal(limits._pair_sum(dim, m, xr[None], table, params, 2)[2][0], hess)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 5, 9])
def test_each_off_diagonal_hessian_block_is_bitwise_the_pair_hessian_of_g(dim, n):
    # the pair pass joins G's split per pair row exactly as green_hess_many does
    rng = np.random.default_rng([dim, n, 37])
    m, x = rng.uniform(0.5, 2.0, n), rng.random((n, dim))  # unequal masses
    params = green._resolve(None, n)
    hess = limits.interaction_hessian(dim, m, x).reshape(n, dim, n, dim)
    iu, ju, diffs, _ = limits._pairs(x)
    for i, j, d in zip(iu, ju, diffs):
        block = (-2.0 * m[i] * m[j]) * green.green_hess_many(dim, d[None], params)[0]
        assert np.array_equal(hess[i, :, j], block) and np.array_equal(hess[j, :, i], block)
