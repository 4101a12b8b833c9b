"""One value-and-gradient pass per round of the placement descent.

``limits._pair_sum`` forms the energy and the gradient from one pair table,
one per-pair kernel call and one structure factor.  Its results must be the
bits of the value-only pair sum and of the gradient-only formulas it
replaced, which are kept here as the reference.  It takes a stack of
configurations, and each row must be the bits of its own one-row stack.
``place`` runs its restarts in lockstep, one stacked pass per round over the
trial point of every live restart, and each restart must end where its solo
run ends.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import erfc

from oklim import green, limits, optimize


def theta_grad(X):
    """grad G in 2D at rows of the centered cell, from the theta series' own sin, cos and sinh."""
    px, py = math.pi * np.abs(X).T
    s, c, sh = np.sin(px), np.cos(px), np.sinh(py)
    ch = np.sqrt(1.0 + sh * sh)
    cos_w = c * ch + 1j * (s * sh)  # conj(cos w)
    cos2 = cos_w * cos_w
    b, d = (((p[3] * cos2 + p[2]) * cos2 + p[1]) * cos2 + p[0] for p in (green._B, green._D))
    f = (s * c + 1j * (sh * ch)) * d / (b * (s * s + sh * sh))  # -conj(F) / 2pi
    return np.sign(X) * np.stack([f.real, f.imag + py / math.pi], axis=1)


def real_space_grad(X, alpha, rc):
    """Gradient of the 3D screened image sum at rows x, from the image distances alone."""
    def rows(x):
        a = np.abs(x)
        r = green._image_distances(a, rc)
        w = (erfc(alpha * r) / r + (2 * alpha / math.sqrt(math.pi))
             * np.exp(-(alpha * r) ** 2)) / (r * r)
        images = (w[:, None, :] @ green._images(rc))[:, 0]  # row by row, as the kernel does
        return -np.sign(x) * (a * w.sum(axis=1)[:, None] + images)
    return green._by_rows(rows, X, rc**3, np.empty_like(X)) / (4 * math.pi)


def set_long_range_grad(masses, positions, params):
    """Gradient of the 3D particle-set long-range part, from T over the octant alone.

    Each axis s contracts w T back through the tables P (cos, sin) of the
    other two axes and the derivative table D of its own.
    """
    if len(masses) < 2:
        return 0.0
    F = params.fourier_cutoff + 1
    order = np.lexsort(positions.T[::-1])
    m = masses[order]
    k = np.arange(F)
    phase = positions[order].T[:, :, None] * (2 * math.pi * k)
    cos, sin = np.cos(phase), np.sin(phase)
    p, d = np.concatenate([cos, sin], axis=2), np.concatenate([-k * sin, k * cos], axis=2)
    step = max(1, green._CHUNK // (4 * F * F))
    t = 0.0
    for lo in range(0, len(m), step):
        c = slice(lo, lo + step)
        outer = (p[0, c].T[:, None] * m[c] * p[1, c].T).reshape(4 * F * F, -1)
        t = t + green._serial_matmul(outer, p[2, c])
    w = green._structure_weights(params)[:, None, :, None, :]  # broadcast over the parities
    z = (t.reshape(2, F, 2, F, 2, F) * w).reshape(t.shape)
    factors = [(d[0] * m[:, None], p[1], p[2]), (p[0] * m[:, None], d[1], p[2]),
               (p[0] * m[:, None], p[1], d[2])]
    out = np.empty_like(positions)
    step = max(1, step // 12)
    for lo in range(0, len(m), step):
        c = slice(lo, lo + step)
        left, middle, right = (np.concatenate([f[c] for f in axis]).T for axis in zip(*factors))
        y = green._serial_matmul(z, right).reshape(2 * F, 2 * F, -1)
        g = np.einsum("aj,aj->j", np.einsum("abj,bj->aj", y, middle), left).reshape(3, -1)
        out[order[c]] = (4 * math.pi) * g.T
    return out


def reference_gradient(dim, masses, positions, params):
    """The pair-sum gradient from the gradient-only formulas, summed over the pair triangle."""
    iu, ju, diffs, _ = limits._pairs(positions)
    if dim == 2:
        grad, rest = theta_grad(diffs), 0.0
    else:
        grad = real_space_grad(diffs, params.alpha, params.real_cutoff)
        rest = set_long_range_grad(masses, positions, params)
    t = np.zeros((len(positions), len(positions), dim))
    t[iu, ju] = (2.0 * masses[iu] * masses[ju])[:, None] * grad
    return t.sum(axis=1) - t.sum(axis=0) + rest


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 4, 9, 27])
def test_one_pass_gives_the_bits_of_the_value_and_gradient_formulas(dim, n):
    for seed in range(3):
        rng = np.random.default_rng([dim, n, seed])
        m, x = rng.uniform(0.5, 2.0, n), rng.random((n, dim))
        params = green._resolve(None, n)
        (energy,), (grad,) = limits._pair_sum(dim, m, x[None], limits._pairs(x)[2], params, 1)
        assert energy == limits.interaction_energy(dim, m, x)
        assert np.array_equal(grad, reference_gradient(dim, m, x, params))
        assert np.array_equal(limits.interaction_gradient(dim, m, x), grad)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("n", [2, 3, 8, 27])
def test_each_row_of_a_stacked_pass_is_bitwise_its_own_call(dim, n):
    rng = np.random.default_rng([dim, n, 7])
    m = rng.uniform(0.5, 2.0, n)  # unequal masses
    params = green._resolve(None, n)
    for R in range(1, 5):
        x = rng.random((R, n, dim))
        tables = [limits._pairs(xr)[2] for xr in x]
        stacked = np.concatenate([t.T for t in tables], axis=1).T
        energies, grads = limits._pair_sum(dim, m, x, stacked, params, 1)
        values = limits._pair_sum(dim, m, x, stacked, params)
        assert energies.shape == values.shape == (R,) and grads.shape == (R, n, dim)
        for xr, table, e, v, g in zip(x, tables, energies, values, grads):
            (one_e,), (one_g,) = limits._pair_sum(dim, m, xr[None], table, params, 1)
            assert e == one_e and np.array_equal(g, one_g)
            assert v == limits._pair_sum(dim, m, xr[None], table, params)[0]


@pytest.mark.parametrize("dim, n, restarts, seed", [(2, 8, 4, 1), (3, 4, 4, 0)])
def test_each_restart_ends_bitwise_where_its_solo_run_ends(dim, n, restarts, seed):
    masses = np.ones(n)  # no square lattice start at these n
    seeded = [np.random.default_rng([seed, i]).random((n, dim)) for i in range(restarts)]
    # place runs a given start in its lexicographic order: sorted, it is its own order
    starts = [x0[np.lexsort(x0.T[::-1])] for x0 in seeded]
    solo = [optimize.place(dim, masses, restarts=0, initial_positions=x0) for x0 in starts]
    params = green._resolve(None, n)

    def descents(xs):
        return [optimize._descend(x0, 1e-8, optimize.MAX_ITERATIONS) for x0 in xs]

    runs = optimize._lockstep(dim, masses, descents(starts), params)
    for (x, e, gn, iters, conv, evals, lowest), one in zip(runs, solo):
        assert np.array_equal(x, one.config.positions) and e == one.energy
        assert (gn, iters, conv, evals, lowest) == (one.grad_norm, one.iterations, one.converged,
                                                    one.evaluations, one.min_hessian_eigenvalue)
    # place reports the earliest of the solo runs tied with the lowest; seeded starts
    # keep their rows, so each solo run is its descent run alone
    alone = [optimize._lockstep(dim, masses, descents([x0]), params)[0] for x0 in seeded]
    result = optimize.place(dim, masses, restarts=restarts, seed=seed)
    low = min(run[1] for run in alone)
    best = next(run for run in alone
                if run[1] - low <= optimize.RESTART_TIE * max(1.0, abs(low)))
    assert np.array_equal(result.config.positions, best[0])
    assert (result.energy, result.grad_norm, result.iterations) == best[1:4]
    assert result.evaluations == sum(run[5] for run in alone)


@pytest.mark.parametrize("dim, n", [(2, 9), (3, 4)])
def test_place_makes_one_pass_per_trial_point(monkeypatch, dim, n):
    calls = dict(pairs=0, rejected=0, pair_part=0, rows=0, set_long_range=0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    pairs = optimize._pairs

    def counted_pairs(positions):
        table = pairs(positions)
        calls["pairs"] += 1
        # a trial point inside the coalescence guard is rejected before any pass
        calls["rejected"] += bool(np.min(table[3]) < optimize.COALESCENCE_GUARD)
        return table

    pair_part = green._pair_part

    def counted_pair_part(dim, X, *args, **kwargs):
        calls["pair_part"] += 1
        calls["rows"] += len(X)
        return pair_part(dim, X, *args, **kwargs)

    descend, evaluations = optimize._descend, []

    def counted_descend(*args):
        run = yield from descend(*args)
        evaluations.append(run[5])  # this restart's trial points
        return run

    # the descent's own binding of limits._pairs; PointConfiguration keeps its own
    monkeypatch.setattr(optimize, "_pairs", counted_pairs)
    monkeypatch.setattr(optimize, "_descend", counted_descend)
    monkeypatch.setattr(green, "_pair_part", counted_pair_part)
    monkeypatch.setattr(green, "_set_long_range",
                        counted("set_long_range", green._set_long_range))
    result = optimize.place(dim, np.ones(n), restarts=2, seed=1)
    # the reported distances come from the result configuration's own table
    passes = calls["pairs"] - calls["rejected"]
    assert len(evaluations) == result.restarts_used == 2
    assert sum(evaluations) == passes == calls["set_long_range"] == result.evaluations
    # one stacked kernel call per round, over the pending trial point of every live restart
    assert calls["pair_part"] == max(evaluations)
    assert calls["rows"] == result.evaluations * n * (n - 1) // 2


def test_evaluations_cover_every_restart_and_repeat_on_reruns():
    runs = [optimize.place(3, np.ones(4), restarts=2, seed=0) for _ in range(2)]
    assert runs[0].evaluations >= runs[0].iterations
    assert runs[0].evaluations == runs[1].evaluations
    one = optimize.place(3, np.ones(4), restarts=1, seed=0)
    assert runs[0].evaluations > one.evaluations  # the second restart's passes count too


def test_the_per_size_pair_caches_keep_few_sizes():
    # each size caches O(n^2) int64 index arrays: 64 cached sizes kept 31 MB
    # after these gradients, 8 keep 6.4 MB
    limits._pair_index.cache_clear()
    rng = np.random.default_rng(26)
    tracemalloc.start()
    try:
        for n in range(300, 320):
            limits.interaction_gradient(2, np.ones(n), rng.random((n, 2)))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept <= 16e6, kept
