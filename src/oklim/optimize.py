"""Multi-start quasi-Newton descent, finished by Newton steps, for the pair interaction energy.

Minimizes sum_{i != j} m_i m_j G(x_i - x_j), the pair sum of ``limits``,
over particle positions with seeded uniform restarts and a deterministic
reduction of the restart results.  Each restart
follows the L-BFGS direction (two-loop recursion over the last 10
step/gradient-change pairs; Liu & Nocedal, Math. Prog. 45, 1989), its dot
products taken from one Gram product of the stored rows, with backtracking
line search (Armijo 1e-4, shrink 0.5, first trial step 1 capped so no
particle moves more than 0.1 of the cell) and a coalescence guard.  L-BFGS
converges linearly near a minimum, so once |grad| falls below
_NEWTON_SWITCH a restart asks for the analytic Hessian at its trial points
and takes one eigendecomposition of it with the d translations projected
out (``_curvature``).  That one decomposition gives the step: where it is
positive definite, the Newton direction with particle 0 held fixed, through
the same line search, which converges quadratically (Nocedal & Wright,
Numerical Optimization, 2nd ed., ch. 3); elsewhere, and when a Newton line
search fails, L-BFGS.  It gives the stop: |grad| <= tol ends a restart only
at a point whose smallest eigenvalue is not clearly negative (the
second-order necessary condition, ibid. ch. 2), and a restart at a saddle steps
off it along the eigenvector of that eigenvalue.  And it gives the
reported smallest eigenvalue.  The restarts run in lockstep:
each is a generator, ``_descend``, that yields its guarded trial points with
the min-image differences of their pair tables and whether it wants the
Hessian there, and receives their energies, gradients and Hessians; each
round stacks the pending trial points of every running restart, with their
differences joined, into one pass of the pair sum ``limits._pair_sum``,
which returns arrays of the energies, gradients and, when asked, Hessians
together, at Ewald parameters resolved once per ``place`` call.  Its rows
are row-independent, so each restart takes the bits of its solo run;
``evaluations`` counts the trial points over all restarts.  The pair sum
is homogeneous of degree 2 in the masses, so the descent runs on
masses / 2^k, k = round(log2(mean mass)), which a power of two scales
exactly, and its energy and gradient norm scale back by 2^(2k): the
tolerance, the noise floor, the Newton switch and the first trial step
hold relative to that mass scale, and masses 2^j give the unit-mass
positions bitwise.  With a given start, every restart runs in the
lexicographic order of its positions.  The reported pairwise distances
come from the pair table of the result's ``PointConfiguration``.  Near the
minimum, where the Armijo decrement falls below the rounding noise of the
energy, the decrease is measured instead by the trapezoid rule on the
slopes at both ends of the step.  A direction that is not a descent
direction, or a line search that fails, clears the pair memory and retries
along -grad; a failure along -grad ends the restart.  Outputs are
local minima where the reduced Hessian has at most _NEWTON_ROWS rows and
stationary points past that, never certified global minimizers; the square
(cubic) lattice arrangement is available for comparison only, since at most
commensurate counts it is a saddle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import green
from .errors import IncommensurateCount, NoConvergence, check_integer
# interaction_gradient is not called here, but the benchmark tracer (perfbench/tracing.py)
# wraps optimize.interaction_energy and optimize.interaction_gradient by attribute
from .limits import (PointConfiguration, _check_distinct, _pair_sum, _pairs, interaction_energy,
                     interaction_gradient)
from .local import _check_masses, _total

ARMIJO = 1e-4
SHRINK = 0.5
COALESCENCE_GUARD = 1e-4
MAX_ITERATIONS = 100_000
MEMORY = 10  # (s, y) pairs kept by the L-BFGS model
MAX_MOVE = 0.1  # largest particle displacement of a first trial step, in cell lengths
RESTART_TIE = 1e-13  # relative energy gap within which restarts count as tied
_NEWTON_SWITCH = 1e-2  # |grad| below which a restart asks for Hessians and takes Newton steps
# the largest particle displacement of a Newton step: a longer one leaves the region where
# the quadratic model holds and can cross into another basin, so L-BFGS takes that step
_NEWTON_MOVE = 0.01
# the most rows of a reduced Hessian that gets an eigendecomposition: with OpenBLAS 0.3.31,
# np.linalg.eigh with vectors gave the same bits under one and two threads at 64 and 96
# rows, and past that size its O(n^3) work outgrows a pair pass
_NEWTON_ROWS = 96
# |grad| <= tol ends a restart only where the smallest eigenvalue of the reduced Hessian is
# at least -_NEGATIVE_CURVATURE times the largest |eigenvalue|: far above the rounding of
# the eigenvalues, and far below the -0.03 to -0.045 of the square-lattice saddles
_NEGATIVE_CURVATURE = 1e-8


@dataclass(frozen=True)
class OptimizationResult:
    """Best stationary configuration found, with diagnostics."""

    config: PointConfiguration
    energy: float
    grad_norm: float
    iterations: int
    restarts_used: int
    pairwise_distances: tuple
    converged: bool
    evaluations: int  # trial points evaluated, over all restarts
    params: green.EwaldParameters  # the Ewald parameters of the descent
    # the smallest eigenvalue of the Hessian at config, the d translations projected out,
    # from the descent's eigendecomposition there; None past _NEWTON_ROWS reduced rows, and
    # at an unconverged result whose last point had no Hessian
    min_hessian_eigenvalue: float | None


def _lbfgs_direction(g, S, Y):
    """-H g for the inverse-Hessian model of the step rows S and gradient-change rows Y.

    The two-loop recursion run on scalars: every dot product it takes is an
    entry of one Gram product W @ [Y; g]^T, W = [S; Y], and the direction is
    -gamma g plus one combination of the rows of W.
    """
    k = len(S)
    if not k:
        return -g
    W = np.concatenate([S, Y])
    D = W @ np.concatenate([Y, g.reshape(1, -1)]).T  # [s_i.y_j, s_i.g; y_i.y_j, y_i.g]
    sy = D[:k].tolist()
    # newest pair first: a_i = s_i.q / s_i.y_i, q = -g - sum_{j > i} a_j y_j
    a = [0.0] * k
    for i in reversed(range(k)):
        t = -sy[i][k]
        for j in range(i + 1, k):
            t -= a[j] * sy[i][j]
        a[i] = t / sy[i][i]
    gamma = sy[-1][-2] / float(D[-1, -2])  # s.y / y.y of the newest pair
    # oldest pair first, on r = gamma q + sum_{j < i} c_j s_j: c_i = a_i - y_i.r / s_i.y_i
    yr = (-gamma * (D[k:, k] + D[k:, :k] @ a)).tolist()
    c = []
    for i in range(k):
        t = yr[i]
        for j in range(i):
            t += c[j] * sy[j][i]
        c.append(a[i] - t / sy[i][i])
    return (np.array(c + [-gamma * v for v in a]) @ W - gamma * g.ravel()).reshape(g.shape)


@functools.cache  # one basis per (n, d), and only within _NEWTON_ROWS
def _translation_free(n, d):
    """An orthonormal basis of the moves of n particles orthogonal to the d translations.

    The (n d, (n - 1) d) columns, one copy per axis of the vectors orthogonal
    to (1, ..., 1).
    """
    return np.kron(np.linalg.qr(np.ones((n, 1)), mode="complete")[0][:, 1:], np.eye(d))


def _curvature(hessian, d):
    """The eigenvalues, ascending, and unit eigenvectors of the Hessian, translations out.

    One ``np.linalg.eigh`` of Q^T H Q, Q = ``_translation_free``, its
    products through ``green._serial_matmul``; the eigenvectors come back as
    the columns of Q V, moves of the particles in their own coordinates.
    """
    q = _translation_free(len(hessian) // d, d)
    eigenvalues, v = np.linalg.eigh(green._serial_matmul(green._serial_matmul(q.T, hessian), q))
    return eigenvalues, green._serial_matmul(q, v)


def _saddle(curvature):
    """Whether a ``_curvature`` (None: no Hessian) has a clearly negative eigenvalue.

    The eigenvalues ascend, so lambda_min < -eps max|lambda| reads lambda_min
    < -eps lambda_max, eps = _NEGATIVE_CURVATURE.
    """
    return curvature is not None and curvature[0][0] < -_NEGATIVE_CURVATURE * curvature[0][-1]


def _newton_direction(g, eigenvalues, w):
    """The Newton direction -H^-1 g with particle 0 held fixed, or None.

    -W L^-1 W^T g over the eigenpairs (L, W) of ``_curvature``, minus
    particle 0's row, a translation, which leaves the energy as it is; None
    unless every eigenvalue is positive and no particle moves more than
    _NEWTON_MOVE.
    """
    if not eigenvalues[0] > 0.0:
        return None
    p = -(w @ ((g.ravel() @ w) / eigenvalues)).reshape(g.shape)
    p -= p[0]
    return p if (p * p).sum(axis=1).max() <= _NEWTON_MOVE**2 else None


def _descend(x, tol, max_iterations):
    """One restart's descent from the rows x in [0, 1), as a generator of its trial points.

    Yields each guarded trial point as (positions, the (P, d) differences of
    its ``_pairs`` table, whether it wants the Hessian there) and receives
    its (energy, gradient, Hessian or None); returns (x, energy, grad_norm,
    iters, converged, evaluations, the smallest eigenvalue at x or None),
    ``evaluations`` counting the trial points.  Once |grad| falls below
    _NEWTON_SWITCH, it asks for the Hessian at each trial point (if the
    reduced Hessian has at most _NEWTON_ROWS rows), and at a point whose
    Hessian it holds it takes one ``_curvature`` of it, which decides three
    things: the step along ``_newton_direction`` where that exists, through
    the same line search (a Newton line search that fails retries along the
    L-BFGS direction); the stop, since |grad| <= tol ends the descent only
    where ``_saddle`` does not hold (a point there without its Hessian asks
    for it in one more round), and elsewhere it steps along the eigenvector
    of the smallest eigenvalue, its first nonzero entry positive and its
    largest particle move _NEWTON_MOVE; and the smallest eigenvalue it
    returns.  The start's table passes ``_check_distinct``, each trial's the
    stricter COALESCENCE_GUARD.
    """
    d = x.shape[1]
    newton_fits = (len(x) - 1) * d <= _NEWTON_ROWS
    energy, g, _ = yield x, _check_distinct(_pairs(x))[2], False
    curvature = None  # the _curvature at x, where its Hessian came with it
    evaluations = 1
    grad_norm = math.sqrt(g.ravel() @ g.ravel())  # np.linalg.norm(g), without its overhead
    S = Y = np.empty((0, x.size))  # the last MEMORY steps and gradient changes, as rows
    iters = 0
    for iters in range(1, max_iterations + 1):
        escape = grad_norm <= tol  # a stop, unless x is a saddle
        if escape and curvature is None and newton_fits:
            curvature = _curvature((yield x, _pairs(x)[2], True)[2], d)
            evaluations += 1
        if escape and not _saddle(curvature):
            break
        if escape:
            v = curvature[1][:, 0].reshape(x.shape)
            p = math.copysign(_NEWTON_MOVE / math.sqrt((v * v).sum(axis=1).max()),
                              v.flat[np.flatnonzero(v)[0]]) * v
        else:
            p = None if curvature is None else _newton_direction(g, *curvature)
        newton = p is not None and not escape
        if p is None:
            p = _lbfgs_direction(g, S, Y)
        slope = float(np.vdot(p, g))
        if slope >= 0.0 and not escape:  # not a descent direction: drop the model, take -g
            S = Y = S[:0]
            p, slope = -g, -grad_norm**2
        step = min(1.0, MAX_MOVE / math.sqrt((p * p).sum(axis=1).max()))
        # near the minimum the Armijo decrement c s |p.g| drops below the
        # float resolution of the energy; there the Armijo test is applied to
        # the trapezoid rule on the slopes at both ends of the step, which
        # has no cancellation noise (the energy still may not increase beyond
        # rounding noise)
        noise = 1e-14 * max(1.0, abs(energy))
        accepted = False
        while step > 1e-18:
            x_new = (x + step * p) % 1.0
            pairs = _pairs(x_new)
            if pairs[3].min() < COALESCENCE_GUARD:
                step *= SHRINK  # energy diverges at coalescence; never step there
                continue
            decrement = -ARMIJO * step * slope
            # the slope at x_new is needed at almost every trial point, so the
            # gradient comes with the energy in one pass
            e_new, g_new, h_new = yield x_new, pairs[2], newton_fits and grad_norm < _NEWTON_SWITCH
            evaluations += 1
            if decrement >= noise:
                ok = e_new <= energy - decrement
            else:
                change = 0.5 * step * float(np.vdot(p, g + g_new))
                ok = (e_new <= energy + noise and change <= -decrement
                      and not np.array_equal(x_new, x))
            if ok:
                assert e_new <= energy + noise  # descent property of accepted steps
                # the unwrapped step: x_new - x would jump by 1 across the cell faces
                s, y = (step * p).ravel(), (g_new - g).ravel()
                sy = float(s @ y)
                if sy > 0.0:  # keeps the inverse-Hessian model positive definite
                    S = np.concatenate([S, s[None]])[-MEMORY:]
                    Y = np.concatenate([Y, y[None]])[-MEMORY:]
                x, energy, g = x_new, min(energy, e_new), g_new
                curvature = None if h_new is None else _curvature(h_new, d)
                grad_norm = math.sqrt(g.ravel() @ g.ravel())
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            if newton:
                curvature = None  # retry along the L-BFGS direction
                continue
            if not len(S):
                break  # line search along -g exhausted below machine resolution
            S = Y = S[:0]  # retry from -g before giving up
    lowest = None if curvature is None else float(curvature[0][0])
    converged = grad_norm <= tol and not _saddle(curvature)
    return x, energy, grad_norm, iters, converged, evaluations, lowest


def _lockstep(dim, masses, descents, params):
    """Run the ``_descend`` generators together: one stacked pair pass per round.

    Each round evaluates the pending trial points of every restart still
    running in one ``_pair_sum`` call, with the Hessians when any of them
    asks for one, and sends each restart the Hessian only if it asked;
    returns each generator's result.
    """
    runs = [None] * len(descents)
    trials = [next(d) for d in descents]
    live = list(range(len(descents)))
    while live:
        x = np.stack([trials[i][0] for i in live])
        # (R P, d), the transpose of a coordinate-major array, as each trial's differences are
        diffs = np.concatenate([trials[i][1].T for i in live], axis=1).T
        order = 2 if any(trials[i][2] for i in live) else 1
        out = _pair_sum(dim, masses, x, diffs, params, order)
        hessians = out[2] if order == 2 else [None] * len(live)
        for i, e, g, h in zip(live, map(float, out[0]), out[1], hessians):
            try:
                trials[i] = descents[i].send((e, g, h if trials[i][2] else None))
            except StopIteration as done:
                runs[i] = done.value
        live = [i for i in live if runs[i] is None]
    return runs


def _check_count(n):
    """The one particle-count rule of a placement: ValueError unless n >= 2."""
    if n < 2:
        raise ValueError("placement needs at least two particles")


def square_lattice_positions(dim, n) -> np.ndarray:
    """Axis-aligned square (cubic) lattice arrangement of n >= 2 points, if commensurate."""
    green._check_dim(dim)
    _check_count(n)
    s = round(n ** (1.0 / dim))
    if s**dim != n:
        raise IncommensurateCount(f"{n} points do not form a square lattice on the torus")
    axes = [np.arange(s) / s] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_candidate_energy(dim, n, mass, params=None) -> float:
    """Interaction energy of the square (cubic) lattice arrangement of n masses ``mass``.

    For comparison tables.  ValueError for a ``dim`` other than 2 or 3, for
    n < 2 and for a mass that is not positive and finite; IncommensurateCount
    when n is not a square (cube) count.
    """
    masses = np.full(n, _check_masses(mass))
    return interaction_energy(dim, masses, square_lattice_positions(dim, n), params)


def place(dim, masses, restarts: int = 10, seed: int = 0, tol: float = 1e-8,
          params=None, max_iterations: int = MAX_ITERATIONS,
          initial_positions=None) -> OptimizationResult:
    """Multi-start descent over particle positions; deterministic in (seed, restarts).

    Runs ``restarts`` seeded uniform starts (plus ``initial_positions`` if
    given) and returns the lowest-energy converged result.  Given
    ``initial_positions``, reduced to [0, 1), every start runs with the
    particles in the lexicographic order of those positions (seeded rows go
    to the particles in that order), so the result's bits do not depend on
    the order in which the particles are listed; the result lists them in
    the caller's order.  Energies within RESTART_TIE (relative) of the
    lowest count as tied, and ties go to the earliest start: restarts that
    reach one minimum differ in the last bits, which must not pick the
    output.
    ``tol`` bounds |grad| relative to the mass scale 2^(2k) of the descent
    (module docstring), and the reported energy, grad_norm and smallest
    eigenvalue are at the given masses.  A start counts as converged at
    |grad| <= tol only where its Hessian, if it has at most _NEWTON_ROWS
    reduced rows, has no clearly negative eigenvalue.
    Raises NoConvergence (carrying the best effort) if no start reaches the
    gradient tolerance, and ValueError if ``dim`` is not 2 or 3,
    ``restarts``, ``seed`` or ``max_iterations`` is not a non-negative
    integer (a bool is not one), ``restarts`` is 0 without
    ``initial_positions``, or ``initial_positions`` is not an (n, dim) array
    of finite values.
    """
    green._check_dim(dim)
    masses = _check_masses(masses)
    n = masses.size
    _check_count(n)
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    restarts = check_integer("restarts", restarts, 0)
    seed = check_integer("seed", seed, 0)
    max_iterations = check_integer("max_iterations", max_iterations, 0)
    order = np.arange(n)
    if initial_positions is not None:
        initial_positions = green._positions(dim, initial_positions, "initial_positions")
        if len(initial_positions) != n:
            raise ValueError(f"initial_positions needs {n} rows, got {len(initial_positions)}")
        order = np.lexsort(initial_positions.T[::-1])
    params = green._resolve(params, n)

    starts = [np.random.default_rng([seed, idx]).random((n, dim)) for idx in range(restarts)]
    if initial_positions is not None:
        starts.append(initial_positions[order])
    if not starts:
        raise ValueError("no starts: restarts is 0 and no initial positions are given")

    # the pair sum is homogeneous of degree 2 in the masses, and a power of two scales them
    # exactly: the descent runs on masses / 2^k, k = round(log2(mean mass)), so its tests and
    # steps do not depend on the mass scale, and its energy and gradient norm scale back by
    # 2^(2k); the mean is taken relative to the largest mass, which neither overflows nor
    # underflows
    top = masses.max()
    k = round(math.log2(top) + math.log2(_total(masses / top) / n))
    # (x, energy, grad_norm, iters, conv, evaluations, smallest eigenvalue) per start
    runs = _lockstep(dim, np.ldexp(masses[order], -k),
                     [_descend(x0, tol, max_iterations) for x0 in starts], params)
    pool = [r for r in runs if r[4]] or runs
    low = min(pool, key=lambda r: r[1])
    gap = RESTART_TIE * max(1.0, abs(low[1]))
    # low itself when the gaps are not finite: energies that overflowed to inf
    x, e, gn, iters, conv, _, lowest = next((r for r in pool if r[1] - low[1] <= gap), low)
    config = PointConfiguration(dim, zip(masses, x[np.argsort(order)]))  # the caller's order
    result = OptimizationResult(
        config=config,
        energy=float(np.ldexp(e, 2 * k)),
        grad_norm=float(np.ldexp(gn, 2 * k)),
        iterations=iters,
        restarts_used=len(starts),
        pairwise_distances=tuple(np.sort(config.pairs[3]).tolist()),
        converged=conv,
        evaluations=sum(r[5] for r in runs),
        params=params,
        min_hessian_eigenvalue=None if lowest is None else float(np.ldexp(lowest, 2 * k)),
    )
    if not conv:
        raise NoConvergence("no restart reached the gradient tolerance", result=result)
    return result
