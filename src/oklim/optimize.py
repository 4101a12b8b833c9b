"""Multi-start quasi-Newton descent for the pairwise interaction energy on the torus.

Minimizes sum_{i != j} m_i m_j G(x_i - x_j), the pair sum of ``limits``
(``interaction_energy`` and ``interaction_gradient``), over particle
positions with seeded uniform restarts and a deterministic reduction of the
restart results.  Each restart follows the L-BFGS direction (two-loop
recursion over the last 10 step/gradient-change pairs; Liu & Nocedal,
Math. Prog. 45, 1989), its dot products taken from one Gram product of the
stored rows, with backtracking line search (Armijo 1e-4, shrink
0.5, first trial step 1 capped so no particle moves more than 0.1 of the
cell) and a coalescence guard.  The restarts run in lockstep: each is a
generator, ``_descend``, that yields its guarded trial points with their
min-image pair tables and receives their energies and gradients, and each
round evaluates the pending trial point of every running restart in one
stacked pass of the pair sum ``limits._pair_sum``, which returns the
energies and gradients together, at Ewald parameters resolved once per
``place`` call.  Its rows are row-independent, so each restart takes the
bits of its solo run; ``evaluations`` counts the trial points
over all restarts.  The reported pairwise distances come from the pair
table of the result's ``PointConfiguration``.  Near the minimum, where the
Armijo decrement falls below the rounding noise of the energy, the decrease
is measured instead by the trapezoid rule on the slopes at both ends of the
step.  A direction
that is not a descent direction, or a line search that fails, clears the
pair memory and retries along -grad; a failure along -grad ends the
restart.  Outputs are stationary candidates, never certified global
minimizers; the square (cubic) lattice arrangement is available for
comparison and is injected as an extra start when commensurate.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import green
from .errors import IncommensurateCount, NoConvergence
# interaction_gradient is not called here, but the benchmark tracer (perfbench/tracing.py)
# wraps optimize.interaction_energy and optimize.interaction_gradient by attribute
from .limits import (PointConfiguration, _check_masses, _pair_sum, _pairs, _stack,
                     interaction_energy, interaction_gradient)

ARMIJO = 1e-4
SHRINK = 0.5
COALESCENCE_GUARD = 1e-4
MAX_ITERATIONS = 100_000
MEMORY = 10  # (s, y) pairs kept by the L-BFGS model
MAX_MOVE = 0.1  # largest particle displacement of a first trial step, in cell lengths
RESTART_TIE = 1e-13  # relative energy gap within which restarts count as tied


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


def _descend(x0, tol, max_iterations):
    """One restart's descent from x0, as a generator of its trial points.

    Yields each guarded trial point as (positions, its ``_pairs`` table) and
    receives its (energy, gradient); returns (x, energy, grad_norm, iters,
    converged, evaluations), ``evaluations`` counting the trial points.
    """
    x = x0 % 1.0
    energy, g = yield x, _pairs(x)
    evaluations = 1
    grad_norm = math.sqrt(g.ravel() @ g.ravel())  # np.linalg.norm(g), without its overhead
    S = Y = np.empty((0, x.size))  # the last MEMORY steps and gradient changes, as rows
    iters = 0
    for iters in range(1, max_iterations + 1):
        if grad_norm <= tol:
            return x, energy, grad_norm, iters, True, evaluations
        p = _lbfgs_direction(g, S, Y)
        slope = float(np.vdot(p, g))
        if slope >= 0.0:  # not a descent direction: drop the model, take -g
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
            e_new, g_new = yield x_new, pairs
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
                grad_norm = math.sqrt(g.ravel() @ g.ravel())
                accepted = True
                break
            step *= SHRINK
        if not accepted:
            if not len(S):
                break  # line search along -g exhausted below machine resolution
            S = Y = S[:0]  # retry from -g before giving up
    return x, energy, grad_norm, iters, grad_norm <= tol, evaluations


def _lockstep(dim, masses, descents, params):
    """Run the ``_descend`` generators together: one stacked pair pass per round.

    Each round evaluates the pending trial points of every restart still
    running in one ``_pair_sum`` call; returns each generator's result.
    """
    runs = [None] * len(descents)
    trials = [next(d) for d in descents]
    live = list(range(len(descents)))
    while live:
        x = np.stack([trials[i][0] for i in live])
        energies, grads = _pair_sum(dim, masses, x, _stack([trials[i][1] for i in live]),
                                    params, gradient=True)
        for i, e, g in zip(live, energies, grads):
            try:
                trials[i] = descents[i].send((e, g))
            except StopIteration as done:
                runs[i] = done.value
        live = [i for i in live if runs[i] is None]
    return runs


def square_lattice_positions(dim, n) -> np.ndarray:
    """Axis-aligned square (cubic) lattice arrangement of n points, if commensurate."""
    green._check_dim(dim)
    s = round(n ** (1.0 / dim))
    if s**dim != n:
        raise IncommensurateCount(f"{n} points do not form a square lattice on the torus")
    axes = [np.arange(s) / s] * dim
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def lattice_candidate_energy(dim, n, masses_equal, lattice, params=None) -> float:
    """Interaction energy of the square (cubic) lattice arrangement of n equal masses.

    For comparison tables.  ValueError for a ``dim`` other than 2 or 3, for a
    mass that is not positive and finite, and for a ``lattice`` other than
    'square'; IncommensurateCount when n is not a square (cube) count.
    """
    green._check_dim(dim)
    masses = _check_masses(np.full(n, float(masses_equal)))
    if lattice != "square":
        raise ValueError(f"lattice must be 'square', got {lattice!r}")
    return interaction_energy(dim, masses, square_lattice_positions(dim, n), params)


def place(dim, masses, restarts: int = 10, seed: int = 0, tol: float = 1e-8,
          params=None, max_iterations: int = MAX_ITERATIONS,
          initial_positions=None) -> OptimizationResult:
    """Multi-start descent over particle positions; deterministic in (seed, restarts).

    Runs ``restarts`` seeded uniform starts (plus the square-lattice
    arrangement as an extra start when the count is commensurate and masses
    are equal, and ``initial_positions`` if given) and returns the
    lowest-energy converged result.  Energies within RESTART_TIE (relative) of
    the lowest count as tied, and ties go to the earliest start: restarts that
    reach one minimum differ in the last bits, which must not pick the output.
    Raises NoConvergence (carrying the best effort) if no start reaches the
    gradient tolerance, and ValueError if ``dim`` is not 2 or 3, ``restarts``
    or ``seed`` is negative, no start applies, or ``initial_positions`` is not
    an (n, dim) array of finite values.
    """
    green._check_dim(dim)
    masses = _check_masses(masses)
    n = masses.size
    if n < 2:
        raise ValueError("placement needs at least two particles")
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError("tol must lie in [1e-12, 1e-4]")
    for name, value in (("restarts", restarts), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    if initial_positions is not None:
        initial_positions = np.asarray(initial_positions, dtype=float)
        if initial_positions.shape != (n, dim):
            raise ValueError(f"initial_positions must have shape ({n}, {dim}) for {n} masses "
                             f"in {dim}D, got {initial_positions.shape}")
        if not np.isfinite(initial_positions).all():
            raise ValueError("initial_positions must be finite, got "
                             f"{initial_positions[~np.isfinite(initial_positions)][0]}")
    params = green._resolve(params, n)

    starts = []
    for idx in range(restarts):
        rng = np.random.default_rng([seed, idx])
        starts.append(rng.random((n, dim)))
    if initial_positions is not None:
        starts.append(initial_positions % 1.0)
    if float(np.ptp(masses)) == 0.0:
        with contextlib.suppress(IncommensurateCount):
            starts.append(square_lattice_positions(dim, n))
    if not starts:
        raise ValueError("no starts: restarts is 0 and no lattice or initial positions apply")

    # (x, energy, grad_norm, iters, conv, evaluations) per start
    runs = _lockstep(dim, masses, [_descend(x0, tol, max_iterations) for x0 in starts], params)
    evaluations = sum(r[5] for r in runs)
    pool = [r for r in runs if r[4]] or runs
    low = min(pool, key=lambda r: r[1])
    gap = RESTART_TIE * max(1.0, abs(low[1]))
    # low itself when the gaps are not finite: energies that overflowed to inf
    x, e, gn, iters, conv, _ = next((r for r in pool if r[1] - low[1] <= gap), low)
    config = PointConfiguration(dim, zip(masses, x))
    result = OptimizationResult(
        config=config,
        energy=e,
        grad_norm=gn,
        iterations=iters,
        restarts_used=len(starts),
        pairwise_distances=tuple(np.sort(config.pairs[3]).tolist()),
        converged=conv,
        evaluations=evaluations,
    )
    if not conv:
        raise NoConvergence("no restart reached the gradient tolerance", result=result)
    return result
